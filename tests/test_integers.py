"""One rule for every rank, count and sample size a caller passes
(`distributions._integer`). A float is refused with a ValueError that names
the field, whole or not: a rank of 1.5 weighs by no rank, and truncating it
tests another. A numpy integer is taken as the int it holds."""

import pickle
import tempfile

import numpy as np
import pytest

from cxorder import (
    Alternative,
    Exponential,
    Logistic,
    PowerGrid,
    TestSpec,
    critical_value,
    hill_estimate,
    ingest,
    l_estimate,
    os_weights,
    p_value,
    pi_bound,
    pp_power,
    pp_test,
    reproduce,
    select_indices,
    simulation,
)
from cxorder.order_stats import bound_status
from cxorder.testing import batch_statistics, null_statistics

SAMPLE = ingest(np.random.default_rng(6).exponential(size=40))
ROWS = np.sort(np.random.default_rng(7).exponential(size=(3, 20)), axis=1)


def _spec(**fields) -> TestSpec:
    return TestSpec(Exponential(), **{"m": 5, "mc_trials": 100, **fields})


def _null(**fields):
    args = dict(ref=Exponential(), n=20, m=5, indices=(1, 2), p_norm=1.0, trials=100, seed=3)
    return null_statistics(**{**args, **fields})


def _reproduce(threads):
    with tempfile.TemporaryDirectory() as out:
        path = reproduce("tiny", out, replications=100, mc_trials=100, threads=threads)
        return path.read_bytes()


# (entry, field, a valid value, the call with that field set to v)
ENTRIES = [
    ("TestSpec", "m", 5, lambda v: _spec(m=v)),
    ("TestSpec", "ell", 2, lambda v: _spec(ell=v)),
    ("TestSpec", "indices", 2, lambda v: _spec(indices=(1, v))),
    ("resolve", "n", 20, lambda v: _spec().resolve(v)),
    ("critical_value", "n", 20, lambda v: critical_value(_spec(), v)),
    ("p_value", "n", 20, lambda v: p_value(_spec(), 0.5, v)),
    ("select_indices", "m", 5, lambda v: select_indices(Exponential(), v, 2)),
    ("select_indices", "ell", 2, lambda v: select_indices(Exponential(), 5, v)),
    ("bound_status", "j", 2, lambda v: bound_status(Exponential(), v, 5)),
    ("bound_status", "m", 5, lambda v: bound_status(Exponential(), 2, v)),
    ("pi_bound", "j", 2, lambda v: pi_bound(Exponential(), v, 5)),
    ("pi_bound", "m", 5, lambda v: pi_bound(Exponential(), 2, v)),
    ("os_weights", "n", 50, lambda v: os_weights(v, 2, 5)),
    ("os_weights", "j", 2, lambda v: os_weights(50, v, 5)),
    ("os_weights", "m", 5, lambda v: os_weights(50, 2, v)),
    ("l_estimate", "j", 2, lambda v: l_estimate(SAMPLE, v, 5)),
    ("l_estimate", "m", 5, lambda v: l_estimate(SAMPLE, 2, v)),
    ("hill_estimate", "k", 3, lambda v: hill_estimate(SAMPLE, v)),
    ("batch_statistics", "m", 5, lambda v: batch_statistics(ROWS, Exponential(), v, (1, 2), 1.0)),
    ("batch_statistics", "indices", 2,
     lambda v: batch_statistics(ROWS, Exponential(), 5, (1, v), 1.0)),
    ("null_statistics", "n", 20, lambda v: _null(n=v)),
    ("null_statistics", "m", 5, lambda v: _null(m=v)),
    ("null_statistics", "indices", 2, lambda v: _null(indices=(1, v))),
    ("null_statistics", "trials", 100, lambda v: _null(trials=v)),
    ("null_statistics", "seed", 3, lambda v: _null(seed=v)),
    ("PowerGrid", "n_grid", 20,
     lambda v: PowerGrid("weibull", (1.5,), (v,), ((2, None),), _spec(m=None), 100)),
    ("pp_power", "n", 20, lambda v: pp_power("weibull", 1.5, v, replications=100, mc_trials=100)),
    ("pp_test", "mc_trials", 100, lambda v: pp_test(SAMPLE, mc_trials=v)),
    ("pp_test", "seed", 3, lambda v: pp_test(SAMPLE, mc_trials=100, seed=v)),
    ("reproduce", "threads", 1, _reproduce),
    ("RefFamily.sample", "n", 5, lambda v: Logistic().sample(v, np.random.default_rng(0))),
    ("Alternative.sample", "n", 5,
     lambda v: Alternative("weibull", 1.5).sample(v, np.random.default_rng(0))),
]


@pytest.fixture(autouse=True)
def tiny_exhibit(monkeypatch):
    grid = PowerGrid("weibull", (1.5,), (20,), ((2, None),), TestSpec(Exponential()))
    monkeypatch.setitem(simulation.EXHIBITS, "tiny", (grid,))


@pytest.mark.parametrize("entry, field, valid, call", ENTRIES,
                         ids=[f"{entry}-{field}" for entry, field, _, _ in ENTRIES])
def test_every_rank_and_count_is_an_integer(entry, field, valid, call):
    # Several of these returned an answer at 1.5 (the weights of a Beta(1.5,
    # 4.5), pi(1, 5), the statistics of rank 1); 2.0 raised TypeError inside
    # numpy, or was truncated too.
    for value in (1.5, 2.0, np.float64(valid)):
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got "):
            call(value)
    assert pickle.dumps(call(np.int64(valid))) == pickle.dumps(call(valid))


BOUNDS = [
    (lambda: os_weights(0, 1, 5), "n must be at least 1"),
    (lambda: os_weights(50, 0, 5), "j must lie in 1..5, got (0,)"),
    (lambda: os_weights(50, 6, 5), "j must lie in 1..5, got (6,)"),
    (lambda: l_estimate(SAMPLE, 2, 0), "m must be at least 1"),
    (lambda: bound_status(Exponential(), 6, 5), "j must lie in 1..5, got (6,)"),
    (lambda: select_indices(Exponential(), 5, 6), "require ell <= m, got ell=6, m=5"),
    (lambda: select_indices(Exponential(), 0, 1), "m must be at least 1"),
    (lambda: hill_estimate(SAMPLE, 40), "require k < n, got k=40, n=40"),
    (lambda: hill_estimate(SAMPLE, 0), "k must be at least 1"),
    (lambda: _spec(ell=0), "ell must be at least 1"),
    (lambda: batch_statistics(ROWS, Exponential(), 5, (0, 2), 1.0),
     "indices must lie in 1..5, got (0, 2)"),
    (lambda: _null(indices=(2, 6)), "indices must lie in 1..5, got (2, 6)"),
    (lambda: _null(indices=()), "indices must be non-empty"),
    (lambda: pp_power("weibull", 1.5, 2), "n must be at least 3"),
    (lambda: reproduce("tiny", threads=0), "threads must be at least 1"),
]


@pytest.mark.parametrize("call, message", BOUNDS, ids=[f"{i}" for i in range(len(BOUNDS))])
def test_a_bound_past_the_integer_rule_names_its_field(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert type(info.value) is ValueError and str(info.value) == message
