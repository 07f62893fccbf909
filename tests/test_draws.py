"""The block draw engine behind every Monte Carlo table, checked bit for bit
against the per-trial loops it replaced."""

import math

import numpy as np
import pytest

from cxorder import (
    Cauchy,
    Custom,
    Exponential,
    Frechet,
    Logistic,
    LogLogistic,
    NegExponential,
    Uniform,
    pp_power,
)
from cxorder._seeds import _BLOCK_ROWS, _sorted_draws, derive_rng
from cxorder.baselines import _pp_null, clear_caches
from cxorder.distributions import Alternative

FAMILIES = [
    Uniform(),
    Exponential(),
    NegExponential(),
    LogLogistic(1.0),
    LogLogistic(2.5),
    Logistic(),
    Frechet(0.5),
    Cauchy(),
    Custom(
        cdf_fn=lambda x: 1.0 / (1.0 + np.exp(-x)),
        quantile_fn=lambda p: np.log(p) - np.log1p(-p),
        right_index=math.inf,
        left_index=math.inf,
        label="logistic-handles",
    ),
    Alternative("weibull", 1.5),
    Alternative("log-logistic", 0.7),
    Alternative("neg-weibull", 2.0),
    Alternative("student-t", 1.1),
    Alternative("shifted-exponential", 0.3),
]


def _per_trial(family, n, count, seed, *path):
    rows = [np.sort(family.sample(n, derive_rng(seed, *path, n, t))) for t in range(count)]
    return np.array(rows).reshape(count, n)


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.cache_key())
@pytest.mark.parametrize("n", [1, 2, 37])
@pytest.mark.parametrize("count", [3, _BLOCK_ROWS, 2 * _BLOCK_ROWS + 5])
def test_rows_equal_per_trial_streams(family, n, count):
    got = _sorted_draws(family, n, count, 11, "label", family.cache_key())
    want = _per_trial(family, n, count, 11, "label", family.cache_key())
    assert got.shape == (count, n)
    assert got.tobytes() == want.tobytes()


def _pair_count_loop(x):
    # Normalized spacings and their strictly ordered pairs, written out.
    n = len(x)
    d = [(n - 1 - i) * (x[i + 1] - x[i]) for i in range(n - 1)]
    ihr = sum(d[i] > d[k] for i in range(len(d)) for k in range(i + 1, len(d)))
    dhr = sum(d[i] < d[k] for i in range(len(d)) for k in range(i + 1, len(d)))
    return ihr, dhr


def test_pp_null_equals_per_trial_loop():
    n, trials, seed = 7, 150, 4
    counts = [
        _pair_count_loop(np.sort(Exponential().sample(n, derive_rng(seed, "pp-null", n, t))))
        for t in range(trials)
    ]
    clear_caches()
    ihr, dhr = _pp_null(n, trials, seed)
    assert ihr.tolist() == sorted(float(c[0]) for c in counts)
    assert dhr.tolist() == sorted(float(c[1]) for c in counts)


@pytest.mark.parametrize("side", ["ihr", "dhr"])
def test_pp_power_equals_per_trial_loop(side):
    n, reps, trials, seed = 8, 200, 150, 9
    k = 0 if side == "ihr" else 1
    null = sorted(
        _pair_count_loop(np.sort(Exponential().sample(n, derive_rng(seed, "pp-null", n, t))))[k]
        for t in range(trials)
    )
    crit = null[math.ceil(0.9 * trials) - 1]
    alt = Alternative("weibull", 1.7)
    hits = sum(
        _pair_count_loop(np.sort(alt.sample(n, derive_rng(seed, "pp-alt", alt.cache_key(), n, r))))[k]
        >= crit
        for r in range(reps)
    )
    clear_caches()
    row = pp_power("weibull", 1.7, n, side=side, replications=reps, mc_trials=trials,
                   base_seed=seed)
    assert row.rate == hits / reps
