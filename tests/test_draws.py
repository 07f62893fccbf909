"""The block draw engine behind every Monte Carlo table, checked bit for bit
against written-out loops over its per-block streams."""

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
from cxorder._cache import clear_caches
from cxorder._seeds import _BLOCK_ROWS, derive_rng
from cxorder.baselines import _pp_null
from cxorder.distributions import Alternative, RefFamily
from _tables import stacked

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


def _per_trial(family, n, count, seed, label):
    # Trial t is row t % _BLOCK_ROWS of block t // _BLOCK_ROWS. A block is
    # one sample of _BLOCK_ROWS * n values from the block's own stream, read
    # row after row; a short last block keeps only its first rows.
    rows = []
    for b in range(math.ceil(count / _BLOCK_ROWS)):
        rng = derive_rng(seed, label, family.cache_key(), n, b)
        values = family.sample(_BLOCK_ROWS * n, rng)
        for r in range(min(_BLOCK_ROWS, count - b * _BLOCK_ROWS)):
            rows.append(np.sort(values[r * n : (r + 1) * n]))
    return np.array(rows).reshape(count, n)


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.cache_key())
# At n = 640 a chunk is one block, so the longer tables span several chunks.
@pytest.mark.parametrize("n", [1, 2, 37, 640])
@pytest.mark.parametrize("count", [3, _BLOCK_ROWS, 2 * _BLOCK_ROWS + 5])
def test_rows_equal_per_trial_streams(family, n, count):
    got = stacked(family, n, count, 11, "label")
    want = _per_trial(family, n, count, 11, "label")
    assert got.shape == (count, n)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.cache_key())
@pytest.mark.parametrize("count", [1, _BLOCK_ROWS, 2 * _BLOCK_ROWS + 5])
def test_one_sample_call_per_block(family, count, monkeypatch):
    calls = []
    for cls in (RefFamily, Alternative):
        def counted(self, n, rng, _sample=cls.sample):
            calls.append(n)
            return _sample(self, n, rng)
        monkeypatch.setattr(cls, "sample", counted)
    stacked(family, 5, count, 3, "label")
    assert calls == [_BLOCK_ROWS * 5] * math.ceil(count / _BLOCK_ROWS)


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.cache_key())
@pytest.mark.parametrize("k", [1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1])
def test_first_rows_are_the_shorter_table(family, k):
    full = stacked(family, 37, 2 * _BLOCK_ROWS + 5, 6, "label")
    assert stacked(family, 37, k, 6, "label").tobytes() == full[:k].tobytes()


REFERENCES = [family for family in FAMILIES if isinstance(family, RefFamily)]


@pytest.mark.parametrize("family", REFERENCES, ids=lambda f: f.cache_key())
@pytest.mark.parametrize("n", [1, 7, 640])
def test_reference_sample_is_the_checked_quantile_of_its_uniforms(family, n):
    for seed in range(20):
        got = family.sample(n, np.random.default_rng(seed))
        want = family.quantile(np.random.default_rng(seed).random(n))
        assert got.tobytes() == want.tobytes(), seed


class _UniformsWithAZero:
    """An rng stub whose uniforms are u, the first of which is 0."""

    def __init__(self, n):
        self.u = np.linspace(0.0, 0.5, n)

    def random(self, n):
        assert n == self.u.size
        return self.u.copy()


@pytest.mark.parametrize("family, end", [(Logistic(), -math.inf), (Exponential(), 0.0)],
                         ids=["logistic", "exponential"])
def test_a_zero_uniform_takes_the_checked_quantile_and_pins_the_support_end(family, end,
                                                                            monkeypatch):
    checked = []

    def quantile(self, p, _quantile=type(family).quantile):
        checked.append(len(p))
        return _quantile(self, p)

    monkeypatch.setattr(type(family), "quantile", quantile)
    rng = _UniformsWithAZero(9)
    got = family.sample(9, rng)
    assert checked == [9]
    assert got[0] == end and np.signbit(got[0]) == (end < 0)
    assert got[1:].tobytes() == family._quantile_arr(rng.u[1:]).tobytes()
    # Uniforms without a zero skip the checks.
    family.sample(9, np.random.default_rng(0))
    assert checked == [9]


def _pair_count_loop(x):
    # Normalized spacings and their strictly ordered pairs, written out.
    n = len(x)
    d = [(n - 1 - i) * (x[i + 1] - x[i]) for i in range(n - 1)]
    ihr = sum(d[i] > d[k] for i in range(len(d)) for k in range(i + 1, len(d)))
    dhr = sum(d[i] < d[k] for i in range(len(d)) for k in range(i + 1, len(d)))
    return ihr, dhr


def _pair_counts_loop(family, n, count, seed, label):
    return [_pair_count_loop(x) for x in _per_trial(family, n, count, seed, label)]


def test_pp_null_equals_per_trial_loop():
    n, trials, seed = 7, 150, 4
    counts = _pair_counts_loop(Exponential(), n, trials, seed, "pp-null")
    clear_caches()
    ihr, dhr = _pp_null(n, trials, seed)
    assert ihr.tolist() == sorted(float(c[0]) for c in counts)
    assert dhr.tolist() == sorted(float(c[1]) for c in counts)


@pytest.mark.parametrize("side", ["ihr", "dhr"])
def test_pp_power_equals_per_trial_loop(side):
    n, reps, trials, seed = 8, 200, 150, 9
    k = 0 if side == "ihr" else 1
    null = sorted(c[k] for c in _pair_counts_loop(Exponential(), n, trials, seed, "pp-null"))
    crit = null[math.ceil(0.9 * trials) - 1]
    alt = Alternative("weibull", 1.7)
    hits = sum(c[k] >= crit for c in _pair_counts_loop(alt, n, reps, seed, "pp-alt"))
    clear_caches()
    row = pp_power("weibull", 1.7, n, side=side, replications=reps, mc_trials=trials,
                   base_seed=seed)
    assert row.rate == hits / reps
