"""Property tests of the weights, the L-estimates, the statistic's
reductions and invariances, the pair counts and the add-one p-value."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cxorder import (
    Exponential,
    Logistic,
    NegExponential,
    TestSpec,
    Uniform,
    ingest,
    l_estimate,
    normalized_spacings,
    os_weights,
    p_value,
    statistic,
)
from cxorder import _cache
from cxorder._seeds import _cached_draws
from cxorder.baselines import _pair_counts
from cxorder.order_stats import Sample
from cxorder.testing import Side, _gap_matrix, batch_statistics

EPS = np.finfo(float).eps
REFS = [Exponential(), Logistic(), NegExponential(), Uniform()]
P_NORMS = [1.0, 2.0, math.inf]

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)


@pytest.fixture(autouse=True, scope="module")
def _drop_tables():
    yield
    _cache.clear_caches()


@st.composite
def tables(draw):
    """A cached null table with a reference, m and a set of ranks."""
    ref = draw(st.sampled_from(REFS))
    n = draw(st.integers(1, 40))
    m = draw(st.integers(1, 8))
    indices = tuple(sorted(draw(st.sets(st.integers(1, m), min_size=1))))
    rows = _cached_draws(ref, n, draw(st.integers(1, 150)), draw(st.integers(0, 2**31)), "null")
    return rows, ref, m, indices


@SETTINGS
@given(tables())
def test_cached_reductions_equal_uncached_bit_for_bit(table):
    rows, ref, m, indices = table
    for p in P_NORMS:
        cached = batch_statistics(rows, ref, m, indices, p)
        fresh = batch_statistics(rows.copy(), ref, m, indices, p)
        assert [a.tobytes() for a in cached] == [a.tobytes() for a in fresh]
    assert ("gaps", _cache.source(rows), ref.identity(), m, indices) in _cache._entries


@SETTINGS
@given(tables())
def test_upper_minus_lower_is_the_gap_sum_at_p_1(table):
    rows, ref, m, indices = table
    t_plus, t_minus = batch_statistics(rows, ref, m, indices, 1.0)
    k = len(indices)
    # Each side sums k terms of magnitude below 1.
    np.testing.assert_allclose(t_plus - t_minus, _gap_matrix(rows, ref, m, indices).sum(axis=1),
                               rtol=0, atol=2 * k * k * EPS)


@SETTINGS
@given(tables(), st.sampled_from(P_NORMS))
def test_statistics_lie_between_0_and_the_rank_count_root(table, p):
    rows, ref, m, indices = table
    k = len(indices)
    bound = k ** (1.0 / p) * (1 + 4 * k * EPS)
    for t in batch_statistics(rows, ref, m, indices, p):
        assert np.all(t >= 0.0)
        assert np.all(t <= bound)


@SETTINGS
@given(st.lists(st.integers(0, 5), min_size=1, max_size=40))
def test_pair_counts_partition_all_pairs(values):
    d = np.asarray(values, dtype=float)
    k = d.size
    ihr, dhr = _pair_counts(d)
    tied = sum(d[i] == d[j] for i in range(k) for j in range(i + 1, k))
    assert ihr + dhr + tied == k * (k - 1) // 2


@st.composite
def ranks(draw, max_n=1000, max_m=150):
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(1, max_m))
    return n, draw(st.integers(1, m)), m


@SETTINGS
@given(ranks())
def test_weights_are_nonnegative_and_sum_to_one(njm):
    w = os_weights(*njm)
    assert np.all(w >= 0.0)
    assert abs(w.sum() - 1.0) <= 1e-14


@SETTINGS
@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=60), st.integers(1, 30))
def test_l_estimates_are_non_decreasing_in_j(values, m):
    x = np.sort(np.asarray(values))
    s = Sample(values=x, tie_flag=False)
    mus = np.array([l_estimate(s, j, m) for j in range(1, m + 1)])
    # Each estimate is a dot product of n nonnegative weights with x.
    tol = 2 * (x.size + 1) * EPS * np.abs(x).max()
    assert np.all(np.diff(mus) >= -tol)


@st.composite
def samples(draw, min_n=2):
    """A continuous sample of exponential or logistic shape."""
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    n = draw(st.integers(min_n, 80))
    if draw(st.booleans()):
        return rng.standard_exponential(n)
    return rng.logistic(size=n)


@SETTINGS
@given(samples(), st.floats(0.25, 8.0), st.floats(-10.0, 10.0))
def test_statistic_is_affine_invariant(x, a, b):
    s, t = ingest(x), ingest(a * x + b)
    m = max(1, x.size // 5)
    # The bounds do not depend on the sample, so closed-form references do.
    for ref in (Exponential(), NegExponential()):
        for side in (Side.UPPER, Side.LOWER):
            for p in P_NORMS:
                spec = TestSpec(ref, m=m, p_norm=p, side=side)
                assert abs(statistic(s, spec)[0] - statistic(t, spec)[0]) <= 1e-12


@SETTINGS
@given(samples(min_n=3), st.integers(-20, 20))
def test_pp_counts_are_equal_under_a_power_of_two_scale(x, k):
    # Scaling by 2**k is exact, so every spacing keeps its order.
    d = normalized_spacings(ingest(x))
    scaled = normalized_spacings(ingest(x * 2.0**k))
    assert _pair_counts(scaled) == _pair_counts(d)


@SETTINGS
@given(st.integers(1, 20), st.integers(100, 300), st.integers(0, 2**31),
       st.sampled_from([Side.UPPER, Side.LOWER]), st.floats(0.0, 2.0))
def test_add_one_p_value_is_a_multiple_of_one_over_t_plus_one(n, trials, seed, side, t_obs):
    spec = TestSpec(Exponential(), m=3, side=side, mc_trials=trials, seed=seed)
    pv = p_value(spec, t_obs, n)
    assert 1.0 / (trials + 1) <= pv <= 1.0
    k = pv * (trials + 1)
    assert abs(k - round(k)) <= 1e-9
