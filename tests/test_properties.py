"""Property tests of the statistic's reductions and the pair counts."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cxorder import Exponential, Logistic, NegExponential, Uniform
from cxorder import _cache
from cxorder._seeds import _cached_draws
from cxorder.baselines import _pair_counts
from cxorder.testing import _gap_matrix, batch_statistics

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
