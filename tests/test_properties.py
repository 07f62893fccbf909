"""Property tests of the weights, the L-estimates, the statistic's
reductions and invariances, the pair counts of vectors and of tables, and
the add-one p-value."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cxorder import (
    Exponential,
    Logistic,
    NegExponential,
    TestSpec,
    TiesWarning,
    Uniform,
    critical_value,
    ingest,
    l_estimate,
    normalized_spacings,
    os_weights,
    p_value,
    run_test,
    statistic,
)
from cxorder import _cache
from cxorder._seeds import DrawTable
from cxorder.baselines import _counts, _pair_counts
from cxorder.order_stats import Sample
from cxorder.testing import Side, batch_statistics
from _tables import gap_matrix, stacked

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
    """An engine null table with a reference, m and a set of ranks."""
    ref = draw(st.sampled_from(REFS))
    n = draw(st.integers(1, 40))
    m = draw(st.integers(1, 8))
    indices = tuple(sorted(draw(st.sets(st.integers(1, m), min_size=1))))
    table = DrawTable(ref, n, draw(st.integers(1, 150)), draw(st.integers(0, 2**31)), "null")
    return table, ref, m, indices


def _rows(table: DrawTable) -> np.ndarray:
    return stacked(table.family, table.n, table.count, table.seed, table.label)


@SETTINGS
@given(tables())
def test_cached_reductions_equal_uncached_bit_for_bit(table):
    # The engine table is streamed and its gap matrix cached; the same rows
    # drawn whole and passed in are scored afresh.
    table, ref, m, indices = table
    rows = _rows(table)
    for p in P_NORMS:
        cached = batch_statistics(table, ref, m, indices, p)
        fresh = batch_statistics(rows, ref, m, indices, p)
        assert [a.tobytes() for a in cached] == [a.tobytes() for a in fresh]
    assert ("gaps", table.key(), ref.identity(), m, indices) in _cache._entries


@SETTINGS
@given(tables())
def test_upper_minus_lower_is_the_gap_sum_at_p_1(table):
    table, ref, m, indices = table
    rows = _rows(table)
    t_plus, t_minus = batch_statistics(table, ref, m, indices, 1.0)
    k = len(indices)
    # Each side sums k terms of magnitude below 1.
    np.testing.assert_allclose(t_plus - t_minus, gap_matrix(rows, ref, m, indices).sum(axis=1),
                               rtol=0, atol=2 * k * k * EPS)


@SETTINGS
@given(tables(), st.sampled_from(P_NORMS))
def test_statistics_lie_between_0_and_the_rank_count_root(table, p):
    table, ref, m, indices = table
    k = len(indices)
    bound = k ** (1.0 / p) * (1 + 4 * k * EPS)
    for t in batch_statistics(table, ref, m, indices, p):
        assert np.all(t >= 0.0)
        assert np.all(t <= bound)


@st.composite
def scored_tables(draw):
    """A drawn table, as drawn, rounded to 0.1 (so rows have ties) or scaled
    by 1e-310 (so values are subnormal), with a reference and m."""
    ref = draw(st.sampled_from(REFS))
    n = draw(st.integers(1, 80))
    m = draw(st.integers(1, 8))
    rows = stacked(ref, n, draw(st.integers(1, 70)), draw(st.integers(0, 2**31)), "alt")
    form = draw(st.sampled_from(["drawn", "rounded", "subnormal"]))
    rows = {"drawn": rows, "rounded": np.round(rows, 1), "subnormal": rows * 1e-310}[form]
    return np.array(rows), ref, m


def _row_tolerance(row: np.ndarray, weight_mat: np.ndarray) -> float:
    """Bound on |T_batch - T_statistic| at p = 1 for one row scored both ways.

    Both paths take mu_j = sum_i w_ji x_i over the same row scaled so that
    max |x| lies in [1, 2), but the BLAS may sum in another order for one row
    than for a block. Any order lies within gamma_n * s_j of the exact value,
    with s_j = sum_i w_ji |x_i| and gamma_n = n u / (1 - n u), so the two
    differ by delta_j <= 2 gamma_n s_j. The interpolated ECDF is piecewise
    linear, so F(mu_j) moves by at most delta_j times the steepest knot
    interval within 2 delta_j of mu_j, plus 4u of rounding in each of the two
    evaluations. Each side of T then sums k terms below 1: k u more each.
    """
    n, k, u = row.size, len(weight_mat), EPS / 2
    x = np.ldexp(row, 1 - np.frexp(np.abs(row).max())[1])
    last = np.flatnonzero(np.append(x[1:] != x[:-1], True))
    knots_x, knots_y = x[last], (last + 1) / n
    slopes = np.append(np.diff(knots_y) / np.diff(knots_x), 0.0)
    gamma = n * u / (1 - n * u)
    delta = 2 * gamma * (weight_mat @ np.abs(x))
    mus = weight_mat @ x
    steepest = [
        slopes[max(lo - 1, 0) : max(hi, 1)].max()
        for lo, hi in zip(np.searchsorted(knots_x, mus - 2 * delta),
                          np.searchsorted(knots_x, mus + 2 * delta, side="right"))
    ]
    return float(np.sum(delta * steepest) + 8 * k * u + 2 * k * k * u)


@SETTINGS
@given(scored_tables(), st.sampled_from([Side.UPPER, Side.LOWER]))
def test_batch_statistics_score_each_row_as_statistic_does(table, side):
    rows, ref, m = table
    spec = TestSpec(ref, m=m, side=side, mc_trials=200, seed=1)
    rs = spec.resolve(rows.shape[1])
    weight_mat = np.vstack([os_weights(rows.shape[1], j, m) for j in rs.indices])
    t_plus, t_minus = batch_statistics(rows, ref, m, rs.indices, 1.0)
    batch = t_plus if side is Side.UPPER else t_minus
    crit = critical_value(spec, rows.shape[1])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TiesWarning)
        for row, t in zip(rows, batch):
            one = run_test(ingest(row), spec)
            assert abs(one.statistic - t) <= _row_tolerance(row, weight_mat)
            assert one.reject == (t >= crit)


@SETTINGS
@given(st.lists(st.integers(0, 5), min_size=1, max_size=40))
def test_pair_counts_partition_all_pairs(values):
    d = np.asarray(values, dtype=float)
    k = d.size
    ihr, dhr = _pair_counts(d)
    tied = sum(d[i] == d[j] for i in range(k) for j in range(i + 1, k))
    assert ihr + dhr + tied == k * (k - 1) // 2


@st.composite
def tied_tables(draw):
    """A rows x k table of spacings from a few small integers, so most rows
    have ties; some rows are all equal."""
    rows = draw(st.integers(1, 70))
    k = draw(st.integers(1, 70))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    table = rng.integers(0, draw(st.integers(1, 4)), size=(rows, k)).astype(float)
    table[rng.random(rows) < 0.2] = draw(st.integers(0, 3))
    return table


@SETTINGS
@given(tied_tables())
def test_pair_counts_of_a_table_match_the_double_loop_per_row(table):
    k = table.shape[1]
    ihr, dhr = _counts([(0, table.copy())], k, len(table))  # _counts sorts its parts
    for row, got in zip(table, zip(ihr, dhr)):
        want = (sum(row[i] > row[j] for i in range(k) for j in range(i + 1, k)),
                sum(row[i] < row[j] for i in range(k) for j in range(i + 1, k)))
        assert got == want == _pair_counts(row)


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
