"""Normalized spacings and the pair-count test of exponentiality."""

import math
import tracemalloc

import numpy as np
import pytest

from cxorder import TiesWarning, ingest, normalized_spacings, pp_statistic, pp_test
from cxorder._cache import clear_caches
from cxorder._seeds import DrawTable, _chunk_rows
from cxorder.baselines import _counts, _pair_counts, _pp_table, _spacings
from cxorder.distributions import Alternative, Exponential
from _tables import stacked


def test_spacings_small_samples():
    # (n - i) times the i-th ascending gap
    np.testing.assert_allclose(
        normalized_spacings(ingest([1.0, 2.0, 3.0])), [2.0, 1.0]
    )
    np.testing.assert_allclose(
        normalized_spacings(ingest([0.0, 2.0, 3.0])), [4.0, 1.0]
    )
    with pytest.warns(TiesWarning):
        tied = ingest([5.0, 5.0])
    np.testing.assert_allclose(normalized_spacings(tied), [0.0])


def test_spacings_need_two_points():
    with pytest.raises(ValueError):
        normalized_spacings(ingest([3.0]))


def test_spacings_are_iid_exponential_under_the_null():
    # With exponential data each normalized spacing is standard
    # exponential, so the mean of each coordinate is 1.
    rng = np.random.default_rng(6)
    n, reps = 12, 4000
    acc = np.zeros(n - 1)
    for _ in range(reps):
        acc += normalized_spacings(ingest(rng.exponential(size=n)))
    means = acc / reps
    assert np.max(np.abs(means - 1.0)) <= 4.5 / math.sqrt(reps)


def test_pp_statistic_tiny_cases():
    assert pp_statistic([3.0, 2.0]) == 1
    assert pp_statistic([3.0, 4.0]) == 0
    assert pp_statistic([7.0]) == 0


def test_pp_statistic_range_and_reversal():
    rng = np.random.default_rng(2)
    for _ in range(30):
        k = int(rng.integers(2, 40))
        d = rng.exponential(size=k)
        v = pp_statistic(d)
        pairs = k * (k - 1) // 2
        assert 0 <= v <= pairs
        # distinct values: strict descents forward plus backward fill all pairs
        assert v + pp_statistic(d[::-1]) == pairs


def test_pp_statistic_extremes():
    assert pp_statistic(np.arange(10.0)) == 0
    assert pp_statistic(np.arange(10.0)[::-1]) == 45


def test_pair_counts_match_double_loop_with_ties():
    # Spacings drawn from a few small integers, so most vectors have ties.
    rng = np.random.default_rng(31)
    for k in range(1, 13):
        for _ in range(25):
            d = rng.integers(0, 4, size=k).astype(float)
            ihr = sum(d[i] > d[j] for i in range(k) for j in range(i + 1, k))
            dhr = sum(d[i] < d[j] for i in range(k) for j in range(i + 1, k))
            assert _pair_counts(d) == (ihr, dhr)


def test_pp_statistic_validates_shape():
    with pytest.raises(ValueError):
        pp_statistic(np.empty(0))
    with pytest.raises(ValueError):
        pp_statistic(np.ones((2, 2)))


def test_pp_statistic_rejects_nan_and_orders_infinities():
    with pytest.raises(ValueError, match="NaN"):
        pp_statistic([np.nan, 1.0, 0.5])
    with pytest.raises(ValueError, match="NaN"):
        pp_statistic([0.5, 1.0, np.nan])
    assert pp_statistic([np.inf, 1.0, -np.inf]) == 3
    assert pp_statistic([-np.inf, 1.0, np.inf]) == 0
    assert _pair_counts(np.array([np.inf, np.inf, 1.0])) == (2, 0)


def test_pp_statistic_of_a_long_vector_keeps_no_memory():
    # A k x k comparison at k = 5000 would take 24 MiB per boolean matrix.
    d = np.random.default_rng(12).exponential(size=5000)
    expected = pp_statistic(d)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        assert pp_statistic(d) == expected
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - before < 5 << 20
    assert after - before < 1024


def test_pp_statistic_affine_invariant_through_spacings():
    rng = np.random.default_rng(77)
    x = rng.weibull(1.5, size=25)
    v0 = pp_statistic(normalized_spacings(ingest(x)))
    v1 = pp_statistic(normalized_spacings(ingest(4.0 * x + 3.0)))
    assert v0 == v1


def test_pp_test_contract_and_determinism():
    rng = np.random.default_rng(15)
    s = ingest(rng.exponential(size=30))
    res = pp_test(s, side="ihr", mc_trials=400, seed=9)
    assert res.n == 30
    assert res.side == "ihr"
    assert res.reject == (res.statistic >= res.critical_value)
    assert 0.0 < res.p_value <= 1.0
    assert res.config["test"] == "proschan-pyke"
    again = pp_test(s, side="ihr", mc_trials=400, seed=9)
    assert again.statistic == res.statistic
    assert again.critical_value == res.critical_value
    assert again.p_value == res.p_value


def test_pp_test_sides_count_opposite_inequalities():
    rng = np.random.default_rng(16)
    s = ingest(rng.exponential(size=20))
    ihr = pp_test(s, side="ihr", mc_trials=400, seed=9)
    dhr = pp_test(s, side="dhr", mc_trials=400, seed=9)
    pairs = 19 * 18 // 2
    assert ihr.statistic + dhr.statistic <= pairs
    with pytest.raises(ValueError):
        pp_test(s, side="up")


def test_pp_test_input_validation():
    with pytest.raises(ValueError):
        pp_test(ingest([1.0, 2.0]))
    s = ingest([1.0, 2.0, 4.0])
    with pytest.raises(ValueError):
        pp_test(s, sig_level=0.0)
    with pytest.raises(ValueError):
        pp_test(s, mc_trials=50)
    for bad in (dict(seed=1.7), dict(seed=1.0), dict(mc_trials=200.0)):
        with pytest.raises(ValueError, match=next(iter(bad))):
            pp_test(s, **bad)
    # Numpy integers are plain ints to the test and its record.
    got = pp_test(s, mc_trials=np.int64(200), seed=np.int32(3))
    assert got == pp_test(s, mc_trials=200, seed=3)
    assert type(got.config["seed"]) is int and type(got.config["trials"]) is int


def test_pp_test_detects_increasing_hazard():
    # Weibull shape 2 has a steeply increasing hazard; the ihr side should
    # reject it for a decent sample while exponential data is retained.
    rng = np.random.default_rng(44)
    s = ingest(rng.weibull(2.0, size=60))
    assert pp_test(s, side="ihr", mc_trials=1000, seed=4).reject
    exp_sample = ingest(rng.exponential(size=60))
    res = pp_test(exp_sample, side="ihr", mc_trials=1000, seed=4)
    assert res.p_value > 0.05
    clear_caches()


@pytest.mark.parametrize("label, family", [("pp-null", Exponential()),
                                           ("pp-alt", Alternative("student-t", 1.1))])
@pytest.mark.parametrize("n", [3, 25, 200, 500])
@pytest.mark.parametrize("count", [100, 1000])
def test_streamed_pair_counts_are_the_whole_tables_bytes(label, family, n, count):
    # One chunk at n = 3 and 25; 320-row chunks at n = 200 and 128-row ones
    # at 500, so 1000 rows end in a short chunk and, at 500, a short block.
    assert _chunk_rows(n) == {3: 21824, 25: 2560, 200: 320, 500: 128}[n]
    clear_caches()
    got = _pp_table(DrawTable(family, n, count, 5, label))
    want = _counts([(0, _spacings(stacked(family, n, count, 5, label)))], n - 1, count)
    assert [a.tobytes() for a in got] == [np.sort(a).tobytes() for a in want]
    assert [a.dtype for a in got] == [np.float64] * 2
