"""Test statistics, index selection, Monte Carlo calibration, and the full
test procedure."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import kstest

from cxorder import (
    Cauchy,
    Custom,
    Exponential,
    InfeasibleSpecError,
    LogLogistic,
    Side,
    TailInfo,
    TestResult,
    TestSpec,
    Uniform,
    critical_value,
    default_m,
    ingest,
    p_value,
    run_test,
    select_indices,
    statistic,
)
from cxorder import testing as testing_mod
from cxorder.testing import null_statistics


def test_default_m_is_fifteen_percent_rounded_up():
    assert default_m(1) == 1
    assert default_m(25) == 4
    assert default_m(50) == 8
    assert default_m(100) == 15
    assert default_m(200) == 30


# --------------------------------------------------------- select_indices

def test_select_indices_right_tail_binding_takes_low_ranks():
    got = select_indices(LogLogistic(1.0), 5, 3, assumed_tails=TailInfo(1.0, math.inf))
    assert got == (1, 2, 3)


def test_select_indices_cauchy_keeps_the_middle():
    assert select_indices(Cauchy(), 3, 1) == (2,)


def test_select_indices_unconstrained_returns_all():
    assert select_indices(Exponential(), 5, 5) == (1, 2, 3, 4, 5)


def test_select_indices_heavy_assumed_tail():
    got = select_indices(
        LogLogistic(1.0), 25, 5, assumed_tails=TailInfo(0.1, math.inf)
    )
    assert len(got) == 5
    assert all(j <= 15 for j in got)


def test_select_indices_rule_override():
    tails = TailInfo(1.0, math.inf)
    assert select_indices(LogLogistic(1.0), 5, 3, tails, rule="high") == (2, 3, 4)
    assert select_indices(LogLogistic(1.0), 5, 3, tails, rule="central") == (1, 2, 3)
    with pytest.raises(ValueError):
        select_indices(LogLogistic(1.0), 5, 3, tails, rule="sideways")


def test_select_indices_errors():
    with pytest.raises(ValueError):
        select_indices(Exponential(), 5, 0)
    with pytest.raises(ValueError):
        select_indices(Exponential(), 5, 6)
    # Cauchy with m = 2 leaves no convergent rank at all
    with pytest.raises(InfeasibleSpecError):
        select_indices(Cauchy(), 2, 1)


# --------------------------------------------------------------- TestSpec

def test_spec_validation():
    with pytest.raises(ValueError):
        TestSpec(ref=Exponential(), m=0)
    with pytest.raises(ValueError):
        TestSpec(ref=Exponential(), p_norm=0.5)
    with pytest.raises(ValueError):
        TestSpec(ref=Exponential(), sig_level=1.0)
    with pytest.raises(ValueError):
        TestSpec(ref=Exponential(), mc_trials=99)
    with pytest.raises(ValueError):
        TestSpec(ref=Exponential(), indices=(1, 2), ell=2)
    spec = TestSpec(ref=Exponential(), side="lower")
    assert spec.side is Side.LOWER


def test_resolve_defaults_m_and_all_ranks():
    rs = TestSpec(ref=Exponential()).resolve(40)
    assert rs.m == default_m(40) == 6
    assert rs.indices == (1, 2, 3, 4, 5, 6)


def test_resolve_validates_explicit_indices():
    spec = TestSpec(ref=Exponential(), m=4, indices=(2, 2, 3))
    with pytest.raises(ValueError):
        spec.resolve(20)
    with pytest.raises(ValueError):
        TestSpec(ref=Exponential(), m=4, indices=(0, 1)).resolve(20)
    with pytest.raises(ValueError):
        TestSpec(ref=Exponential(), m=4, indices=()).resolve(20)
    with pytest.raises(InfeasibleSpecError):
        TestSpec(ref=Cauchy(), m=1, indices=(1,)).resolve(20)
    rs = TestSpec(ref=Exponential(), m=4, indices=(1, 3)).resolve(20)
    assert rs.indices == (1, 3)


def test_resolve_routes_ell_through_selection():
    spec = TestSpec(
        ref=LogLogistic(1.0), m=5, ell=3, assumed_tails=TailInfo(1.0, math.inf)
    )
    assert spec.resolve(30).indices == (1, 2, 3)


@pytest.mark.parametrize("spec", [
    TestSpec(ref=Exponential(), mc_trials=200),
    TestSpec(ref=Exponential(), m=4, indices=(1, 3), mc_trials=200),
    TestSpec(ref=LogLogistic(1.0), m=5, ell=3, assumed_tails=TailInfo(1.0, math.inf),
             mc_trials=200),
    TestSpec(ref=Cauchy(), m=9, ell=4, index_rule="low", mc_trials=200),
])
def test_resolve_pins_a_spec_that_resolves_to_itself(spec):
    pinned = spec.resolve(30)
    assert isinstance(pinned, TestSpec)
    assert pinned.m is not None and pinned.ell is None
    assert pinned.resolve(30) == pinned
    assert critical_value(pinned, 30) == critical_value(spec, 30)


# -------------------------------------------------------------- statistic

def test_statistic_two_point_uniform_example():
    s = ingest([0.0, 1.0])
    up, diags = statistic(s, TestSpec(ref=Uniform(), m=1, p_norm=1.0, side="upper"))
    lo, _ = statistic(s, TestSpec(ref=Uniform(), m=1, p_norm=1.0, side="lower"))
    assert up == pytest.approx(0.0, abs=1e-14)
    assert lo == pytest.approx(0.25, abs=1e-14)
    (d,) = diags
    assert d.j == 1
    assert d.pi == pytest.approx(0.5, abs=1e-14)
    assert d.mu_hat == pytest.approx(0.5, abs=1e-14)
    assert d.ecdf_at_mu == pytest.approx(0.75, abs=1e-14)
    assert d.gap == pytest.approx(-0.25, abs=1e-14)


def test_statistic_rejects_two_sided_spec():
    with pytest.raises(ValueError):
        statistic(ingest([0.0, 1.0]), TestSpec(ref=Uniform(), m=1, side="both"))


def test_statistic_lower_vanishes_when_gaps_nonnegative():
    # Evenly spaced data has a sharply increasing hazard rate relative to
    # the exponential, which makes every gap positive.
    s = ingest(np.linspace(0.0, 1.0, 20))
    lo, diags = statistic(s, TestSpec(ref=Exponential(), m=3, side="lower"))
    assert all(d.gap > 0.0 for d in diags)
    assert lo == 0.0


def test_norm_identities_against_diagnostics():
    rng = np.random.default_rng(4)
    s = ingest(rng.exponential(size=60))
    base = dict(ref=Exponential(), m=6, side="upper")
    t1, diags = statistic(s, TestSpec(p_norm=1.0, **base))
    t2, _ = statistic(s, TestSpec(p_norm=2.0, **base))
    tinf, _ = statistic(s, TestSpec(p_norm=math.inf, **base))
    pos = np.array([max(d.gap, 0.0) for d in diags])
    assert t1 == pytest.approx(pos.sum(), abs=1e-12)
    assert t2 == pytest.approx(math.sqrt(float((pos**2).sum())), abs=1e-12)
    assert tinf == pytest.approx(pos.max(), abs=1e-12)


def test_p1_statistics_differ_by_sum_of_gaps():
    rng = np.random.default_rng(44)
    for _ in range(20):
        s = ingest(rng.exponential(size=int(rng.integers(5, 80))))
        up, diags = statistic(s, TestSpec(ref=Exponential(), m=5, side="upper"))
        lo, _ = statistic(s, TestSpec(ref=Exponential(), m=5, side="lower"))
        gap_sum = math.fsum(d.gap for d in diags)
        assert up - lo == pytest.approx(gap_sum, abs=1e-12)


def test_statistic_location_scale_invariant():
    rng = np.random.default_rng(17)
    x = rng.weibull(1.4, size=50)
    for side in ("upper", "lower"):
        spec = TestSpec(ref=Exponential(), m=4, p_norm=2.0, side=side)
        t0, _ = statistic(ingest(x), spec)
        t1, _ = statistic(ingest(3.7 * x + 11.0), spec)
        assert t1 == pytest.approx(t0, abs=1e-10)


# ------------------------------------------------- critical values and p

def test_critical_value_deterministic_and_side_specific():
    spec = TestSpec(ref=Exponential(), m=3, mc_trials=500, seed=12)
    c_up = critical_value(spec, 30)
    assert critical_value(spec, 30) == c_up
    c_lo = critical_value(replace(spec, side=Side.LOWER), 30)
    assert c_up != c_lo
    with pytest.raises(ValueError):
        critical_value(replace(spec, side=Side.BOTH), 30)


def test_critical_value_saturates_to_minimum_statistic():
    spec = TestSpec(ref=Exponential(), m=3, mc_trials=500, seed=12, sig_level=0.9999)
    rs = spec.resolve(30)
    nulls, _ = null_statistics(
        rs.ref, 30, rs.m, rs.indices, rs.p_norm, rs.mc_trials, rs.seed
    )
    assert critical_value(spec, 30) == float(nulls[0])


def test_critical_values_across_seeds_agree_within_mc_error():
    trials = 10_000
    base = TestSpec(ref=Exponential(), m=5, mc_trials=trials)
    c1 = critical_value(replace(base, seed=101), 50)
    c2 = critical_value(replace(base, seed=202), 50)
    nulls, _ = null_statistics(Exponential(), 50, 5, (1, 2, 3, 4, 5), 1.0, trials, 101)
    rank = math.ceil(0.9 * trials) - 1
    rng = np.random.default_rng(0)
    boots = np.sort(rng.choice(nulls, size=(300, trials), replace=True), axis=1)
    se = float(np.std(boots[:, rank]))
    assert abs(c1 - c2) <= 3.0 * math.sqrt(2.0) * se


def test_p_value_edge_cases():
    spec = TestSpec(ref=Exponential(), m=3, mc_trials=500, seed=1)
    assert p_value(spec, 0.0, 25) == 1.0
    rs = spec.resolve(25)
    nulls, _ = null_statistics(rs.ref, 25, rs.m, rs.indices, rs.p_norm, 500, 1)
    assert p_value(spec, float(nulls[-1]) + 1.0, 25) == pytest.approx(1.0 / 501.0)
    with pytest.raises(ValueError):
        p_value(spec, -0.5, 25)


def test_p_values_roughly_uniform_under_null():
    # m large enough that the point mass of the statistic at zero (which
    # maps to p-values of exactly one) is negligible.
    spec = TestSpec(ref=Exponential(), m=8, mc_trials=2000, seed=900)
    rng = np.random.default_rng(901)
    pvals = []
    for _ in range(500):
        s = ingest(rng.exponential(size=100))
        t, _ = statistic(s, spec)
        pvals.append(p_value(spec, t, 100))
    stat = kstest(np.asarray(pvals), "uniform").statistic
    assert stat <= 1.63 / math.sqrt(500.0)  # 1 percent KS bound


def test_p_values_calibrated_despite_atom_at_zero():
    # With small m the null statistic has an atom at zero, so the p-value
    # puts matching mass on 1.0. Calibration must still hold where it
    # matters: P(p <= a) close to a on the rejection range.
    spec = TestSpec(ref=Exponential(), m=3, mc_trials=2000, seed=950)
    rng = np.random.default_rng(951)
    pvals = np.array([
        p_value(spec, statistic(ingest(rng.exponential(size=40)), spec)[0], 40)
        for _ in range(500)
    ])
    for a in (0.02, 0.05, 0.1, 0.2, 0.5):
        hit = float(np.mean(pvals <= a))
        bound = 3.0 * math.sqrt(a * (1.0 - a) / 500.0) + 1.0 / 2001.0
        assert abs(hit - a) <= bound, (a, hit)


# --------------------------------------------------------------- run_test

def test_run_test_single_side_contract():
    rng = np.random.default_rng(2)
    s = ingest(rng.weibull(2.0, size=80))
    spec = TestSpec(ref=Exponential(), m=5, mc_trials=400, seed=3, side="upper")
    res = run_test(s, spec)
    assert isinstance(res, TestResult)
    assert res.side == "upper"
    assert res.n == 80
    assert res.reject == (res.statistic >= res.critical_value)
    assert 0.0 < res.p_value <= 1.0
    assert len(res.per_index) == 5
    for key in ("g", "m", "p", "side", "alpha", "trials", "seed"):
        assert key in res.config
    assert res.config["g"] == "exponential"


def test_run_test_both_returns_upper_lower_pair():
    rng = np.random.default_rng(23)
    s = ingest(rng.exponential(size=40))
    spec = TestSpec(ref=Exponential(), m=4, mc_trials=400, seed=8, side="both")
    upper, lower = run_test(s, spec)
    assert upper.side == "upper" and lower.side == "lower"
    single = run_test(s, replace(spec, side=Side.UPPER))
    assert single.statistic == upper.statistic
    assert single.critical_value == upper.critical_value
    assert single.p_value == upper.p_value


@pytest.mark.parametrize("ref, m, ell", [(Exponential(), 5, None), (Cauchy(), 6, 4)])
def test_run_test_agrees_with_critical_value_and_p_value(ref, m, ell):
    rng = np.random.default_rng(41)
    s = ingest(rng.weibull(1.4, size=50))
    spec = TestSpec(ref=ref, m=m, ell=ell, mc_trials=300, seed=9, side="both")
    for res in run_test(s, spec):
        one = replace(spec, side=Side(res.side))
        assert res.critical_value == critical_value(one, s.n)
        assert res.p_value == p_value(one, res.statistic, s.n)
        assert res.reject == (res.statistic >= res.critical_value)


def test_run_test_decision_invariant_under_affine_maps():
    rng = np.random.default_rng(31)
    x = rng.weibull(1.6, size=60)
    spec = TestSpec(ref=Exponential(), m=5, mc_trials=400, seed=77, side="upper")
    a = run_test(ingest(x), spec)
    b = run_test(ingest(0.2 * x + 5.0), spec)
    assert b.statistic == pytest.approx(a.statistic, abs=1e-10)
    assert b.reject == a.reject
    assert b.p_value == a.p_value


def test_null_statistics_sorted_and_readonly():
    t_plus, t_minus = null_statistics(Exponential(), 20, 2, (1, 2), 1.0, 200, 5)
    assert np.all(np.diff(t_plus) >= 0.0)
    assert np.all(np.diff(t_minus) >= 0.0)
    with pytest.raises(ValueError):
        t_plus[0] = -1.0


def test_disk_cache_roundtrip_and_load_path(tmp_path, monkeypatch):
    monkeypatch.setenv(testing_mod.CACHE_DIR_ENV, str(tmp_path))
    testing_mod.clear_caches()
    spec = TestSpec(ref=Exponential(), m=3, mc_trials=300, seed=5)
    c1 = critical_value(spec, 20)
    files = sorted(tmp_path.glob("null-*.npz"))
    assert len(files) == 1

    testing_mod.clear_caches()
    assert critical_value(spec, 20) == c1

    # prove the value really comes from disk: plant a sentinel archive
    with np.load(files[0]) as archive:
        size = archive["tplus"].size
    np.savez(files[0], tplus=np.full(size, 42.0), tminus=np.full(size, 42.0))
    testing_mod.clear_caches()
    assert critical_value(spec, 20) == 42.0

    testing_mod.clear_caches()
    monkeypatch.delenv(testing_mod.CACHE_DIR_ENV)
    assert critical_value(spec, 20) == c1
    testing_mod.clear_caches()


def _unlabeled_customs():
    exp_ref = Custom(
        cdf_fn=lambda x: -np.expm1(-np.maximum(x, 0.0)),
        quantile_fn=lambda p: -np.log1p(-p),
        right_index=math.inf,
        left_index=math.inf,
        support_lo=0.0,
    )
    logistic_ref = Custom(
        cdf_fn=lambda x: 1.0 / (1.0 + np.exp(-x)),
        quantile_fn=lambda p: np.log(p) - np.log1p(-p),
        right_index=math.inf,
        left_index=math.inf,
    )
    return exp_ref, logistic_ref


def test_unlabeled_customs_do_not_share_null_tables():
    exp_ref, logistic_ref = _unlabeled_customs()
    assert exp_ref.cache_key() == logistic_ref.cache_key() == "custom(custom)"
    assert exp_ref.identity() != logistic_ref.identity()
    specs = [TestSpec(ref=r, m=10, mc_trials=2000, seed=5) for r in (exp_ref, logistic_ref)]
    fresh = []
    for spec in specs:
        testing_mod.clear_caches()
        fresh.append(critical_value(spec, 50))
    assert fresh[0] != fresh[1]
    testing_mod.clear_caches()
    assert [critical_value(spec, 50) for spec in specs] == fresh
    testing_mod.clear_caches()


def test_custom_identity_is_stable_across_equal_handles():
    a, _ = _unlabeled_customs()
    b, _ = _unlabeled_customs()
    assert a.identity() == b.identity()
    assert Exponential().identity() == Exponential().cache_key()


def _spoil_and_reload(tmp_path, monkeypatch, spoil):
    monkeypatch.setenv(testing_mod.CACHE_DIR_ENV, str(tmp_path))
    args = (Exponential(), 20, 3, (1, 2, 3), 1.0, 300, 5)
    testing_mod.clear_caches()
    fresh = tuple(a.copy() for a in null_statistics(*args))
    (path,) = tmp_path.glob("null-*.npz")
    spoil(path)
    testing_mod.clear_caches()
    reloaded = null_statistics(*args)
    assert [a.tobytes() for a in reloaded] == [a.tobytes() for a in fresh]
    # The entry was rewritten whole, with no temporary file left behind.
    assert [p.name for p in tmp_path.iterdir()] == [path.name]
    with np.load(path) as archive:
        assert archive["tplus"].tobytes() == fresh[0].tobytes()
        assert archive["tminus"].tobytes() == fresh[1].tobytes()
    testing_mod.clear_caches()


def test_truncated_disk_entry_is_recomputed(tmp_path, monkeypatch):
    def truncate(path):
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])

    _spoil_and_reload(tmp_path, monkeypatch, truncate)


def test_wrong_shape_disk_entry_is_recomputed(tmp_path, monkeypatch):
    def reshape(path):
        np.savez(path, tplus=np.zeros(7), tminus=np.zeros(7))

    _spoil_and_reload(tmp_path, monkeypatch, reshape)


@pytest.mark.parametrize("bad", [np.nan, -1.0])
def test_non_finite_or_unsorted_disk_entry_is_recomputed(tmp_path, monkeypatch, bad):
    def plant(path):
        with np.load(path) as archive:
            tplus, tminus = archive["tplus"].copy(), archive["tminus"].copy()
        tplus[-1] = bad
        np.savez(path, tplus=tplus, tminus=tminus)

    _spoil_and_reload(tmp_path, monkeypatch, plant)
