"""Test statistics, index selection, Monte Carlo calibration, and the full
test procedure."""

import itertools
import math
from dataclasses import fields, replace

import numpy as np
import pytest
from scipy.stats import kstest

from cxorder import (
    BoundStatus,
    Cauchy,
    Custom,
    Exponential,
    Frechet,
    IndexDiagnostic,
    InfeasibleSpecError,
    Logistic,
    LogLogistic,
    NegExponential,
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
from cxorder.order_stats import _divergent_ranks, bound_status
from cxorder.testing import batch_statistics, null_statistics


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


def _old_select_indices(ref, m, ell, assumed_tails=None, rule=None):
    """select_indices as it was: its own inequalities with a 1e-9 fuzz."""
    if not 1 <= ell <= m:
        raise ValueError(f"require 1 <= ell <= m, got ell={ell}, m={m}")
    alpha, beta = ref.tail_info().right_index, ref.tail_info().left_index
    if assumed_tails is not None:
        alpha = min(alpha, assumed_tails.right_index)
        beta = min(beta, assumed_tails.left_index)
    inv_alpha = 0.0 if math.isinf(alpha) else 1.0 / alpha
    inv_beta = 0.0 if math.isinf(beta) else 1.0 / beta
    eligible = [j for j in range(1, m + 1) if inv_beta + 1e-9 < j < m + 1 - inv_alpha - 1e-9]
    if len(eligible) < ell:
        raise InfeasibleSpecError(
            f"only {len(eligible)} eligible ranks for m={m} under "
            f"{ref.cache_key()} with tails (alpha={alpha}, beta={beta}); need ell={ell}"
        )
    if rule is None:
        rule = {(True, False): "low", (False, True): "high"}.get((alpha <= 1.0, beta <= 1.0),
                                                                   "central")
    start = {"low": 0, "high": len(eligible) - ell, "central": (len(eligible) - ell) // 2}[rule]
    return tuple(eligible[start : start + ell])


def _in_fuzz_window(index):
    """1/index lies within 1e-9 below an integer, but more than 1e-12 below it."""
    inv = 1.0 / index
    return 1e-12 < math.ceil(inv) - inv < 1e-9


# Indices per side: light, heavy, near and on the integers 1/k, and inside the
# window between the two old tolerances, where 1/index is 5e-10 below k.
_RULE_INDICES = (math.inf, 0.25, 0.4, 0.7, 1.0, 1.5, 3.0, 1e-310, 1 / (2 + 5e-10),
                 1 / (2 - 5e-13), 1 / (1 - 5e-10), 1 / (2 - 5e-10), 1 / (3 - 5e-10),
                 1 / (4 - 8e-10), 1 / (5 - 2e-10), 1 / (3 - 2e-12))


def _select_outcome(select, *args, **kwargs):
    try:
        return select(*args, **kwargs)
    except ValueError as err:
        return type(err), str(err)


def test_select_indices_is_the_one_rank_rule():
    """Eligible ranks are range(left_max + 1, right_min) of _divergent_ranks on
    the combined tails, every one with a finite bound; the old fuzzed rule
    agrees everywhere outside its 1e-9/1e-12 window."""
    refs = [Exponential(), LogLogistic(1.5), Frechet(0.7), Cauchy()]
    cases = differ = 0
    for ref in refs:
        own = ref.tail_info()
        for m in range(1, 41):
            finite = {j for j in range(1, m + 1) if bound_status(ref, j, m) is BoundStatus.FINITE}
            for right, left in itertools.product(_RULE_INDICES, repeat=2):
                assumed = TailInfo(right, left)
                tails = TailInfo(min(own.right_index, right), min(own.left_index, left))
                left_max, right_min = _divergent_ranks(tails, m)
                eligible = tuple(range(left_max + 1, right_min))
                if eligible:
                    got = select_indices(ref, m, len(eligible), assumed, rule="low")
                    assert got == eligible, (ref, m, assumed)
                    assert finite.issuperset(got), (ref, m, assumed)
                else:
                    with pytest.raises(InfeasibleSpecError):
                        select_indices(ref, m, 1, assumed)
                ell = max(1, (len(eligible) + 1) // 2)
                for args in ((ref, m, max(1, len(eligible)), assumed, "low"),
                             (ref, m, ell, assumed)):
                    new = _select_outcome(select_indices, *args)
                    cases += 1
                    if new != _select_outcome(_old_select_indices, *args):
                        differ += 1
                        assert _in_fuzz_window(tails.right_index) or \
                            _in_fuzz_window(tails.left_index), args
    assert cases == 4 * 40 * 16 * 16 * 2
    assert differ > 100


def test_select_indices_admits_a_rank_inside_the_old_fuzz_window():
    # 1/beta = 3 - 5e-10: rank 3 integrates p^(-1 + 5e-10) on the left, a
    # convergent expectation, so it is eligible, as bound_status says.
    tails = TailInfo(math.inf, 1 / (3 - 5e-10))
    assert select_indices(Exponential(), 10, 2, tails, rule="low") == (3, 4)
    custom = Custom(cdf_fn=Exponential().cdf, quantile_fn=Exponential().quantile,
                    right_index=tails.right_index, left_index=tails.left_index, label="window")
    assert bound_status(custom, 3, 10) is BoundStatus.FINITE
    assert bound_status(custom, 2, 10) is BoundStatus.TRIVIALLY_ZERO


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


@pytest.mark.parametrize("field, value", [("seed", 1.7), ("seed", 1.0), ("m", 5.0),
                                          ("mc_trials", 200.0), ("seed", "1")])
def test_spec_refuses_a_non_integral_seed_or_count(field, value):
    # A float seed used to draw int(seed)'s tables while the record echoed the
    # float; a float count failed deep inside numpy.
    args = dict(ref=Exponential(), m=5, mc_trials=200, seed=1)
    with pytest.raises(ValueError, match=field):
        TestSpec(**{**args, field: value})


def test_spec_takes_numpy_integers_as_ints():
    sample = ingest(np.random.default_rng(4).exponential(size=30))
    plain = TestSpec(ref=Exponential(), m=5, mc_trials=200, seed=1)
    spec = TestSpec(ref=Exponential(), m=np.int64(5), mc_trials=np.int32(200), seed=np.uint8(1))
    assert [type(getattr(spec, f)) for f in ("m", "mc_trials", "seed")] == [int] * 3
    assert spec == plain
    assert run_test(sample, spec) == run_test(sample, plain)


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


def test_unknown_index_rule_is_rejected_without_ell():
    with pytest.raises(ValueError, match="index rule"):
        TestSpec(ref=Exponential(), m=5, index_rule="bogus")


@pytest.mark.parametrize("extra", [
    dict(assumed_tails=TailInfo(0.5, math.inf)),
    dict(index_rule="low"),
    dict(assumed_tails=TailInfo(0.5, math.inf), indices=(1, 2)),
], ids=["assumed-tails", "index-rule", "with-indices"])
def test_rank_choice_settings_without_ell_are_rejected(extra):
    # assumed_tails and index_rule only steer the selection that ell asks for.
    spec = TestSpec(ref=LogLogistic(1.0), m=5, mc_trials=200, **extra)
    with pytest.raises(ValueError, match="give ell"):
        spec.resolve(30)
    with pytest.raises(ValueError, match="give ell"):
        run_test(ingest(np.arange(1.0, 31.0)), spec)
    assert replace(spec, indices=None, ell=2).resolve(30).ell is None


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
    assert pinned.resolve(30) is pinned
    assert pinned.resolve(7) is pinned
    assert critical_value(pinned, 30) == critical_value(spec, 30)


def test_warm_run_test_validates_no_spec(monkeypatch):
    spec = TestSpec(ref=Logistic(), m=30, side=Side.BOTH, mc_trials=200, seed=4)
    sample = ingest(np.random.default_rng(8).logistic(size=200))
    one_side = replace(spec, side=Side.UPPER)
    run_test(sample, spec)
    calls = []
    post_init = TestSpec.__post_init__
    monkeypatch.setattr(TestSpec, "__post_init__",
                        lambda self: calls.append(self) or post_init(self))
    upper, lower = run_test(sample, spec)
    assert statistic(sample, one_side)[0] == upper.statistic
    assert critical_value(one_side, 200) == upper.critical_value
    assert calls == []


@pytest.mark.parametrize("spec, n, error, message", [
    (TestSpec(Exponential(), m=4, indices=()), 20, ValueError, "indices must be non-empty"),
    (TestSpec(Exponential(), m=4, indices=(0, 1)), 20, ValueError,
     "indices must lie in 1..4, got (0, 1)"),
    (TestSpec(Exponential(), m=4, indices=(2, 5)), 20, ValueError,
     "indices must lie in 1..4, got (2, 5)"),
    (TestSpec(Exponential(), m=4, indices=(3, 2, 9)), 20, ValueError,
     "indices must lie in 1..4, got (3, 2, 9)"),
    (TestSpec(Exponential(), m=4, indices=(2, 2, 3)), 20, ValueError,
     "indices must be strictly increasing, got (2, 2, 3)"),
    (TestSpec(Exponential(), m=4, indices=(3, 1)), 20, ValueError,
     "indices must be strictly increasing, got (3, 1)"),
    pytest.param(TestSpec(Exponential(), m=4, indices=(1, 2)), 0, ValueError,
                 "n must be at least 1", id="spec6-0-ValueError-n below 1"),
    (TestSpec(Exponential(), index_rule="low"), 20, ValueError,
     "assumed_tails and index_rule choose ranks under ell; give ell"),
    (TestSpec(Cauchy(), m=1, indices=(1,)), 20, InfeasibleSpecError,
     "exceedance bound undefined at j=1, m=1 under cauchy()"),
    (TestSpec(Cauchy(), m=1), 20, InfeasibleSpecError,
     "exceedance bound undefined at j=1, m=1 under cauchy(); pass ell to restrict the ranks"),
    (TestSpec(Cauchy(), m=9, ell=9), 20, InfeasibleSpecError,
     "only 7 eligible ranks for m=9 under cauchy() with tails (alpha=1.0, beta=1.0); "
     "need ell=9"),
])
def test_resolve_errors_keep_type_and_message(spec, n, error, message):
    with pytest.raises(error) as info:
        spec.resolve(n)
    assert type(info.value) is error and str(info.value) == message


def _old_bound_status(ref, j, m):
    """bound_status as it was, one tail_info() and one fuzzed compare per rank."""
    tails = ref.tail_info()
    inv_right = 0.0 if math.isinf(tails.right_index) else 1.0 / tails.right_index
    inv_left = 0.0 if math.isinf(tails.left_index) else 1.0 / tails.left_index
    right_div = (m - j + 1) <= inv_right + 1e-12
    left_div = j <= inv_left + 1e-12
    if right_div and left_div:
        return BoundStatus.UNDEFINED
    if right_div or left_div:
        return BoundStatus.TRIVIALLY_ONE if right_div else BoundStatus.TRIVIALLY_ZERO
    return BoundStatus.FINITE


def _old_resolve(spec, n):
    """TestSpec.resolve (for a spec with m set) as it was: the per-rank
    bound_status loop."""
    m = spec.m
    if spec.indices is not None:
        idx = spec.indices
    elif spec.ell is not None:
        idx = select_indices(spec.ref, m, spec.ell, spec.assumed_tails, spec.index_rule)
    else:
        idx = tuple(range(1, m + 1))
    for j in idx:
        if _old_bound_status(spec.ref, j, m) is BoundStatus.UNDEFINED:
            hint = "; pass ell to restrict the ranks" if spec.indices is None else ""
            raise InfeasibleSpecError(
                f"exceedance bound undefined at j={j}, m={m} under "
                f"{spec.ref.cache_key()}{hint}"
            )
    return replace(spec, m=m, indices=idx, ell=None, assumed_tails=None, index_rule=None)


def _outcome(resolve, spec):
    try:
        pinned = resolve(spec, 50)
    except ValueError as err:
        return type(err), str(err)
    # Field for field, with the type of each value, not only ==.
    return tuple((f.name, type(getattr(pinned, f.name)), getattr(pinned, f.name))
                 for f in fields(TestSpec))


def _declared_tail_customs():
    # The Cauchy handles under declared tails: heavy on both sides, with
    # 1/alpha short of 2 by less than the 1e-12 fuzz, 1/beta short of 3 by
    # more, and subnormal indices whose inverses are infinite.
    cauchy = Cauchy()
    tails = ((1.0, 1.0), (0.3, 0.45), (1 / (2 - 5e-13), 1 / (3 - 2e-12)),
             (1e-310, 0.2), (0.2, 1e-310), (0.5, math.inf))
    return [Custom(cdf_fn=cauchy.cdf, quantile_fn=cauchy.quantile, right_index=right,
                   left_index=left, label=f"cauchy{right, left}")
            for right, left in tails]


def test_one_rank_check_matches_the_per_rank_loop():
    refs = [Uniform(), Exponential(), NegExponential(), Logistic(), LogLogistic(0.5),
            LogLogistic(1.5), Frechet(0.7), Frechet(2.0), Cauchy(), *_declared_tail_customs()]
    undefined = 0
    for ref in refs:
        for m in range(1, 41):
            specs = [TestSpec(ref, m=m), TestSpec(ref, m=m, indices=(m,)),
                     TestSpec(ref, m=m, indices=tuple(range(1, m + 1, 3))),
                     TestSpec(ref, m=m, ell=1), TestSpec(ref, m=m, ell=(m + 1) // 2),
                     TestSpec(ref, m=m, ell=1, index_rule="high")]
            for spec in specs:
                want = _outcome(_old_resolve, spec)
                assert _outcome(TestSpec.resolve, spec) == want, (ref, spec)
                undefined += isinstance(want, tuple) and want[0] is InfeasibleSpecError
            for j in range(1, m + 1):
                assert bound_status(ref, j, m) is _old_bound_status(ref, j, m), (ref, j, m)
    assert undefined > 100


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


def test_p_value_needs_one_side():
    spec = TestSpec(ref=Exponential(), m=3, side=Side.BOTH, mc_trials=500, seed=1)
    with pytest.raises(ValueError) as info:
        p_value(spec, 0.5, 25)
    assert type(info.value) is ValueError
    assert str(info.value) == "p_value needs side upper or lower"


def test_p_value_by_search_counts_as_the_full_compare():
    rng = np.random.default_rng(12)
    atom = np.sort(np.concatenate([np.zeros(40), rng.exponential(size=60)]))
    tied = np.sort(np.repeat(rng.random(20).round(2) + 0.5, 5))
    for null in (atom, tied):
        values = np.unique(null)
        # Every tie, the midpoints between, below the minimum, above the maximum.
        for t_obs in (*values, *(values[1:] + values[:-1]) / 2, values[0] / 2, 0.0,
                      np.nextafter(values[-1], np.inf), values[-1] + 1.0):
            t_obs = float(t_obs)
            want = (1 + int(np.count_nonzero(null >= t_obs))) / (len(null) + 1)
            assert testing_mod._p_value(null, t_obs) == want, t_obs
    assert testing_mod._p_value(atom, 0.0) == 1.0
    assert testing_mod._p_value(tied, 1e9) == 1 / 101


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


def test_index_diagnostic_is_an_immutable_named_tuple():
    assert IndexDiagnostic._fields == ("j", "pi", "mu_hat", "ecdf_at_mu", "gap")
    d = IndexDiagnostic(3, 0.25, 1.5, 0.2, 0.05)
    assert (d.j, d.pi, d.mu_hat, d.ecdf_at_mu, d.gap) == (3, 0.25, 1.5, 0.2, 0.05)
    assert repr(d) == "IndexDiagnostic(j=3, pi=0.25, mu_hat=1.5, ecdf_at_mu=0.2, gap=0.05)"
    with pytest.raises(AttributeError):
        d.gap = 0.0
    res = run_test(ingest(np.random.default_rng(4).exponential(size=30)),
                   TestSpec(ref=Exponential(), m=4, mc_trials=200, seed=1))
    assert [type(d) for d in res.per_index] == [IndexDiagnostic] * 4
    for d in res.per_index:
        assert d.gap == d.pi - d.ecdf_at_mu


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


def test_run_test_is_exact_under_extreme_and_subnormal_scales():
    x = np.random.default_rng(5).weibull(1.3, size=60)
    spec = TestSpec(ref=Exponential(), m=9, mc_trials=500, seed=1, side="both")

    def outcome(results):
        return [(r.statistic, r.p_value, r.reject) for r in results]

    base = run_test(ingest(x), spec)
    want = outcome(base)
    assert want[0][1:] == (1 / 501, True)
    # Powers of two rescale normal floats exactly, so every byte agrees.
    for k in (-1000, 1000):
        scaled = run_test(ingest(np.ldexp(x, k)), spec)
        assert outcome(scaled) == want
        assert ([d.mu_hat for d in scaled[0].per_index]
                == [math.ldexp(d.mu_hat, k) for d in base[0].per_index])
    # A subnormal sample has lost low bits to rounding, so it is compared
    # with its own exact rescaling into the normal range, and with x.
    tiny = x * 1e-310
    got = outcome(run_test(ingest(tiny), spec))
    assert got == outcome(run_test(ingest(np.ldexp(tiny, 1000)), spec))
    for (t, p, rej), (t0, p0, rej0) in zip(got, want):
        assert t == pytest.approx(t0, rel=1e-11)
        assert (p, rej) == (p0, rej0)


def _caller_rows() -> np.ndarray:
    return np.sort(np.random.default_rng(5).weibull(1.3, size=(3, 60)), axis=1)


def test_batch_statistics_rejects_a_reversed_row():
    rows = _caller_rows()
    rows[1] = rows[1, ::-1]
    with pytest.raises(ValueError, match="sorted"):
        batch_statistics(rows, Exponential(), 5, range(1, 6), 1.0)


def test_batch_statistics_rejects_a_single_row_as_a_1d_array():
    with pytest.raises(ValueError) as info:
        batch_statistics(_caller_rows()[0], Exponential(), 5, range(1, 6), 1.0)
    assert type(info.value) is ValueError
    assert str(info.value) == "sorted_rows must be a 2-D array of at least one column"


def test_batch_statistics_rejects_rows_of_no_values():
    with pytest.raises(ValueError) as info:
        batch_statistics(np.empty((3, 0)), Exponential(), 1, (1,), 1.0)
    assert type(info.value) is ValueError
    assert str(info.value) == "sorted_rows must be a 2-D array of at least one column"


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_batch_statistics_rejects_a_non_finite_row(bad):
    rows = _caller_rows()
    rows[2, -1] = bad
    with pytest.raises(ValueError, match="finite"):
        batch_statistics(rows, Exponential(), 5, range(1, 6), 1.0)


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

    # prove the value really comes from disk: plant a sentinel archive under
    # the entry's own disk key
    with np.load(files[0]) as archive:
        size, key = archive["tplus"].size, archive["key"]
    np.savez(files[0], tplus=np.full(size, 42.0), tminus=np.full(size, 42.0), key=key)
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
        with np.load(path) as archive:
            key = archive["key"]
        np.savez(path, tplus=np.zeros(7), tminus=np.zeros(7), key=key)

    _spoil_and_reload(tmp_path, monkeypatch, reshape)


@pytest.mark.parametrize("bad", [np.nan, -1.0])
def test_non_finite_or_unsorted_disk_entry_is_recomputed(tmp_path, monkeypatch, bad):
    def plant(path):
        with np.load(path) as archive:
            tplus, tminus, key = archive["tplus"].copy(), archive["tminus"].copy(), archive["key"]
        tplus[-1] = bad
        np.savez(path, tplus=tplus, tminus=tminus, key=key)

    _spoil_and_reload(tmp_path, monkeypatch, plant)
