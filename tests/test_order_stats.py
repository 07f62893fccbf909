"""Sample handling, L-estimator weights, interpolated ECDF, exceedance
bounds, and the Hill estimator."""

import math
import warnings
from dataclasses import dataclass

import numpy as np
import pytest
from scipy import special as sps
from scipy.stats import beta as beta_dist

from cxorder import (
    BoundStatus,
    Cauchy,
    Custom,
    Exponential,
    Frechet,
    Logistic,
    LogLogistic,
    NegExponential,
    Sample,
    TiesWarning,
    Uniform,
    hill_estimate,
    ingest,
    interp_ecdf,
    l_estimate,
    os_weights,
    pi_bound,
    reg_inc_beta,
)
from cxorder.distributions import RefFamily
from cxorder.order_stats import _divergent_ranks, _pi_values, bound_status
from cxorder.special import ConvergenceError, _beta_pdf_interior, integrate_01


# ---------------------------------------------------------------- ingest

def test_ingest_sorts_and_freezes():
    s = ingest([3.0, 1.0, 2.0])
    np.testing.assert_array_equal(s.values, [1.0, 2.0, 3.0])
    assert s.n == 3
    assert not s.tie_flag
    with pytest.raises(ValueError):
        s.values[0] = 0.0


def test_ingest_flags_and_warns_on_ties():
    with pytest.warns(TiesWarning):
        s = ingest([1.0, 1.0, 2.0])
    assert s.tie_flag


@pytest.mark.parametrize("raw, tied", [
    ([5.0], False),
    ([2.0, 1.0], False),
    ([1.0, 1.0], True),
    ([-0.0, 0.0], True),
    ([3.0, 1e-300, 2e-300, -4.0], False),
    ([4.0, 2.0, 3.0, 2.0, 9.0], True),
    ([9.0, 1.0, 2.0, 3.0, 9.0], True),
    (list(np.random.default_rng(3).logistic(size=200)), False),
], ids=["n1", "n2", "n2-tied", "signed-zeros", "tiny-gaps", "inner-tie", "tie-at-top",
        "n200"])
def test_ingest_tie_flag(raw, tied):
    with warnings.catch_warnings():
        warnings.simplefilter("error" if not tied else "ignore", TiesWarning)
        s = ingest(raw)
    assert s.tie_flag is tied
    assert s.tie_flag is bool(np.any(np.diff(np.sort(raw)) == 0.0))


def test_ingest_rejects_bad_input():
    with pytest.raises(ValueError):
        ingest([])
    with pytest.raises(ValueError):
        ingest([1.0, float("nan")])
    with pytest.raises(ValueError):
        ingest([1.0, float("inf")])
    with pytest.raises(ValueError):
        ingest([[1.0, 2.0], [3.0, 4.0]])


# ------------------------------------------------------------ os_weights

def test_weights_small_cases():
    np.testing.assert_allclose(os_weights(1, 2, 5), [1.0])
    np.testing.assert_allclose(os_weights(2, 1, 1), [0.5, 0.5], atol=1e-15)
    # I_{1/2}(1, 2) = 1 - (1/2)^2 = 0.75
    np.testing.assert_allclose(os_weights(2, 1, 2), [0.75, 0.25], atol=1e-15)


def test_weights_are_a_probability_vector():
    rng = np.random.default_rng(8)
    for _ in range(60):
        n = int(rng.integers(1, 300))
        m = int(rng.integers(1, 41))
        j = int(rng.integers(1, m + 1))
        w = os_weights(n, j, m)
        assert w.shape == (n,)
        assert np.all(w >= 0.0)
        assert abs(w.sum() - 1.0) <= 1e-12


def test_weights_match_beta_cdf_differences():
    # w_i = I_{i/n}(j, m-j+1) - I_{(i-1)/n}(j, m-j+1), via scipy's
    # independent incomplete-beta implementation
    for n, j, m in [(7, 2, 4), (25, 1, 6), (40, 6, 6), (13, 3, 3)]:
        grid = np.arange(0, n + 1) / n
        ref = np.diff(beta_dist.cdf(grid, j, m - j + 1))
        np.testing.assert_allclose(os_weights(n, j, m), ref, atol=1e-13)


def test_weights_are_absolutely_accurate_at_large_n():
    # Each weight is a difference of two CDF values, so the error bound is
    # absolute; weights far below it may come back as exact 0.
    n, m = 1000, 150
    grid = np.arange(0, n + 1) / n
    for j in (1, 75, 150):
        ref = np.diff(sps.betainc(j, m - j + 1, grid))
        np.testing.assert_allclose(os_weights(n, j, m), ref, rtol=0.0, atol=2e-13)


def _weights_loop(n, j, m):
    """One grid point, then one weight, at a time: the reference the
    array form must match bit for bit."""
    a, b = float(j), float(m - j + 1)
    cdf, comp = [0.0] * (n + 1), [0.0] * (n + 1)
    for i in range(n + 1):
        t = i / n
        if t <= 0.5:
            cdf[i] = reg_inc_beta(t, a, b)
            comp[i] = 1.0 - cdf[i]
        else:
            comp[i] = reg_inc_beta(1.0 - t, b, a)
            cdf[i] = 1.0 - comp[i]
    w = [comp[i - 1] - comp[i] if (i - 1) / n >= 0.5 else cdf[i] - cdf[i - 1]
         for i in range(1, n + 1)]
    return np.maximum(np.array(w), 0.0)


@pytest.mark.parametrize("n, m", [(1, 1), (2, 1), (2, 2), (3, 2), (7, 3), (50, 8), (201, 30)])
def test_weights_equal_the_pointwise_loop(n, m):
    for j in range(1, m + 1):
        assert os_weights(n, j, m).tobytes() == _weights_loop(n, j, m).tobytes()


def test_weights_returned_copy_is_writable():
    w = os_weights(5, 1, 2)
    w[0] = 99.0
    np.testing.assert_allclose(os_weights(5, 1, 2).sum(), 1.0, atol=1e-12)


def test_weights_reject_bad_ranks():
    with pytest.raises(ValueError):
        os_weights(5, 0, 3)
    with pytest.raises(ValueError):
        os_weights(5, 4, 3)
    with pytest.raises(ValueError):
        os_weights(0, 1, 1)


# ------------------------------------------------------------ l_estimate

def test_l_estimate_collapses_for_single_point():
    s = ingest([4.2])
    for j, m in [(1, 1), (2, 3), (5, 5)]:
        assert l_estimate(s, j, m) == pytest.approx(4.2, abs=1e-15)


def test_l_estimate_rank_one_of_one_is_the_mean():
    rng = np.random.default_rng(21)
    x = rng.normal(size=37)
    s = ingest(x)
    assert l_estimate(s, 1, 1) == pytest.approx(float(np.mean(x)), abs=1e-12)


def test_l_estimate_two_point_example():
    s = ingest([0.0, 1.0])
    assert l_estimate(s, 1, 2) == pytest.approx(0.25, abs=1e-14)


def test_l_estimate_stays_within_sample_range():
    rng = np.random.default_rng(33)
    x = rng.standard_cauchy(50)
    s = ingest(x)
    for m in (1, 3, 10, 25):
        for j in range(1, m + 1):
            v = l_estimate(s, j, m)
            assert x.min() - 1e-12 <= v <= x.max() + 1e-12


def test_l_estimate_mean_identity_and_monotonicity():
    rng = np.random.default_rng(60)
    x = rng.exponential(size=45)
    s = ingest(x)
    for m in (1, 2, 7, 19):
        ests = [l_estimate(s, j, m) for j in range(1, m + 1)]
        assert sum(ests) / m == pytest.approx(float(np.mean(x)), abs=1e-10)
        # increasing in the rank, decreasing as m grows at fixed rank
        assert all(b >= a - 1e-12 for a, b in zip(ests, ests[1:]))
        for j in range(1, m + 1):
            assert l_estimate(s, j, m + 1) <= ests[j - 1] + 1e-12


def test_l_estimate_is_exact_under_extreme_and_subnormal_scales():
    x = np.random.default_rng(5).weibull(1.3, size=60)
    base = [l_estimate(ingest(x), j, 9) for j in range(1, 10)]
    # Powers of two rescale normal floats exactly.
    for k in (-1000, 1000):
        assert [l_estimate(ingest(np.ldexp(x, k)), j, 9) for j in range(1, 10)] == [
            math.ldexp(v, k) for v in base]
    # A subnormal sample has lost low bits to rounding, so its estimate is
    # its exact rescaling into the normal range, rounded once on the way back.
    tiny = ingest(x * 1e-310)
    normal = ingest(np.ldexp(tiny.values, 1000))
    for j in range(1, 10):
        assert l_estimate(tiny, j, 9) == math.ldexp(l_estimate(normal, j, 9), -1000)


# ----------------------------------------------------------- interp_ecdf

def test_ecdf_hits_knots_and_interpolates():
    s = ingest([0.0, 1.0])
    f = interp_ecdf(s)
    assert f(0.0) == pytest.approx(0.5)
    assert f(1.0) == pytest.approx(1.0)
    assert f(0.5) == pytest.approx(0.75)


def test_ecdf_clamps_outside_knot_range():
    f = interp_ecdf(ingest([0.0, 1.0]))
    assert f(-5.0) == pytest.approx(0.5)
    assert f(7.0) == pytest.approx(1.0)


def test_ecdf_knots_are_jump_points():
    x = np.array([3.0, -1.0, 0.5, 2.0])
    f = interp_ecdf(ingest(x))
    for i, xi in enumerate(np.sort(x), start=1):
        assert f(float(xi)) == pytest.approx(i / 4)


def test_ecdf_collapses_ties_to_largest_height():
    with pytest.warns(TiesWarning):
        s = ingest([1.0, 1.0, 2.0])
    f = interp_ecdf(s)
    assert f.knots_x.shape == (2,)
    assert f(1.0) == pytest.approx(2.0 / 3.0)
    assert f(2.0) == pytest.approx(1.0)


def test_ecdf_stays_within_one_over_n_of_step_ecdf():
    rng = np.random.default_rng(14)
    x = rng.normal(size=40)
    s = ingest(x)
    f = interp_ecdf(s)
    pts = rng.uniform(x.min() - 1.0, x.max() + 1.0, size=400)
    step = np.searchsorted(np.sort(x), pts, side="right") / x.size
    assert np.max(np.abs(f(pts) - step)) <= 1.0 / x.size + 1e-12


def test_ecdf_vector_evaluation():
    f = interp_ecdf(ingest([0.0, 1.0]))
    out = f(np.array([-1.0, 0.25, 2.0]))
    np.testing.assert_allclose(out, [0.5, 0.625, 1.0])


# -------------------------------------------------------------- pi_bound

def test_pi_uniform_closed_form():
    for m in range(1, 9):
        for j in range(1, m + 1):
            b = pi_bound(Uniform(), j, m)
            assert b.status is BoundStatus.FINITE
            assert b.value == pytest.approx(j / (m + 1), abs=1e-14)


def test_pi_exponential_closed_form():
    b = pi_bound(Exponential(), 1, 1)
    assert b.value == pytest.approx(1.0 - math.exp(-1.0), abs=1e-13)
    # mpmath: 1 - exp(-(1/5 + 1/6 + 1/7))
    b = pi_bound(Exponential(), 3, 7)
    assert b.value == pytest.approx(0.39921840281790203, abs=1e-13)
    for m in range(1, 10):
        for j in range(1, m + 1):
            v = pi_bound(Exponential(), j, m).value
            expect = 1.0 - math.exp(-_harmonic(m - j + 1, m))
            assert v == pytest.approx(expect, abs=1e-13)


def _harmonic(lo: int, hi: int) -> float:
    """sum of 1/k for lo <= k <= hi, rounded once by math.fsum; 0.0 when the
    range is empty."""
    return math.fsum(1.0 / k for k in range(lo, hi + 1))


@pytest.mark.parametrize("m", [1, 2, 30, 150, 2000])
def test_harmonic_closed_forms_are_partial_harmonic_sums_to_the_bit(m):
    # _pi_values sums slices of one list of reciprocals; math.fsum rounds the
    # exact sum once, so each rank gets the bytes of its own partial sum.
    ranks = np.arange(1, m + 1)
    want = {
        Exponential(): [-math.expm1(-_harmonic(m - j + 1, m)) for j in ranks.tolist()],
        NegExponential(): [math.exp(-_harmonic(j, m)) for j in ranks.tolist()],
        Logistic(): Logistic().cdf(np.array([_harmonic(m - j + 1, j - 1) - _harmonic(j, m - j)
                                             for j in ranks.tolist()])),
    }
    for ref, values in want.items():
        assert _pi_values(ref, m, ranks).tobytes() == np.asarray(values, dtype=float).tobytes()


def test_pi_neg_exponential_closed_form():
    # mpmath: exp(-(1/3 + ... + 1/7))
    b = pi_bound(NegExponential(), 3, 7)
    assert b.value == pytest.approx(0.33525724615947374, abs=1e-13)


def test_pi_log_logistic_unit_shape_is_j_over_m():
    for m in range(2, 9):
        for j in range(1, m):
            b = pi_bound(LogLogistic(1.0), j, m)
            assert b.status is BoundStatus.FINITE
            assert b.value == pytest.approx(j / m, abs=1e-13)


def test_pi_statuses_for_cauchy():
    assert pi_bound(Cauchy(), 1, 1).status is BoundStatus.UNDEFINED
    assert pi_bound(Cauchy(), 1, 1).value is None
    b = pi_bound(Cauchy(), 1, 3)
    assert b.status is BoundStatus.TRIVIALLY_ZERO and b.value == 0.0
    b = pi_bound(Cauchy(), 3, 3)
    assert b.status is BoundStatus.TRIVIALLY_ONE and b.value == 1.0
    b = pi_bound(Cauchy(), 2, 3)
    assert b.status is BoundStatus.FINITE
    assert b.value == pytest.approx(0.5, abs=1e-10)


def test_pi_divergence_threshold_for_frechet():
    # right-tail index 0.5 needs m - j + 1 > 2
    assert pi_bound(Frechet(0.5), 5, 5).status is BoundStatus.TRIVIALLY_ONE
    assert pi_bound(Frechet(0.5), 4, 5).status is BoundStatus.TRIVIALLY_ONE
    assert pi_bound(Frechet(0.5), 3, 5).status is BoundStatus.FINITE


def test_pi_quadrature_reference_values():
    # mpmath oracles at 50 digits
    assert pi_bound(Frechet(2.0), 1, 1).value == pytest.approx(
        0.7273773492952165, abs=1e-8
    )
    assert pi_bound(LogLogistic(2.0), 2, 5).value == pytest.approx(
        0.35155614551334934, abs=1e-8
    )
    assert pi_bound(Logistic(), 2, 5).value == pytest.approx(
        0.30294071603459272, abs=1e-8
    )


@dataclass(frozen=True, eq=False)
class _KeepsComplement(Custom):
    ref: RefFamily | None = None

    def _quantile_comp_arr(self, q):
        return self.ref._quantile_comp_arr(q)


def _as_custom(ref, keep_complement: bool = False) -> Custom:
    """ref's handles, tails and support under a type that no closed form
    matches, so pi_bound integrates it. A plain Custom's complement quantile
    is quantile(1 - q), which loses the upper tail; keep_complement keeps
    ref's own."""
    tails, (lo, hi) = ref.tail_info(), ref.support()
    kind, extra = (_KeepsComplement, {"ref": ref}) if keep_complement else (Custom, {})
    return kind(cdf_fn=ref.cdf, quantile_fn=ref.quantile, right_index=tails.right_index,
                left_index=tails.left_index, support_lo=lo, support_hi=hi,
                label=ref.cache_key(), **extra)


@pytest.mark.parametrize("m", [2, 5, 30, 150, 400])
def test_pi_quadrature_matches_closed_forms(m):
    # E[G^{-1}(B_{j:m})] is psi(j) - psi(m - j + 1) for the logistic and
    # B(j + 1/a, m - j + 1 - 1/a) / B(j, m - j + 1) for log-logistic(a). The
    # built-in references use closed forms, so the quadrature is tested on
    # the same references hidden from them; the plain Custom wrapper of the
    # logistic keeps quantile(1 - q) as its complement, and still converges.
    a = 1.5
    logistic, log_logistic = Logistic(), LogLogistic(a)
    for j in range(1, m + 1):
        want = sps.expit(sps.digamma(j) - sps.digamma(m - j + 1))
        for ref in (logistic, _as_custom(logistic, True), _as_custom(logistic)):
            assert pi_bound(ref, j, m).value == pytest.approx(want, abs=5e-13), (ref, j)
        if m - j + 1 > 1.0 / a:
            mean = math.exp(sps.betaln(j + 1.0 / a, m - j + 1.0 - 1.0 / a)
                            - sps.betaln(j, m - j + 1))
            for ref in (log_logistic, _as_custom(log_logistic, True)):
                assert pi_bound(ref, j, m).value == pytest.approx(
                    mean**a / (1.0 + mean**a), abs=5e-13
                ), (ref, j)


def _per_rank_quadrature(ref, j, m):
    # pi(j, m) as one integrate_01 call per half, rank by rank: the loop the
    # batched quadrature replaced.
    def lower_half(u):
        p = np.maximum(0.5 * u, 1e-300)
        return 0.5 * ref.quantile(p) * _beta_pdf_interior(p, j, m)

    def upper_half(u):
        q = np.maximum(0.5 * u, 1e-300)
        return 0.5 * ref.quantile_complement(q) * _beta_pdf_interior(q, m - j + 1, m)

    lo = integrate_01(lower_half, rel_tol=1e-10, abs_tol=5e-13)
    hi = integrate_01(upper_half, rel_tol=1e-10, abs_tol=5e-13)
    assert lo.converged and hi.converged
    return float(ref.cdf(lo.value + hi.value))


@pytest.mark.parametrize("ref", [Cauchy(), Frechet(0.7), Frechet(2.0), _as_custom(Logistic())],
                         ids=lambda ref: ref.cache_key())
@pytest.mark.parametrize("m", [5, 30, 300])
def test_batched_quadrature_matches_the_per_rank_loop(ref, m):
    left_max, right_min = _divergent_ranks(ref.tail_info(), m)
    ranks = tuple(range(left_max + 1, right_min))
    want = [_per_rank_quadrature(ref, j, m) for j in ranks]
    np.testing.assert_allclose(_pi_values(ref, m, ranks), want, rtol=0, atol=1e-14)
    # Ranks that diverge on one side get their trivial bounds in the same vector.
    defined = tuple(j for j in range(1, m + 1)
                    if bound_status(ref, j, m) is not BoundStatus.UNDEFINED)
    assert _pi_values(ref, m, defined).tolist() == [pi_bound(ref, j, m).value for j in defined]


def test_pi_quadrature_raises_on_a_barely_integrable_tail():
    # m - j + 1 = 2 just exceeds 1 / 0.5001: the bound is finite in theory,
    # but the integrand's tail decays like q^-0.9996, far too slowly to cut
    # off anywhere a double fits.
    assert bound_status(Frechet(0.5001), 4, 5) is BoundStatus.FINITE
    with pytest.raises(ConvergenceError):
        pi_bound(Frechet(0.5001), 4, 5)


@pytest.mark.parametrize("ref, j, m", [(Frechet(0.5001), 4, 5), (_as_custom(Frechet(2.0)), 5, 5),
                                       (_as_custom(Frechet(2.0)), 30, 30)])
def test_batched_quadrature_names_the_rank_it_cannot_integrate(ref, j, m):
    # The plain Custom's complement quantile(1 - q) rounds to infinity next to
    # the pole, so the extreme rank's upper half cannot be cut off either.
    with pytest.raises(ConvergenceError, match=f"pi bound j={j}, m={m} "):
        pi_bound(ref, j, m)
    with pytest.raises(ConvergenceError, match=f"pi bound j={j}, m={m} "):
        _pi_values(ref, m, (j - 1, j))
    assert np.isfinite(_pi_values(ref, m, (j - 1,))).all()


def test_pi_monotone_in_rank():
    for ref in (Uniform(), Exponential(), NegExponential(), LogLogistic(1.0),
                Logistic(), Frechet(2.0)):
        vals = [pi_bound(ref, j, 7).value for j in range(1, 8)]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_pi_rejects_bad_ranks():
    with pytest.raises(ValueError):
        pi_bound(Uniform(), 0, 4)
    with pytest.raises(ValueError):
        pi_bound(Uniform(), 5, 4)


# --------------------------------------------------------- hill_estimate

def test_hill_exact_construction():
    # top log-ratios sum to k, so the estimate is exactly 1
    s = ingest([0.5, 0.9, 1.0, math.exp(0.5), math.exp(1.5)])
    assert hill_estimate(s, 2) == pytest.approx(1.0, rel=1e-12)


def test_hill_k_one_collapses_to_single_ratio():
    s = ingest([1.0, 2.0, 8.0])
    assert hill_estimate(s, 1) == pytest.approx(1.0 / math.log(4.0), rel=1e-12)


def test_hill_recovers_pareto_index():
    rng = np.random.default_rng(123)
    n = 100_000
    x = rng.random(n) ** (-1.0 / 2.0)  # exact Pareto, tail index 2
    s = ingest(x)
    assert hill_estimate(s) == pytest.approx(2.0, abs=0.2)


def test_hill_default_k_is_isqrt():
    rng = np.random.default_rng(9)
    x = rng.random(50) ** -1.0
    s = ingest(x)
    assert hill_estimate(s) == hill_estimate(s, 7)


def test_hill_input_validation():
    s = ingest([1.0, 2.0, 3.0, 4.0])
    with pytest.raises(ValueError):
        hill_estimate(s, 0)
    with pytest.raises(ValueError):
        hill_estimate(s, 4)
    bad = ingest([-1.0, 1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        hill_estimate(bad, 3)
    hill_estimate(bad, 2)  # nonpositive point outside the top window is fine


def test_hill_of_equal_top_values_is_undefined():
    with pytest.warns(TiesWarning):
        s = ingest([1.0, 2.0, 3.0, 3.0, 3.0])
    with pytest.raises(ValueError) as info:
        hill_estimate(s, 2)
    assert type(info.value) is ValueError
    assert str(info.value) == "degenerate top order statistics; tail index undefined"


def test_ingest_returns_a_sample_of_float64_values():
    s = ingest([2.0, 1.0])
    assert isinstance(s, Sample)
    assert s.values.dtype == np.float64
