"""Beta-function toolbox checked against independent references.

Reference values were produced with mpmath at 50 digits or with exact
rational arithmetic; scipy provides a second, independently coded route
for the grid comparisons.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import special as sps
from scipy.stats import beta as beta_dist

from cxorder import (
    integrate_01,
    ln_beta,
    partial_harmonic,
    reg_inc_beta,
)
from cxorder.special import _beta_pdf_interior


def test_ln_beta_small_integer_values():
    assert ln_beta(1.0, 1.0) == 0.0
    assert ln_beta(2.0, 2.0) == pytest.approx(math.log(1.0 / 6.0), abs=1e-14)


def test_ln_beta_fractional_arguments():
    # mpmath (50 digits) integral of t^2.5 (1-t)^1.7 over (0, 1)
    assert ln_beta(3.5, 2.7) == pytest.approx(-3.4965046318351153, abs=1e-12)


def test_ln_beta_against_scipy_grid():
    rng = np.random.default_rng(11)
    for _ in range(200):
        a, b = rng.uniform(0.05, 500.0, size=2)
        assert ln_beta(a, b) == pytest.approx(sps.betaln(a, b), rel=1e-12)


def test_ln_beta_rejects_nonpositive():
    with pytest.raises(ValueError):
        ln_beta(0.0, 1.0)
    with pytest.raises(ValueError):
        ln_beta(2.0, -3.0)


def test_reg_inc_beta_closed_forms():
    assert reg_inc_beta(0.3, 1.0, 1.0) == pytest.approx(0.3, abs=1e-14)
    assert reg_inc_beta(0.5, 2.0, 2.0) == pytest.approx(0.5, abs=1e-14)
    # I_x(1, b) = 1 - (1-x)^b
    assert reg_inc_beta(0.25, 1.0, 3.0) == pytest.approx(0.578125, abs=1e-14)


@pytest.mark.parametrize(
    "x, a, b, expected",
    [
        (0.1, 2.0, 3.0, 0.0523),
        (0.7, 0.5, 0.5, 0.6309898804344546),
        (0.999, 4.0, 2.0, 0.999990019985004),
        (0.3, 7.0, 1.5, 0.0005899867162275246),
    ],
)
def test_reg_inc_beta_reference_points(x, a, b, expected):
    # mpmath.betainc at 50 digits
    assert reg_inc_beta(x, a, b) == pytest.approx(expected, abs=1e-13)


def test_reg_inc_beta_against_scipy_grid():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(500):
        a, b = rng.uniform(0.3, 40.0, size=2)
        x = rng.uniform(0.0, 1.0)
        worst = max(worst, abs(reg_inc_beta(x, a, b) - sps.betainc(a, b, x)))
    assert worst <= 1e-12


@pytest.mark.parametrize(
    "a, b",
    [(100, 100), (300, 300), (1000, 1000), (5000, 5000), (1, 150), (10, 991), (2, 9999)],
)
def test_reg_inc_beta_large_shape_accuracy(a, b):
    # The range stated in the docstring: absolute error at most
    # 1e-14 + 2e-15 max(a, b) for shapes up to 10^4.
    xs = np.linspace(0.0, 1.0, 1001)
    worst = max(abs(reg_inc_beta(float(x), a, b) - sps.betainc(a, b, x)) for x in xs)
    assert worst <= 1e-14 + 2e-15 * max(a, b)


def test_reg_inc_beta_symmetry_identity():
    rng = np.random.default_rng(3)
    for _ in range(300):
        a, b = rng.uniform(0.2, 60.0, size=2)
        x = rng.uniform(0.0, 1.0)
        total = reg_inc_beta(x, a, b) + reg_inc_beta(1.0 - x, b, a)
        assert abs(total - 1.0) <= 1e-12


def test_reg_inc_beta_endpoints_and_monotonicity():
    assert reg_inc_beta(0.0, 3.0, 4.0) == 0.0
    assert reg_inc_beta(1.0, 3.0, 4.0) == 1.0
    xs = np.linspace(0.0, 1.0, 101)
    ys = [reg_inc_beta(float(x), 2.5, 1.5) for x in xs]
    assert all(y1 >= y0 for y0, y1 in zip(ys, ys[1:]))


def test_reg_inc_beta_rejects_bad_inputs():
    with pytest.raises(ValueError):
        reg_inc_beta(-0.1, 1.0, 1.0)
    with pytest.raises(ValueError):
        reg_inc_beta(1.1, 1.0, 1.0)
    with pytest.raises(ValueError):
        reg_inc_beta(0.5, 0.0, 1.0)


def test_beta_pdf_known_values():
    assert _beta_pdf_interior(0.4, 1, 1) == pytest.approx(1.0, abs=1e-14)
    # 6 * p * (1 - p) at p = 1/2
    assert _beta_pdf_interior(0.5, 2, 3) == pytest.approx(1.5, abs=1e-14)


def test_beta_pdf_bounded_and_matches_scipy():
    # The density pi_bound integrates, at interior points only.
    rng = np.random.default_rng(19)
    for _ in range(300):
        m = int(rng.integers(1, 41))
        j = int(rng.integers(1, m + 1))
        p = rng.uniform(1e-9, 1.0 - 1e-9, size=3)
        val = _beta_pdf_interior(p, j, m)
        assert np.all((val >= 0.0) & (val <= m + 1e-12))
        ref = beta_dist.pdf(p, j, m - j + 1)
        np.testing.assert_allclose(val, ref, rtol=1e-11, atol=1e-12)


def test_partial_harmonic_exact_fractions():
    assert partial_harmonic(1, 1) == 1.0
    assert partial_harmonic(2, 3) == pytest.approx(5.0 / 6.0, abs=1e-15)
    assert partial_harmonic(1, 4) == pytest.approx(25.0 / 12.0, abs=1e-15)
    exact = Fraction(3601, 2520)
    assert partial_harmonic(3, 10) == pytest.approx(float(exact), abs=1e-15)


def test_partial_harmonic_random_ranges_vs_fractions():
    rng = np.random.default_rng(5)
    for _ in range(50):
        lo = int(rng.integers(1, 200))
        hi = lo + int(rng.integers(0, 300))
        exact = sum(Fraction(1, k) for k in range(lo, hi + 1))
        assert partial_harmonic(lo, hi) == pytest.approx(float(exact), rel=1e-15)


def test_partial_harmonic_rejects_bad_bounds():
    with pytest.raises(ValueError):
        partial_harmonic(0, 3)
    with pytest.raises(ValueError):
        partial_harmonic(5, 4)


def test_integrate_01_smooth_integrands():
    res = integrate_01(lambda p: np.ones_like(p))
    assert res.converged
    assert res.value == pytest.approx(1.0, rel=1e-12)

    res = integrate_01(lambda p: p)
    assert res.converged
    assert res.value == pytest.approx(0.5, rel=1e-12)

    res = integrate_01(lambda p: np.cos(p))
    assert res.converged
    assert res.value == pytest.approx(math.sin(1.0), rel=1e-10)


def test_integrate_01_endpoint_singularities():
    # integrable singularity at the left endpoint
    res = integrate_01(lambda p: 1.0 / np.sqrt(p))
    assert res.converged
    assert res.value == pytest.approx(2.0, rel=1e-9)

    # log singularity at the right endpoint, mean of a standard exponential
    res = integrate_01(lambda p: -np.log1p(-p))
    assert res.converged
    assert res.value == pytest.approx(1.0, rel=1e-9)


def test_integrate_01_reports_divergence():
    res = integrate_01(lambda p: 1.0 / p, max_subdivisions=400)
    assert not res.converged
    assert res.subdivisions >= 400


def test_integrate_01_error_estimate_honest():
    res = integrate_01(lambda p: p * (1.0 - p) ** 3)
    assert res.converged
    assert abs(res.value - 1.0 / 20.0) <= max(res.error, 1e-13)


def test_integrate_01_rejects_bad_tolerance():
    with pytest.raises(ValueError):
        integrate_01(lambda p: p, rel_tol=0.0)
