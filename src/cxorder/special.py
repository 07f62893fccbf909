"""Numerical primitives behind order-statistic weights and exceedance bounds.

Everything here is pure and stateless: log-beta, the regularized incomplete
beta function evaluated by continued fraction, densities of uniform order
statistics, partial harmonic sums, and a fixed tanh-sinh quadrature over the
open interval (0, 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "ConvergenceError",
    "QuadResult",
    "integrate_01",
    "ln_beta",
    "partial_harmonic",
    "reg_inc_beta",
]


class ConvergenceError(RuntimeError):
    """An iterative numerical scheme failed to reach its tolerance."""


def ln_beta(a: float, b: float) -> float:
    """Natural logarithm of the Beta function B(a, b).

    Relative accuracy is about 1e-14 for arguments up to 1e4; the only
    cancellation is the subtraction of log-gamma values, which loses at most
    one digit in that range.
    """
    if a <= 0.0 or b <= 0.0:
        raise ValueError(f"ln_beta needs positive arguments, got ({a}, {b})")
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def _beta_cont_frac(a: float, b: float, x: float, max_iter: int = 500) -> float:
    # Modified Lentz evaluation of the continued fraction for I_x(a, b).
    tiny = 1e-300
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for i in range(1, max_iter + 1):
        m2 = 2 * i
        aa = i * (b - i) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + i) * (qab + i) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            return h
    raise ConvergenceError(
        f"incomplete beta continued fraction stalled at a={a}, b={b}, x={x}"
    )


def reg_inc_beta(x: float, a: float, b: float) -> float:
    """Regularized incomplete beta function I_x(a, b).

    The continued fraction converges fastest for x below the split point
    (a + 1) / (a + b + 2); beyond it the complement is evaluated through the
    symmetry identity I_x(a, b) = 1 - I_{1-x}(b, a). Absolute error grows
    with the log-gamma prefactor: 2.6e-14 at a = b = 100, 8.7e-13 at 1000,
    4.4e-12 at 5000; tests check 1e-14 + 2e-15 max(a, b) up to 10^4.
    """
    if a <= 0.0 or b <= 0.0:
        raise ValueError(f"reg_inc_beta needs positive shapes, got ({a}, {b})")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must lie in [0, 1], got {x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    front = math.exp(a * math.log(x) + b * math.log1p(-x) - ln_beta(a, b))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cont_frac(a, b, x) / a
    return 1.0 - front * _beta_cont_frac(b, a, 1.0 - x) / b


def _beta_pdf_interior(p: np.ndarray, j: int, m: int) -> np.ndarray:
    # Vectorized density for p inside (0, 1). Terms with zero exponent are
    # skipped outright: a quadrature node rounded onto an endpoint would turn
    # 0 * log(0) into nan otherwise.
    log_pdf = np.full_like(np.asarray(p, dtype=float), -ln_beta(float(j), float(m - j + 1)))
    if j > 1:
        log_pdf += (j - 1) * np.log(p)
    if m > j:
        log_pdf += (m - j) * np.log1p(-p)
    return np.exp(log_pdf)


def partial_harmonic(lo: int, hi: int) -> float:
    """Sum of 1/k for integer k from lo through hi.

    Accumulated with exact (compensated) summation so the result does not
    depend on term order.
    """
    if lo < 1 or hi < 1:
        raise ValueError(f"bounds must be positive, got ({lo}, {hi})")
    if lo > hi:
        raise ValueError(f"need lo <= hi, got ({lo}, {hi})")
    return math.fsum(1.0 / k for k in range(hi, lo - 1, -1))


# Tanh-sinh rule on (0, 1) (Takahasi & Mori, Publ. RIMS 9, 1974): nodes
# x = 1 / (1 + exp(-pi sinh t)) at t = k / 256, |k| <= 1560, reach within 1e-302
# of both ends. 1 - x has its own formula, which keeps the weights exact where x
# rounds to 1. Every 4th node is the rule at step 1/64, every 8th at 1/32.
_T = np.arange(-1560, 1561) / 256.0
_NODES = 1.0 / (1.0 + np.exp(-math.pi * np.sinh(_T)))
_WEIGHTS = math.pi / 256.0 * np.cosh(_T) * _NODES / (1.0 + np.exp(math.pi * np.sinh(_T)))
# (stride, nodes first used at that stride): steps 1/64, 1/128, 1/256.
_LEVELS = ((4, slice(0, None, 4)), (2, slice(2, None, 4)), (1, slice(1, None, 2)))


@dataclass(frozen=True)
class QuadResult:
    """Quadrature estimate, its error bound, and whether that met the tolerance."""

    value: float
    error: float
    converged: bool


def integrate_01(
    f: Callable[[np.ndarray], np.ndarray], rel_tol: float = 1e-10, abs_tol: float = 0.0
) -> QuadResult:
    """Tanh-sinh integration of f over (0, 1).

    f takes an array of interior nodes: 781 at step 1/64, crowding toward both
    ends, then the step is halved, at most twice, while the tolerance is unmet.
    Non-finite terms may only truncate the rule at an end (a quantile
    overflowing next to its pole). The error bound is the gap to the rule at
    twice the step plus the two outermost terms kept, which stay large when a
    tail decays too slowly. Failure, including a non-finite term between
    finite ones, is reported through the flag, not raised: for the bounds a
    divergent integral is an answer, and the caller decides what it means.
    """
    if rel_tol <= 0.0:
        raise ValueError("rel_tol must be positive")
    terms = np.empty_like(_NODES)
    for stride, new in _LEVELS:
        with np.errstate(all="ignore"):  # overflow and 0 * inf at the end nodes
            terms[new] = _WEIGHTS[new] * np.asarray(f(_NODES[new]), dtype=float)
        level = terms[::stride]
        finite = np.flatnonzero(np.isfinite(level))
        if finite.size == 0 or finite[-1] - finite[0] + 1 != finite.size:
            return QuadResult(math.nan, math.inf, False)
        lo, hi = int(finite[0]), int(finite[-1])
        value = stride * float(np.sum(level[lo : hi + 1]))
        # The rule at twice the step takes the even positions (k = -1560 is even).
        coarse = 2 * stride * float(np.sum(level[lo + lo % 2 : hi + 1 : 2]))
        error = abs(value - coarse) + stride * (abs(float(level[lo])) + abs(float(level[hi])))
        if error <= max(rel_tol * abs(value), abs_tol):
            return QuadResult(value, error, True)
    return QuadResult(value, error, False)
