"""Numerical primitives behind order-statistic weights and exceedance bounds.

Everything here is pure and stateless: log-beta, the regularized incomplete
beta function evaluated by continued fraction, densities of uniform order
statistics, partial harmonic sums, and an adaptive Gauss-Kronrod quadrature
over the open interval (0, 1).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "BetaParams",
    "ConvergenceError",
    "QuadResult",
    "beta_pdf",
    "integrate_01",
    "ln_beta",
    "partial_harmonic",
    "reg_inc_beta",
]


class ConvergenceError(RuntimeError):
    """An iterative numerical scheme failed to reach its tolerance."""


@dataclass(frozen=True)
class BetaParams:
    """Rank j of m, identifying the Beta(j, m - j + 1) law of the j-th
    order statistic of m independent uniforms."""

    j: int
    m: int

    def __post_init__(self) -> None:
        if not 1 <= self.j <= self.m:
            raise ValueError(f"require 1 <= j <= m, got j={self.j}, m={self.m}")

    @property
    def a(self) -> float:
        return float(self.j)

    @property
    def b(self) -> float:
        return float(self.m - self.j + 1)


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


def beta_pdf(p: float, params: BetaParams) -> float:
    """Density at p of the j-th of m uniform order statistics.

    Bounded above by m everywhere. The endpoints carry the exact limit
    values: m at p = 0 for j = 1, m at p = 1 for j = m, zero otherwise.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    j, m = params.j, params.m
    if p == 0.0:
        return float(m) if j == 1 else 0.0
    if p == 1.0:
        return float(m) if j == m else 0.0
    log_pdf = (
        (j - 1) * math.log(p)
        + (m - j) * math.log1p(-p)
        - ln_beta(params.a, params.b)
    )
    return math.exp(log_pdf)


def _beta_pdf_interior(p: np.ndarray, j: int, m: int) -> np.ndarray:
    # Vectorized density for p inside (0, 1). Terms with zero exponent are
    # skipped outright: a panel node rounded onto an endpoint would turn
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


# 15-point Kronrod extension of 7-point Gauss-Legendre on [-1, 1]; every
# node is interior, so the rule never touches the endpoints of a panel.
_K15_NODES = np.array(
    [
        -0.991455371120813,
        -0.949107912342759,
        -0.864864423359769,
        -0.741531185599394,
        -0.586087235467691,
        -0.405845151377397,
        -0.207784955007898,
        0.0,
        0.207784955007898,
        0.405845151377397,
        0.586087235467691,
        0.741531185599394,
        0.864864423359769,
        0.949107912342759,
        0.991455371120813,
    ]
)
_K15_WEIGHTS = np.array(
    [
        0.022935322010529,
        0.063092092629979,
        0.104790010322250,
        0.140653259715525,
        0.169004726639267,
        0.190350578064785,
        0.204432940075298,
        0.209482141084728,
        0.204432940075298,
        0.190350578064785,
        0.169004726639267,
        0.140653259715525,
        0.104790010322250,
        0.063092092629979,
        0.022935322010529,
    ]
)
_G7_WEIGHTS = np.array(
    [
        0.129484966168870,
        0.279705391489277,
        0.381830050505119,
        0.417959183673469,
        0.381830050505119,
        0.279705391489277,
        0.129484966168870,
    ]
)
# The Gauss nodes sit at every other Kronrod node.
_G7_TAKE = slice(1, 15, 2)


@dataclass(frozen=True)
class QuadResult:
    """Outcome of adaptive quadrature: estimate, error bound, and whether
    the error bound met the tolerance within the subdivision budget."""

    value: float
    error: float
    converged: bool
    subdivisions: int


def _panel(f: Callable[[np.ndarray], np.ndarray], a: float, b: float) -> tuple[float, float]:
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    y = np.asarray(f(mid + half * _K15_NODES), dtype=float)
    k15 = half * float(_K15_WEIGHTS @ y)
    g7 = half * float(_G7_WEIGHTS @ y[_G7_TAKE])
    if not np.all(np.isfinite(y)):
        return k15, math.inf
    return k15, abs(k15 - g7)


def integrate_01(
    f: Callable[[np.ndarray], np.ndarray],
    rel_tol: float = 1e-10,
    abs_tol: float = 0.0,
    max_subdivisions: int = 10_000,
) -> QuadResult:
    """Adaptive Gauss-Kronrod integration of f over (0, 1).

    f must accept a numpy array of interior points. Panels are bisected
    where the local error estimate is worst, which drives nodes geometrically
    toward integrable endpoint singularities. Non-convergence within the
    budget is reported through the flag rather than raised: for the bound
    computations a divergent integral is an answer, not an error, and the
    caller decides what it means.
    """
    if rel_tol <= 0.0:
        raise ValueError("rel_tol must be positive")

    heap: list[tuple[float, int, float, float, float, float]] = []
    counter = 0
    total_val = 0.0
    total_err = 0.0
    n_bad = 0
    frozen_val = 0.0
    frozen_err = 0.0
    frozen_bad = 0

    def push(a: float, b: float, v: float, e: float) -> None:
        nonlocal counter, total_val, total_err, n_bad
        if math.isfinite(v) and math.isfinite(e):
            total_val += v
            total_err += e
        else:
            n_bad += 1
            e = math.inf
        heapq.heappush(heap, (-e, counter, a, b, v, e))
        counter += 1

    v0, e0 = _panel(f, 0.0, 1.0)
    push(0.0, 1.0, v0, e0)

    n_split = 0
    while True:
        value = total_val + frozen_val
        error = total_err + frozen_err
        bad = n_bad + frozen_bad
        if bad == 0 and error <= max(rel_tol * abs(value), abs_tol):
            return QuadResult(value, error, True, n_split)
        if n_split >= max_subdivisions or not heap:
            # The tolerance test above just failed for this same state.
            return QuadResult(value, error, False, n_split)
        _, _, a, b, v, e = heapq.heappop(heap)
        if math.isfinite(v) and math.isfinite(e):
            total_val -= v
            total_err -= e
        else:
            n_bad -= 1
        mid = 0.5 * (a + b)
        if mid <= a or mid >= b:
            # Panel is at floating-point resolution; freeze its contribution.
            if math.isfinite(v) and math.isfinite(e):
                frozen_val += v
                frozen_err += e
            else:
                frozen_bad += 1
            continue
        vl, el = _panel(f, a, mid)
        vr, er = _panel(f, mid, b)
        push(a, mid, vl, el)
        push(mid, b, vr, er)
        n_split += 1
