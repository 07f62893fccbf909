"""Numerical primitives behind order-statistic weights and exceedance bounds.

Everything here is pure and stateless: log-beta, the regularized incomplete
beta function evaluated by continued fraction, densities of uniform order
statistics, and a fixed tanh-sinh quadrature over the open interval (0, 1).
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

__all__ = [
    "ConvergenceError",
    "QuadResult",
    "integrate_01",
    "ln_beta",
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


_CF_MAX_ITER = 500


def _beta_cont_frac(a: float, b: float, x: float) -> float:
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
    for i in range(1, _CF_MAX_ITER + 1):
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


def _beta_pdf_interior(p, j, m: int) -> np.ndarray:
    # Vectorized density for p inside (0, 1), broadcast over p and j (a rank
    # or an integer array of ranks). The logs are clamped at -1e308, which
    # changes no finite log but keeps a zero exponent's term an exact zero
    # where a quadrature node rounds onto an endpoint (0 * log(0) is nan).
    # exp is 0 below -745.2; leaving those lanes out, which numpy's vector exp
    # would take a slow path for, gives the same bytes faster.
    p, j = np.asarray(p, dtype=float), np.asarray(j, dtype=float)
    log_norm = np.reshape([-ln_beta(a, m + 1.0 - a) for a in j.ravel().tolist()], j.shape)
    with np.errstate(divide="ignore", over="ignore"):
        log_pdf = np.multiply(j - 1.0, np.maximum(np.log(p), -1e308),
                              out=np.empty(np.broadcast_shapes(p.shape, j.shape)))
        log_pdf += log_norm
        log_pdf += (m - j) * np.maximum(np.log1p(-p), -1e308)
    return np.exp(log_pdf, out=np.zeros_like(log_pdf), where=log_pdf > -746.0)


# Tanh-sinh rule on (0, 1) (Takahasi & Mori, Publ. RIMS 9, 1974): nodes
# x = 1 / (1 + exp(-pi sinh t)) at t = k / 256, |k| <= 1560, reach within 1e-302
# of both ends. 1 - x has its own formula, which keeps the weights exact where x
# rounds to 1. Every 4th node is the rule at step 1/64, every 8th at 1/32.
_T = np.arange(-1560, 1561) / 256.0
_NODES = 1.0 / (1.0 + np.exp(-math.pi * np.sinh(_T)))
_WEIGHTS = math.pi / 256.0 * np.cosh(_T) * _NODES / (1.0 + np.exp(math.pi * np.sinh(_T)))
# (stride, nodes first used at that stride): steps 1/64, 1/128, 1/256.
_LEVELS = ((4, slice(0, None, 4)), (2, slice(2, None, 4)), (1, slice(1, None, 2)))


class QuadResult(NamedTuple):
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
    value, error, converged = _integrate_01_rows(f, lambda u, fu, rows: fu, 1, rel_tol, abs_tol)
    return QuadResult(float(value[0]), float(error[0]), bool(converged[0]))


# Integrands per chunk of _integrate_01_rows: 64 x 3121 terms take 1.6 MiB.
_CHUNK_ROWS = 64


def _integrate_01_rows(
    shared: Callable[[np.ndarray], np.ndarray],
    rowwise: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
    count: int,
    rel_tol: float = 1e-10,
    abs_tol: float = 0.0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """integrate_01 of count integrands, each under integrate_01's rule and to
    the bytes integrate_01 gives it alone, as arrays of values, error bounds
    and converged flags. At nodes u, row i of rowwise(u, shared(u), rows) is
    the integrand of rows[i]: shared is evaluated once per step size that
    some integrand reaches, and rowwise on chunks of at most _CHUNK_ROWS
    integrands that have not converged yet.
    """
    if rel_tol <= 0.0:
        raise ValueError("rel_tol must be positive")
    value, error = np.full(count, math.nan), np.full(count, math.inf)
    converged = np.zeros(count, dtype=bool)
    at_step: dict[int, np.ndarray] = {}
    for start in range(0, count, _CHUNK_ROWS):
        live = np.arange(start, min(start + _CHUNK_ROWS, count))
        level = None  # row i: the terms of integrand live[i] at this step
        for stride, new in _LEVELS:
            u = _NODES[new]
            with np.errstate(all="ignore"):  # overflow and 0 * inf at the end nodes
                if stride not in at_step:
                    at_step[stride] = shared(u)
                fresh = _WEIGHTS[new] * np.asarray(rowwise(u, at_step[stride], live), dtype=float)
                if level is None:
                    level = np.broadcast_to(fresh, (live.size, u.size))
                else:  # each step's new nodes fall between the last step's
                    both = np.empty((live.size, level.shape[1] + u.size))
                    both[:, ::2], both[:, 1::2] = level, fresh
                    level = both
                total = stride * level.sum(axis=1)
                # The rule at twice the step takes the even positions (k = -1560 is even).
                coarse = 2 * stride * level[:, ::2].sum(axis=1)
                lo = np.zeros(live.size, dtype=np.int64)
                hi = np.full(live.size, level.shape[1] - 1)
                whole = np.isfinite(total)
                for r in np.flatnonzero(~whole):  # a non-finite term: cut the rule at its ends
                    finite = np.flatnonzero(np.isfinite(level[r]))
                    if finite.size and finite[-1] - finite[0] + 1 == finite.size:
                        lo[r], hi[r], whole[r] = finite[0], finite[-1], True
                        total[r] = stride * level[r, lo[r] : hi[r] + 1].sum()
                        coarse[r] = 2 * stride * level[r, lo[r] + lo[r] % 2 : hi[r] + 1 : 2].sum()
                every = np.arange(live.size)
                bound = np.abs(total - coarse) + stride * (np.abs(level[every, lo])
                                                           + np.abs(level[every, hi]))
                done = bound <= np.maximum(rel_tol * np.abs(total), abs_tol)
            value[live] = np.where(whole, total, math.nan)
            error[live] = np.where(whole, bound, math.inf)
            converged[live] = done
            refine = whole & ~done
            if not refine.any():
                break
            live, level = live[refine], level[refine]
    return value, error, converged
