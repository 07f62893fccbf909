"""Sample ingestion, L-estimates of expected order statistics, the
interpolated empirical CDF, and null exceedance-probability bounds.

The L-estimate of the expected j-th of m order statistics weights the
sorted sample by increments of the Beta(j, m - j + 1) CDF over the grid
i/n. The exceedance bound pi(j, m) is the reference CDF evaluated at the
expected j-th of m order statistics of the reference distribution itself;
it is what the empirical counterpart is compared against.

One kernel, `_gaps`, turns every table of rows, drawn or given by the
caller, into its gap matrices pi_j - F_hat(mu_hat_j) one chunk at a time,
and `_score_row` scores the observed sample to the bytes `_gaps` gives it as
a one-row table, so a simulated replicate is scored exactly the way the data
are. `_gaps` evaluates the ECDF of a chunk of many rows and few ranks in one
vectorized pass, and any other with one np.interp per row, to the same bytes.
It scores a chunk for every rank set at once, from one scaled copy of it.
"""

from __future__ import annotations

import math
import warnings
from enum import Enum
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from . import _blas, _cache
from ._seeds import _BLOCK_ROWS, _chunk_rows, _scratch
from .distributions import (
    Exponential,
    Frozen,
    Logistic,
    LogLogistic,
    NegExponential,
    RefFamily,
    TailInfo,
    Uniform,
    _integer,
)
from .special import (
    ConvergenceError,
    _beta_pdf_interior,
    _integrate_01_rows,
    reg_inc_beta,
)

__all__ = [
    "BoundStatus",
    "InterpolatedEcdf",
    "PiBound",
    "Sample",
    "TiesWarning",
    "bound_status",
    "hill_estimate",
    "ingest",
    "interp_ecdf",
    "l_estimate",
    "os_weights",
    "pi_bound",
]


class TiesWarning(UserWarning):
    """The ingested sample contains exactly equal values."""


class Sample(Frozen):
    """Sorted sample with a flag recording whether ties were present."""

    __slots__ = ("values", "tie_flag")
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, values: np.ndarray, tie_flag: bool) -> None:
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "tie_flag", tie_flag)

    @property
    def n(self) -> int:
        return self.values.size


def ingest(raw) -> Sample:
    """Validate and sort raw observations.

    Rejects empty input and non-finite values. Ties are legal but flagged
    and warned about, because the interpolated ECDF collapses tied knots
    and the continuity arguments behind the test assume none.
    """
    arr = np.asarray(raw, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"expected a one-dimensional sample, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError("sample is empty")
    if not np.isfinite(arr).all():
        raise ValueError("sample contains non-finite values")
    values = np.sort(arr)
    tie_flag = bool((values[1:] == values[:-1]).any())
    if tie_flag:
        warnings.warn(
            "sample contains tied values; tied ECDF knots are collapsed",
            TiesWarning,
            stacklevel=2,
        )
    values.setflags(write=False)
    return Sample(values=values, tie_flag=tie_flag)


def _weights_readonly(n: int, m: int, ranks: tuple[int, ...]) -> np.ndarray:
    """Read-only ranks x n matrix of L-estimator weights, row r for rank
    ranks[r] of m, all checked by the caller: the cache layer's ("weights",
    n, m, ranks) entry, built on the first call per process and cache clear."""

    def compute() -> np.ndarray:
        # One reg_inc_beta per rank and grid point i/n: the CDF up to 1/2, the
        # complement past it; a cell that starts at or past 1/2 takes its weight
        # from the complement, any other from the CDF. The error is absolute:
        # weights below about 1e-16 come back as exact 0 (n = 1000, m = 150,
        # j = 1: cell 358 is 3.5e-30, returns 0).
        grid = [i / n for i in range(n + 1)]
        upper = np.array(grid) > 0.5
        past_half = np.arange(n) / n >= 0.5
        out = np.empty((len(ranks), n))
        for w, j in zip(out, ranks):
            a, b = float(j), float(m - j + 1)
            vals = np.array([reg_inc_beta(t, a, b) if t <= 0.5 else reg_inc_beta(1.0 - t, b, a)
                             for t in grid])
            cdf = np.where(upper, 1.0 - vals, vals)
            comp = np.where(upper, vals, 1.0 - vals)
            w[:] = np.where(past_half, comp[:-1] - comp[1:], cdf[1:] - cdf[:-1])
        np.maximum(out, 0.0, out=out)
        return out

    return _cache.lookup(("weights", n, m, ranks), compute)


def _rank_set(m: int, ranks: Iterable[int], name: str = "indices") -> tuple[int, tuple]:
    """m as an int and ranks, a rank j or a set of them, as a non-empty tuple
    of ints within 1..m, or ValueError naming the field `name` (`_integer`)."""
    m, ranks = _integer("m", m, 1), tuple([_integer(name, j) for j in ranks])
    if not ranks:
        raise ValueError(f"{name} must be non-empty")
    if not 1 <= min(ranks) <= max(ranks) <= m:
        raise ValueError(f"{name} must lie in 1..{m}, got {ranks}")
    return m, ranks


def os_weights(n: int, j: int, m: int) -> np.ndarray:
    """L-estimator weights over the sorted sample for rank j of m.

    Nonnegative, summing to one up to roundoff.
    """
    m, ranks = _rank_set(m, (j,), "j")
    return _weights_readonly(_integer("n", n, 1), m, ranks)[0].copy()


def l_estimate(s: Sample, j: int, m: int) -> float:
    """L-estimate of the expected j-th of m order statistics."""
    m, ranks = _rank_set(m, (j,), "j")
    return float(_score_row(s.values, _weights_readonly(s.n, m, ranks))[0][0])


class InterpolatedEcdf(Frozen):
    """Piecewise-linear interpolator of the ECDF jump points.

    Knots are (X_{i:n}, i/n) with tied x-values collapsed to the largest
    i/n. Evaluation clamps to the nearest knot value outside the knot
    range, which keeps the estimate within 1/n of the step ECDF.
    """

    __slots__ = ("knots_x", "knots_y")
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, knots_x: np.ndarray, knots_y: np.ndarray) -> None:
        object.__setattr__(self, "knots_x", knots_x)
        object.__setattr__(self, "knots_y", knots_y)

    def evaluate(self, x):
        arr = np.asarray(x, dtype=float)
        out = np.interp(arr, self.knots_x, self.knots_y)
        return float(out) if arr.ndim == 0 else out

    __call__ = evaluate


def _ecdf_knots(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """ECDF knots of sorted values: each distinct x with its largest i/n."""
    last = np.flatnonzero(np.append(values[1:] != values[:-1], True))
    return values[last], (last + 1) / values.size


def interp_ecdf(s: Sample) -> InterpolatedEcdf:
    """Interpolated ECDF of a sorted sample."""
    return InterpolatedEcdf(*_ecdf_knots(s.values))


# The most ranks the batched ECDF pass takes; measured (see _gaps).
_BATCH_RANKS = 32


def _gaps(chunks: Iterable[tuple[int, np.ndarray]], count: int, n: int,
          arrays: Sequence[tuple[np.ndarray, np.ndarray]]) -> list[np.ndarray]:
    """The count x ranks gap matrix pi_j - F_hat(mu_hat_j) of a table of
    presorted, finite rows of n values for each (weight_mat, pis) of arrays
    (ranks x n weights and their bounds), the table arriving as (first, rows)
    chunks of rows first, first + 1, ... Each row's L-estimates mu_hat_j are
    its product with the weights, its ECDF is evaluated at them, and pi_j less
    that value is written into the gap matrix; the L-estimates live for one
    chunk and one matrix. Rows are scaled, row by row, by the power of two
    that brings max |x| into [1, 2): exact for normal floats, and no underflow
    for a subnormal row. The product runs in _BLOCK_ROWS blocks, so a chunk
    scored alone gets the bytes of those rows of the whole table, and each
    matrix the bytes it gets alone: one _interp_rows pass if it has at most
    _BATCH_RANKS ranks, n <= 512 (chunks of two blocks or more, so callers
    chunk by `_seeds._chunk_rows`) and the chunk has a whole block, else one
    np.interp per row; both give the same bytes.
    A row with a tie, found by one compare along the chunk, is interpolated
    again on collapsed knots (a pair spanning two rows rescores a row to the
    same bytes). A chunk's scaled rows, tied rows' knots and search keys are
    made once for every matrix, the rows and keys in this thread's scratch
    (`_seeds._scratch`). `_score_row` scores one row to the same bytes."""
    out = [np.empty((count, len(pis))) for _, pis in arrays]
    grid = np.arange(1, n + 1) / n
    batched_n = _chunk_rows(n) > _BLOCK_ROWS
    for first, rows in chunks:
        shift = 1 - np.frexp(np.maximum(-rows[:, :1], rows[:, -1:]))[1]
        scaled = np.ldexp(rows, shift, out=_scratch("scaled", len(rows), n))
        tied = scaled.ravel()[1:] == scaled.ravel()[:-1]
        knots = [(r, *_ecdf_knots(scaled[r]))
                 for r in np.flatnonzero(np.bincount(np.flatnonzero(tied) // n))
                 ] if tied.any() else ()
        keys = None
        for (w, pis), gaps in zip(arrays, out):
            mu, ft = np.empty((len(scaled), len(w))), gaps[first : first + len(scaled)]
            for b in range(0, len(scaled), _BLOCK_ROWS):
                mu[b : b + _BLOCK_ROWS] = _blas.matmul(scaled[b : b + _BLOCK_ROWS], w.T)
            redo = range(len(scaled))
            if len(scaled) >= _BLOCK_ROWS and batched_n and len(w) <= _BATCH_RANKS:
                if keys is None:
                    keys = _search_keys(scaled)
                redo = _interp_rows(mu, scaled, grid, ft, keys)
            for r in redo:
                ft[r] = np.interp(mu[r], scaled[r], grid)
            for r, knots_x, knots_y in knots:
                ft[r] = np.interp(mu[r], knots_x, knots_y)
            np.subtract(pis, ft, out=ft)
    return out


def _score_row(x: np.ndarray, weight_mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(mus, fts), both of length ranks: the L-estimates of the one row x
    and its ECDF at them, the bytes `_gaps` gives the one-row table x before
    it subtracts them from the bounds. It is the observed sample's path: one
    product, one np.interp, none of the chunk loop's bookkeeping and no
    scratch."""
    shift = 1 - np.frexp(np.maximum(-x[0], x[-1]))[1]
    scaled = np.ldexp(x, shift)
    mus = _blas.matmul(scaled[np.newaxis], weight_mat.T)[0]
    if (scaled[1:] == scaled[:-1]).any():
        fts = np.interp(mus, *_ecdf_knots(scaled))
    else:
        fts = np.interp(mus, scaled, np.arange(1, len(x) + 1) / len(x))
    return np.ldexp(mus, -shift, out=mus), fts


def _search_keys(x: np.ndarray) -> np.ndarray:
    """The flat keys _interp_rows searches: row r of x (rows in (-2, 2))
    shifted by 8r, in this thread's scratch."""
    keys = _scratch("keys", *x.shape)
    np.add(x, 8.0 * np.arange(len(x))[:, np.newaxis], out=keys)
    return keys.ravel()


def _interp_rows(mus: np.ndarray, x: np.ndarray, grid: np.ndarray, out: np.ndarray,
                 keys: np.ndarray) -> np.ndarray:
    """Write np.interp(mus[r], x[r], grid) into out[r] for every row r of x
    (sorted, in (-2, 2)) with one searchsorted of keys (`_search_keys(x)`),
    and return the rows it could not place, for the caller's np.interp. Row r
    is shifted by 8r, so rows cannot overlap. Rounding is monotone, so the
    search counts every knot at or below mu and, past them, only knots whose
    shifted value collapsed onto mu's: the count is right exactly when its
    last knot, unshifted, is at most mu. The rest is numpy's formula:
    slope * (mu - x[j]) + grid[j], and grid values at the two ends, the last
    knot and an exact knot hit. Its NaN retry cannot change a result: with x
    in (-2, 2) and a strictly increasing grid the formula is NaN only for an
    infinite slope at an exact hit."""
    n = x.shape[1]
    row = np.arange(len(x))[:, np.newaxis]
    found = np.searchsorted(keys, mus + 8.0 * row, "right")
    count = found - n * row
    flat = x.ravel()
    x0, x1 = flat[found - 1], flat[np.minimum(found, flat.size - 1)]
    j = np.clip(count - 1, 0, n - 2)
    g0 = grid[j]
    with np.errstate(all="ignore"):  # x / 0 and inf * 0 only where a mask below writes
        np.subtract(mus, x0, out=out)
        out *= (grid[j + 1] - g0) / (x1 - x0)
    out += g0
    np.copyto(out, g0, where=x0 == mus)
    out[count == 0] = grid[0]
    out[count == n] = grid[-1]
    return np.flatnonzero(((count > 0) & (x0 > mus)).any(axis=1))


class BoundStatus(Enum):
    """Character of an exceedance bound.

    FINITE: the defining expectation converges and the bound is interior.
    TRIVIALLY_ZERO / TRIVIALLY_ONE: the expectation diverges on one side
    only, so the bound is exact but carries no information.
    UNDEFINED: both one-sided expectations diverge; no bound exists.
    """

    FINITE = "finite"
    TRIVIALLY_ZERO = "trivially-zero"
    TRIVIALLY_ONE = "trivially-one"
    UNDEFINED = "undefined"


class PiBound(NamedTuple):
    status: BoundStatus
    value: float | None


def _divergent_ranks(tails: TailInfo, m: int) -> tuple[int, int]:
    """(left_max, right_min) under tail indices `tails`: the one rule that
    turns tail indices into rank limits. The expectation behind pi(j, m)
    diverges on the left for j <= left_max and on the right for j >= right_min,
    so the bound is undefined exactly on right_min <= j <= left_max, and both
    sides converge for left_max < j < right_min. A tail of index a diverges
    at ranks within 1/a + 1e-12 of it, counting the extreme rank as 1."""
    # The expectation of G^{-1}(B_{j:m}) integrates the quantile against a
    # density that decays like p^{j-1} at 0 and (1-p)^{m-j} at 1. A right
    # tail of index alpha makes the integrand of order (1-p)^{m-j-1/alpha},
    # divergent when m - j + 1 <= 1/alpha + 1e-12; symmetrically, the left
    # side diverges when j <= 1/beta + 1e-12. The left-hand sides are
    # integers, so flooring the right-hand sides keeps each comparison exact;
    # capping them at m changes no rank in 1..m and keeps math.floor off the
    # infinite 1/alpha of a subnormal index (an infinite index gives 0).
    left, right = (math.floor(min(1.0 / index + 1e-12, m))
                   for index in (tails.left_index, tails.right_index))
    return left, m + 1 - right


def bound_status(ref: RefFamily, j: int, m: int) -> BoundStatus:
    """Status of pi_bound(ref, j, m), from the tail indices alone."""
    m, (j,) = _rank_set(m, (j,), "j")
    left_max, right_min = _divergent_ranks(ref.tail_info(), m)
    right_div = j >= right_min
    left_div = j <= left_max
    if right_div and left_div:
        return BoundStatus.UNDEFINED
    if right_div or left_div:
        return BoundStatus.TRIVIALLY_ONE if right_div else BoundStatus.TRIVIALLY_ZERO
    return BoundStatus.FINITE


def pi_bound(ref: RefFamily, j: int, m: int) -> PiBound:
    """Null probability that the j-th of m expected order statistics is
    not exceeded, under the standard reference distribution: the one-rank
    case of `_pi_values`, which computes every rank of a bound vector at once.

    Routes, each checked against independent values at every finite rank for
    m in {2, 5, 30, 150, 400} (tests/test_order_stats.py):
    - closed forms: uniform j / (m + 1); exponential 1 - exp(-(H_m - H_{m-j}));
      negative exponential exp(-(H_m - H_{j-1})); log-logistic(1) j / m;
      logistic G(H_{j-1} - H_{m-j}), within 2e-16 of 40-digit values up to
      m = 2000; log-logistic(a) G at the mean B(j + 1/a, m - j + 1 - 1/a) /
      B(j, m - j + 1) through math.lgamma, within 5e-13 up to m = 400 and
      3e-12 at m = 2000 (a = 0.7, 1.5, 3);
    - every other reference (Cauchy, Frechet, Custom): tanh-sinh quadrature
      (`integrate_01`'s rule) of the quantile against the Beta(j, m - j + 1)
      density, as the product of the quantile on the nodes with a ranks x
      nodes matrix of densities. Within 5e-13 of the logistic and
      log-logistic(1.5) closed forms, 2e-12 up to m = 2000. A tail too heavy
      to cut off (Frechet(0.5001), j = 4, m = 5) raises ConvergenceError.
    """
    status = bound_status(ref, j, m)
    if status is BoundStatus.UNDEFINED:
        return PiBound(status, None)
    return PiBound(status, float(_pi_values(ref, m, (j,))[0]))


def _pi_values(ref: RefFamily, m: int, ranks: Sequence[int]) -> np.ndarray:
    """pi(j, m) for each of ranks, none of which may be UNDEFINED: 0 or 1 where
    one side of the expectation diverges, else by the route `pi_bound` names.
    The quadrature evaluates the quantile once per step size for all ranks
    and refines only the ranks that have not converged; ConvergenceError
    names the first rank that does not.
    """
    left_max, right_min = _divergent_ranks(ref.tail_info(), m)
    js = np.asarray(ranks, dtype=np.int64)
    out = (js >= right_min).astype(float)
    finite = (js > left_max) & (js < right_min)
    if finite.any():
        out[finite] = _finite_pis(ref, m, js[finite])
    return out


def _finite_pis(ref: RefFamily, m: int, js: np.ndarray):
    """pi(j, m) for ranks js whose expectation converges on both sides."""
    ranks = js.tolist()
    if isinstance(ref, Uniform):
        return [j / (m + 1) for j in ranks]
    if isinstance(ref, LogLogistic) and ref.a == 1.0:
        return [j / m for j in ranks]
    if isinstance(ref, (Exponential, NegExponential, Logistic)):
        # inv[k - 1] = 1/k. math.fsum rounds the exact sum once, so the sum of
        # a slice is the correctly rounded partial harmonic sum over those k.
        inv = [1.0 / k for k in range(1, m + 1)]
        if isinstance(ref, Exponential):  # H_m - H_{m-j}
            return [-math.expm1(-math.fsum(inv[m - j : m])) for j in ranks]
        if isinstance(ref, NegExponential):  # H_m - H_{j-1}
            return [math.exp(-math.fsum(inv[j - 1 : m])) for j in ranks]
        # Logistic: G(H_{j-1} - H_{m-j}).
        return ref.cdf(np.array([math.fsum(inv[m - j : j - 1]) if j - 1 >= m - j
                                 else -math.fsum(inv[j - 1 : m - j]) for j in ranks]))
    if isinstance(ref, LogLogistic):
        s = 1.0 / ref.a
        return ref.cdf(np.exp([math.lgamma(j + s) - math.lgamma(j)
                               + math.lgamma(m - j + 1 - s) - math.lgamma(m - j + 1)
                               for j in ranks]))

    # Split the expectation at probability 1/2 and fold the upper half onto
    # (0, 1/2) through the complement quantile and the Beta reflection
    # B_{j:m} =d 1 - B_{m-j+1:m}. Quadrature nodes reach within 1e-302 of 0
    # (floats are dense there) but round to 1 within about 1e-16 of it, so any
    # integrable singularity from a heavy right tail must be moved to the origin.
    # Keep p off 0, where the quantile jumps to the support endpoint; the clamp
    # moves only nodes within 2e-300 of 0.
    def half(quantile, shapes: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        def rowwise(u: np.ndarray, half_q: np.ndarray, rows: np.ndarray) -> np.ndarray:
            pdf = _beta_pdf_interior(np.maximum(0.5 * u, 1e-300), shapes[rows, np.newaxis], m)
            pdf *= half_q
            return pdf

        return _integrate_01_rows(lambda u: 0.5 * quantile(np.maximum(0.5 * u, 1e-300)),
                                  rowwise, len(shapes), rel_tol=1e-10, abs_tol=5e-13)

    (lower, _, lower_ok), (upper, _, upper_ok) = (half(ref.quantile, js),
                                                 half(ref.quantile_complement, m - js + 1))
    failed = np.flatnonzero(~(lower_ok & upper_ok))
    if failed.size:
        raise ConvergenceError(
            f"quadrature failed for pi bound j={ranks[failed[0]]}, m={m} under {ref.cache_key()}"
        )
    return ref.cdf(lower + upper)


def hill_estimate(s: Sample, k: int | None = None) -> float:
    """Hill estimator of the right tail index from the top k log-spacings.

    Defaults to k = floor(sqrt(n)). Requires the top k + 1 order
    statistics to be strictly positive.
    """
    n = s.n
    k = _integer("k", math.isqrt(n) if k is None else k, 1)
    if k >= n:
        raise ValueError(f"require k < n, got k={k}, n={n}")
    top = s.values[n - k - 1 :]
    if top[0] <= 0.0:
        raise ValueError("top k + 1 order statistics must be strictly positive")
    logs = np.log(top[1:]) - math.log(top[0])
    total = float(np.sum(logs))
    if total <= 0.0:
        raise ValueError("degenerate top order statistics; tail index undefined")
    return k / total
