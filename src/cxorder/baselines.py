"""Proschan-Pyke style exponentiality test against monotone hazard rate
alternatives.

The statistic counts strictly ordered pairs among normalized spacings of
the sorted sample. Under exponentiality its distribution is parameter
free, so critical values come from Monte Carlo under the standard
exponential. The spacings omit any artificial origin term, which makes
the statistic invariant under location and scale changes. One vector or a
table is counted by one sweep over per-row ranks: O(rows k^2) comparisons
of small integers in O(rows k) memory. A Monte Carlo table is ranked chunk
by chunk as `DrawTable.chunks()` draws it, so it holds its k x rows rank
matrix and one chunk of draws, never the table.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from . import _cache
from ._seeds import DrawTable, _scratch
from .distributions import Exponential, _integer
from .order_stats import Sample
from .testing import TestResult, _check_mc, _result

__all__ = ["normalized_spacings", "pp_statistic", "pp_test"]

_SIDES = ("ihr", "dhr")


def normalized_spacings(s: Sample) -> np.ndarray:
    """Normalized spacings (n - i)(X_{i+1:n} - X_{i:n}) for i = 1 .. n - 1.

    Each gap is scaled by the count of observations above its lower end,
    so the spacings are iid standard exponential when the sample is
    exponential. An increasing hazard rate pushes the sequence
    stochastically downward along i.
    """
    if s.n < 2:
        raise ValueError("need at least two observations for spacings")
    return _spacings(s.values)


def _spacings(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Normalized spacings along the last axis of presorted x, in out if given."""
    d = np.subtract(x[..., 1:], x[..., :-1], out=out)
    d *= np.arange(x.shape[-1] - 1, 0, -1, dtype=float)
    return d


def _counts(parts: Iterable[tuple[int, np.ndarray]], k: int,
            rows: int) -> tuple[np.ndarray, np.ndarray]:
    """Float pair counts (ihr, dhr) of each row of a rows x k table that
    arrives as (first, part) pieces of rows first, first + 1, ... Each part
    is sorted in place and ranked into one C-order k x rows matrix: a rank
    counts the values below it in its row, so a tied pair counts in neither.
    One sweep over the matrix counts ihr; a row's ranks sum to ihr + dhr."""
    ranks = np.empty((k, rows), dtype=np.min_scalar_type(k))
    pos = np.arange(k, dtype=ranks.dtype)
    for first, d in parts:
        order = np.argsort(d, axis=1)
        d.sort(axis=1)
        tied = np.zeros(d.shape, dtype=ranks.dtype)
        np.copyto(tied[:, 1:], pos[1:], where=d[:, 1:] != d[:, :-1])
        np.maximum.accumulate(tied, axis=1, out=tied)
        np.put_along_axis(ranks[:, first : first + len(d)].T, order, tied, axis=1)
    ihr = np.zeros(rows)
    for j in range(1, k):
        # At most j < k pairs per row, so the rank dtype holds the sum.
        ihr += (ranks[:j] > ranks[j]).sum(axis=0, dtype=ranks.dtype)
    return ihr, ranks.sum(axis=0, dtype=float) - ihr


def _pair_counts(d: np.ndarray) -> tuple[int, int]:
    """(#{i < j: d_i > d_j}, #{i < j: d_i < d_j}) of the vector d."""
    row = np.array(d, dtype=float, ndmin=2)  # a copy, which _counts sorts
    ihr, dhr = _counts([(0, row)], row.shape[1], 1)
    return int(ihr[0]), int(dhr[0])


def pp_statistic(d: np.ndarray) -> int:
    """Count of pairs i < j with d_i strictly greater than d_j."""
    d = np.asarray(d, dtype=float)
    if d.ndim != 1 or d.size < 1 or np.isnan(d).any():
        raise ValueError("spacings must form a non-empty 1-D vector without NaN")
    return _pair_counts(d)[0]


def _pp_table(table: DrawTable) -> tuple[np.ndarray, np.ndarray]:
    """Sorted, read-only pair counts (ihr, dhr) of the normalized spacings of
    each row of an engine table, held by the cache layer under ("pairs",
    table.key()). Each chunk's spacings are ranked as the chunk is drawn, in
    this thread's scratch (`_seeds._scratch`)."""

    def compute() -> tuple[np.ndarray, np.ndarray]:
        parts = ((first, _spacings(rows, _scratch("spacings", len(rows), table.n - 1)))
                 for first, rows in table.chunks())
        return tuple(map(np.sort, _counts(parts, table.n - 1, table.count)))

    return _cache.lookup(("pairs", table.key()), compute)


def _pp_null(n: int, trials: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Sorted, read-only null pair counts (ihr, dhr)."""
    return _pp_table(DrawTable(Exponential(), n, trials, seed, "pp-null"))


def _check_pp_args(side: str, sig_level: float, mc_trials: int, n: int) -> tuple[int, int]:
    """The checks pp_test and pp_power share; returns mc_trials and n (at least 3) as ints."""
    if side not in _SIDES:
        raise ValueError(f"side must be one of {_SIDES}, got {side!r}")
    return _check_mc(sig_level, mc_trials), _integer("n", n, 3)


def pp_test(
    s: Sample,
    side: str = "ihr",
    sig_level: float = 0.1,
    mc_trials: int = 5000,
    seed: int = 0,
) -> TestResult:
    """Monte Carlo Proschan-Pyke test of exponentiality.

    side "ihr" rejects for many strictly decreasing spacing pairs; side
    "dhr" counts the reversed inequality and again rejects for large
    values. Needs at least three observations so that spacing pairs exist.
    """
    mc_trials, _ = _check_pp_args(side, sig_level, mc_trials, s.n)
    seed = _integer("seed", seed)
    k = _SIDES.index(side)
    v_obs = float(_pair_counts(normalized_spacings(s))[k])
    config = {"test": "proschan-pyke", "n": s.n, "side": side, "alpha": sig_level,
              "trials": mc_trials, "seed": seed}
    return _result(_pp_null(s.n, mc_trials, seed)[k], sig_level, v_obs, side, s.n, (), config)
