"""Proschan-Pyke style exponentiality test against monotone hazard rate
alternatives.

The statistic counts strictly ordered pairs among normalized spacings of
the sorted sample. Under exponentiality its distribution is parameter
free, so critical values come from Monte Carlo under the standard
exponential. The spacings omit any artificial origin term, which makes
the statistic invariant under location and scale changes. One vector or a
whole table of draws is counted by one sweep over per-row ranks: O(rows k^2)
comparisons of small integers in O(rows k) memory.
"""

from __future__ import annotations

import numpy as np

from . import _cache
from ._seeds import _sorted_draws
from .distributions import Alternative, Exponential, RefFamily
from .order_stats import Sample
from .testing import TestResult, _check_mc, _result

__all__ = ["normalized_spacings", "pp_statistic", "pp_test"]

_SIDES = ("ihr", "dhr")
# Rows ranked at a time: a chunk's sorted copy and int64 argsort stay small.
_RANK_ROWS = 256


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


def _spacings(x: np.ndarray) -> np.ndarray:
    """Normalized spacings along the last axis of presorted x."""
    d = np.diff(x, axis=-1)
    d *= np.arange(x.shape[-1] - 1, 0, -1, dtype=float)
    return d


def _pair_counts(d: np.ndarray) -> tuple:
    """(#{i < j: d_i > d_j}, #{i < j: d_i < d_j}) along the last axis of d,
    as two ints for a vector or two float arrays for a rows x k table.

    A value's rank counts the values below it in its row, so a tied pair
    counts in neither; one sweep over the columns of the k x rows ranks
    counts ihr, and a row's ranks sum to ihr + dhr.
    """
    d = np.asarray(d, dtype=float)
    k = d.shape[-1]
    table = d.reshape(-1, k)
    pos = np.arange(k, dtype=np.min_scalar_type(k))
    ranks = np.empty((k, len(table)), dtype=pos.dtype)
    for lo in range(0, len(table), _RANK_ROWS):
        part = table[lo : lo + _RANK_ROWS]
        s = np.sort(part, axis=1)
        first = np.zeros(part.shape, dtype=pos.dtype)
        np.copyto(first[:, 1:], pos[1:], where=s[:, 1:] != s[:, :-1])
        np.maximum.accumulate(first, axis=1, out=first)
        np.put_along_axis(ranks.T[lo : lo + _RANK_ROWS], np.argsort(part, axis=1), first, axis=1)
    ihr = np.zeros(len(table))
    for j in range(1, k):
        # At most j < k pairs per row, so the rank dtype holds the sum.
        ihr += (ranks[:j] > ranks[j]).sum(axis=0, dtype=ranks.dtype)
    dhr = ranks.sum(axis=0, dtype=float) - ihr
    if d.ndim == 1:
        return int(ihr[0]), int(dhr[0])
    return ihr, dhr


def _pp_counts(sorted_rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pair counts (ihr, dhr) of the normalized spacings of each presorted row."""
    return _pair_counts(_spacings(sorted_rows))


def pp_statistic(d: np.ndarray) -> int:
    """Count of pairs i < j with d_i strictly greater than d_j."""
    d = np.asarray(d, dtype=float)
    if d.ndim != 1 or d.size < 1 or np.isnan(d).any():
        raise ValueError("spacings must form a non-empty 1-D vector without NaN")
    return _pair_counts(d)[0]


def _pp_table(family: RefFamily | Alternative, n: int, count: int, seed: int,
              label: str) -> tuple[np.ndarray, np.ndarray]:
    """Sorted, read-only pair counts (ihr, dhr) of the drawn table
    _sorted_draws(family, n, count, seed, label), held by the cache layer."""

    def compute() -> tuple[np.ndarray, np.ndarray]:
        v_ihr, v_dhr = _pp_counts(_sorted_draws(family, n, count, seed, label))
        return np.sort(v_ihr), np.sort(v_dhr)

    return _cache.lookup(("pairs", label, family.identity(), n, count, seed), compute)


def _pp_null(n: int, trials: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Sorted, read-only null pair counts (ihr, dhr)."""
    return _pp_table(Exponential(), n, trials, seed, "pp-null")


def _check_pp_args(side: str, sig_level: float, mc_trials: int, n: int) -> None:
    """The checks pp_test and pp_power share."""
    if side not in _SIDES:
        raise ValueError(f"side must be one of {_SIDES}, got {side!r}")
    _check_mc(sig_level, mc_trials)
    if n < 3:
        raise ValueError("need at least three observations")


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
    _check_pp_args(side, sig_level, mc_trials, s.n)
    k = _SIDES.index(side)
    v_obs = float(_pair_counts(normalized_spacings(s))[k])
    config = {"test": "proschan-pyke", "n": s.n, "side": side, "alpha": sig_level,
              "trials": mc_trials, "seed": seed}
    return _result(_pp_null(s.n, mc_trials, seed)[k], sig_level, v_obs, side, s.n, (), config)
