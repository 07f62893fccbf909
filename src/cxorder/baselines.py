"""Proschan-Pyke style exponentiality test against monotone hazard rate
alternatives.

The statistic counts strictly ordered pairs among normalized spacings of
the sorted sample. Under exponentiality its distribution is parameter
free, so critical values come from Monte Carlo under the standard
exponential. The spacings omit any artificial origin term, which makes
the statistic invariant under location and scale changes.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from . import _cache
from ._cache import clear_caches
from ._seeds import _sorted_draws
from .distributions import Alternative, Exponential, RefFamily
from .order_stats import Sample
from .testing import TestResult, _check_mc, _critical, _p_value

__all__ = ["normalized_spacings", "pp_statistic", "pp_test"]

_SIDES = ("ihr", "dhr")


def normalized_spacings(s: Sample) -> np.ndarray:
    """Normalized spacings (n - i)(X_{i+1:n} - X_{i:n}) for i = 1 .. n - 1.

    Each gap is scaled by the count of observations above its lower end,
    so the spacings are iid standard exponential when the sample is
    exponential. An increasing hazard rate pushes the sequence
    stochastically downward along i.
    """
    x = s.values
    n = x.size
    if n < 2:
        raise ValueError("need at least two observations for spacings")
    coef = np.arange(n - 1, 0, -1, dtype=float)
    return coef * np.diff(x)


@lru_cache(maxsize=64)
def _upper_mask(k: int) -> np.ndarray:
    """k x k mask of the strict upper triangle, read-only."""
    mask = np.triu(np.ones((k, k), dtype=bool), k=1)
    mask.setflags(write=False)
    return mask


def _pair_counts(d: np.ndarray) -> tuple[int, int]:
    """(#{i < j: d_i > d_j}, #{i < j: d_i < d_j}); tied pairs count in neither."""
    gt = d[:, None] > d[None, :]
    ihr = int(np.count_nonzero(gt & _upper_mask(d.size)))
    return ihr, int(np.count_nonzero(gt)) - ihr


def _pp_counts(sorted_rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pair counts (ihr, dhr) of the normalized spacings of each presorted row."""
    coef = np.arange(sorted_rows.shape[1] - 1, 0, -1, dtype=float)
    d = coef * np.diff(sorted_rows, axis=1)
    counts = np.array([_pair_counts(row) for row in d], dtype=float).reshape(-1, 2)
    return counts[:, 0], counts[:, 1]


def pp_statistic(d: np.ndarray) -> int:
    """Count of pairs i < j with d_i strictly greater than d_j."""
    d = np.asarray(d, dtype=float)
    if d.ndim != 1 or d.size < 1:
        raise ValueError("spacings must form a non-empty 1-D vector")
    if d.size == 1:
        return 0
    return _pair_counts(d)[0]


def _pp_table(family: RefFamily | Alternative, n: int, count: int, seed: int,
              label: str) -> tuple[np.ndarray, np.ndarray]:
    """Sorted, read-only pair counts (ihr, dhr) of the drawn table
    _sorted_draws(family, n, count, seed, label), held by the cache layer."""

    def compute() -> tuple[np.ndarray, np.ndarray]:
        v_ihr, v_dhr = _pp_counts(_sorted_draws(family, n, count, seed, label))
        return np.sort(v_ihr), np.sort(v_dhr)

    return _cache.lookup(("pairs", label, family.cache_key(), n, count, seed), compute)


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
    null = _pp_null(s.n, mc_trials, seed)[k]
    crit = _critical(null, sig_level)
    return TestResult(
        side=side,
        statistic=v_obs,
        critical_value=crit,
        p_value=_p_value(null, v_obs),
        reject=bool(v_obs >= crit),
        n=s.n,
        per_index=(),
        config={
            "test": "proschan-pyke",
            "side": side,
            "n": s.n,
            "alpha": sig_level,
            "trials": mc_trials,
            "seed": seed,
        },
    )
