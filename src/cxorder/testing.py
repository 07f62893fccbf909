"""Hypothesis tests for convex-ordered alternatives.

The statistic measures, in a chosen p-norm, how far the interpolated ECDF
evaluated at L-estimates of expected order statistics falls short of (or
overshoots) the null exceedance bounds. One kernel (`order_stats._gaps`)
turns every table, drawn or given by the caller, into its gap matrix one
chunk at a time, and `_score_row` scores the sample to the same bytes as a
one-row table; one rule (`_decide`) makes every decision. Critical
values and p-values come from Monte Carlo draws under the standard
reference, one RNG stream per (seed, reference, n, block of rows), so
results never depend on scheduling.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from enum import Enum
from itertools import repeat
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import _cache
from ._cache import CACHE_DIR_ENV, clear_caches
from ._seeds import DrawTable, _chunk_rows
from .distributions import Frozen, RefFamily, TailInfo, _integer
from .order_stats import (
    Sample, _divergent_ranks, _gaps, _pi_values, _rank_set, _score_row, _weights_readonly,
)
from .order_stats import pi_bound  # noqa: F401  (perfbench traces this binding)

__all__ = [
    "CACHE_DIR_ENV",
    "IndexDiagnostic",
    "InfeasibleSpecError",
    "Side",
    "TestResult",
    "TestSpec",
    "batch_statistics",
    "clear_caches",
    "critical_value",
    "default_m",
    "null_statistics",
    "p_value",
    "run_test",
    "select_indices",
    "statistic",
]

_INDEX_RULES = (None, "low", "high", "central")


class Side(str, Enum):
    UPPER = "upper"
    LOWER = "lower"
    BOTH = "both"


class InfeasibleSpecError(ValueError):
    """No admissible index set satisfies the requested constraints."""


def default_m(n: int) -> int:
    """Default number of expected order statistics.

    About 15 percent of the sample size, the region where simulated power
    is near its best across the families studied here.
    """
    return max(1, math.ceil(0.15 * n))


def select_indices(
    ref: RefFamily,
    m: int,
    ell: int,
    assumed_tails: TailInfo | None = None,
    rule: str | None = None,
) -> tuple[int, ...]:
    """Choose ell ranks j whose L-estimates converge and whose bounds exist.

    The tails are the weaker (smaller) index on each side of the reference's
    and the assumed data tails. The eligible ranks are those where neither
    side of the expectation diverges under `order_stats._divergent_ranks`,
    the one rank rule: a side of index a excludes the ranks within
    1/a + 1e-12 of its tail, counting the extreme rank as 1, and an infinite
    index excludes none. So every eligible rank has a finite exceedance bound.

    When only the right-tail constraint binds (alpha <= 1) the ell smallest
    eligible ranks are returned, keeping farthest from the dangerous tail; a
    binding left tail mirrors this with the ell largest; when both or neither
    bind, the most central block is used. `rule` overrides the default with
    one of "low", "high", "central". A spec gives either ell, which leads
    here, or an explicit index list, which bypasses this selection; never
    both.
    """
    m, ell = _integer("m", m, 1), _integer("ell", ell, 1)
    if ell > m:
        raise ValueError(f"require ell <= m, got ell={ell}, m={m}")
    tails = ref.tail_info()
    if assumed_tails is not None:
        tails = TailInfo(min(tails.right_index, assumed_tails.right_index),
                         min(tails.left_index, assumed_tails.left_index))
    left_max, right_min = _divergent_ranks(tails, m)
    eligible = range(left_max + 1, right_min)
    if len(eligible) < ell:
        raise InfeasibleSpecError(
            f"only {len(eligible)} eligible ranks for m={m} under {ref.cache_key()} with "
            f"tails (alpha={tails.right_index}, beta={tails.left_index}); need ell={ell}"
        )
    right_binds = tails.right_index <= 1.0
    left_binds = tails.left_index <= 1.0
    if rule is None:
        if right_binds and not left_binds:
            rule = "low"
        elif left_binds and not right_binds:
            rule = "high"
        else:
            rule = "central"
    if rule == "low":
        chosen = eligible[:ell]
    elif rule == "high":
        chosen = eligible[-ell:]
    elif rule == "central":
        start = (len(eligible) - ell) // 2
        chosen = eligible[start : start + ell]
    else:
        raise ValueError(f"unknown index rule {rule!r}")
    return tuple(chosen)


@dataclass(frozen=True)
class TestSpec:
    """Configuration of one test of the null location-scale family.

    Exactly one of `indices` (explicit ranks) and `ell` (automatic
    selection, optionally informed by `assumed_tails` and `index_rule`)
    may be given; with neither, all ranks 1..m are used. `assumed_tails`
    and `index_rule` only steer that selection, so resolving a spec that
    sets either without `ell` raises ValueError. Leaving `m` unset picks
    the default heuristic at resolution time.
    """

    ref: RefFamily
    m: int | None = None
    p_norm: float = 1.0
    side: Side = Side.UPPER
    indices: tuple[int, ...] | None = None
    ell: int | None = None
    assumed_tails: TailInfo | None = None
    index_rule: str | None = None
    sig_level: float = 0.1
    mc_trials: int = 5000
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "side", Side(self.side))
        object.__setattr__(self, "p_norm", _check_p(self.p_norm))
        for name in ("m", "ell"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, _integer(name, getattr(self, name), 1))
        object.__setattr__(self, "mc_trials", _check_mc(self.sig_level, self.mc_trials))
        object.__setattr__(self, "sig_level", float(self.sig_level))
        object.__setattr__(self, "seed", _integer("seed", self.seed))
        if self.indices is not None and self.ell is not None:
            raise ValueError("give either explicit indices or ell, not both")
        if self.index_rule not in _INDEX_RULES:
            raise ValueError(f"unknown index rule {self.index_rule!r}")
        if self.indices is not None:
            indices = tuple(_integer("indices", j) for j in self.indices)
            object.__setattr__(self, "indices", indices)

    def resolve(self, n: int) -> "TestSpec":
        """The pinned spec for a sample of size n: m and the index set filled
        in, ell and the rank-choice settings cleared. A pinned spec (m and
        indices given) resolves to itself, the same object, once its ranks
        pass the checks; any other spec to a new pinned copy."""
        n = _integer("n", n, 1)
        if self.ell is None and (self.assumed_tails or self.index_rule):
            raise ValueError("assumed_tails and index_rule choose ranks under ell; give ell")
        m = self.m if self.m is not None else default_m(n)
        if self.indices is not None:
            m, idx = _rank_set(m, self.indices)
            if any(map(operator.ge, idx, idx[1:])):
                raise ValueError(f"indices must be strictly increasing, got {idx}")
        elif self.ell is not None:
            idx = select_indices(
                self.ref, m, self.ell, self.assumed_tails, self.index_rule
            )
        else:
            idx = tuple(range(1, m + 1))
        _require_bounds(self.ref, m, idx,
                        "; pass ell to restrict the ranks" if self.indices is None else "")
        if self.m is not None and self.indices is not None:
            return self
        pinned = object.__new__(type(self))  # replace() would re-run __post_init__
        pinned.__dict__.update(vars(self), m=m, indices=idx, ell=None, assumed_tails=None,
                               index_rule=None)
        return pinned


class IndexDiagnostic(NamedTuple):
    """Per-rank pieces of the statistic."""

    j: int
    pi: float
    mu_hat: float
    ecdf_at_mu: float
    gap: float


class TestResult(Frozen):
    __slots__ = ("side", "statistic", "critical_value", "p_value", "reject", "n", "per_index",
                 "config")

    def __init__(self, side: str, statistic: float, critical_value: float, p_value: float,
                 reject: bool, n: int, per_index: tuple, config: dict) -> None:
        object.__setattr__(self, "side", side)
        object.__setattr__(self, "statistic", statistic)
        object.__setattr__(self, "critical_value", critical_value)
        object.__setattr__(self, "p_value", p_value)
        object.__setattr__(self, "reject", reject)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "per_index", per_index)
        object.__setattr__(self, "config", config)


def _require_bounds(ref: RefFamily, m: int, ranks: Sequence[int], hint: str = "") -> None:
    """Raise InfeasibleSpecError, ending in hint, at the first of ranks whose
    exceedance bound under ref is undefined (`_divergent_ranks`)."""
    left_max, right_min = _divergent_ranks(ref.tail_info(), m)
    if right_min > left_max:
        return
    for j in ranks:
        if right_min <= j <= left_max:
            raise InfeasibleSpecError(
                f"exceedance bound undefined at j={j}, m={m} under {ref.cache_key()}{hint}"
            )


def _check_mc(sig_level: float, mc_trials: int) -> int:
    """The Monte Carlo settings every test checks; returns mc_trials as an int."""
    if not 0.0 < sig_level < 1.0:
        raise ValueError("sig_level must lie strictly between 0 and 1")
    return _integer("mc_trials", mc_trials, 100)


def _check_p(p_norm: float) -> float:
    """p_norm as a float, checked to be at least 1 (math.inf allowed)."""
    p_norm = float(p_norm)
    if not p_norm >= 1.0:
        raise ValueError("p_norm must be at least 1 (math.inf allowed)")
    return p_norm


def _pnorm(parts: np.ndarray, p: float) -> np.ndarray | float:
    """The p-norm along the last axis of nonnegative parts, which it may
    overwrite."""
    # np.add.reduce and np.maximum.reduce are what .sum and .max call.
    if math.isinf(p):
        return np.maximum.reduce(parts, axis=-1)
    if p == 1.0:
        return np.add.reduce(parts, axis=-1)
    return np.power(np.add.reduce(np.power(parts, p, out=parts), axis=-1), 1.0 / p)


def _t_pair(gaps: np.ndarray, p: float) -> tuple:
    """T+ and T- of a gap vector, or of each row of a gap matrix, through
    one scratch array the size of gaps."""
    parts = np.maximum(gaps, 0.0)
    t_plus = _pnorm(parts, p)
    np.negative(gaps, out=parts)
    return t_plus, _pnorm(np.maximum(parts, 0.0, out=parts), p)


def _arrays_for(
    ref: RefFamily, n: int, m: int, indices: Sequence[int]
) -> tuple[np.ndarray, np.ndarray]:
    """The read-only ranks x n weight matrix and bound vector pi_j of the
    given ranks, a tuple of checked ints, each one cache-layer entry computed
    once per process and cache clear: ("weights", n, m, indices), built by
    `_weights_readonly`, and ("bounds", ref.identity(), m, indices), as the
    bounds depend only on (reference, m, ranks), and come from one
    `_pi_values` call. A rank without a bound raises InfeasibleSpecError, and
    a bound whose quadrature fails raises ConvergenceError, on every call; no
    bound vector is stored for either.
    """

    def bounds() -> np.ndarray:
        _require_bounds(ref, m, indices)
        return _pi_values(ref, m, indices)

    weight_mat = _weights_readonly(n, m, indices)
    return weight_mat, _cache.lookup(("bounds", ref.identity(), m, indices), bounds)


def _table_gaps(table: DrawTable, ref: RefFamily, rank_sets: Sequence[tuple[int, Sequence[int]]],
                arrays_of: Callable | None = None) -> list[np.ndarray]:
    """The gap matrix of an engine table for each checked (m, indices) of
    rank_sets: the cache layer's ("gaps", table.key(), ref.identity(), m, indices) entry.

    Every entry missing from the layer comes from one `_gaps` pass over the
    table's chunks, which are drawn, scored for every missing rank set at once
    and dropped one at a time, so the table is never held whole. Its weights
    and bounds come from arrays_of((m, indices)), by default `_arrays_for`."""
    keys = [("gaps", table.key(), ref.identity(), *ranks) for ranks in rank_sets]
    found = {key: _cache.get(key) for key in keys}
    missing = {key: ranks for key, ranks in zip(keys, rank_sets) if found[key] is None}
    if missing:
        arrays = [_arrays_for(ref, table.n, *ranks) if arrays_of is None else arrays_of(ranks)
                  for ranks in missing.values()]
        for key, value in zip(missing, _gaps(table.chunks(), table.count, table.n, arrays)):
            found[key] = _cache.keep(key, value)
    return [found[key] for key in keys]


def batch_statistics(
    sorted_rows: np.ndarray | DrawTable,
    ref: RefFamily,
    m: int,
    indices: Sequence[int],
    p_norm: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Upper and lower statistics for each row of a table.

    The table is either caller rows, an array or nested sequences of floats
    that must be finite, non-empty and sorted ascending and are checked and
    scored afresh, or an engine table named by its DrawTable, whose gap
    matrix (`_table_gaps`) the cache layer holds per (reference, m, indices).
    Both go through `_gaps` in the draw engine's chunks, and rows are scored
    as `statistic` scores a sample.
    Returns a pair of length-R arrays. The gap matrix does not depend on
    p_norm, which must be at least 1.
    """
    m, indices = _rank_set(m, indices)
    p_norm = _check_p(p_norm)
    if isinstance(sorted_rows, DrawTable):
        (gaps,) = _table_gaps(sorted_rows, ref, [(m, indices)])
    else:
        sorted_rows = np.asarray(sorted_rows, dtype=float)
        if sorted_rows.ndim != 2 or sorted_rows.shape[1] == 0:
            raise ValueError("sorted_rows must be a 2-D array of at least one column")
        if not np.isfinite(sorted_rows).all() or (sorted_rows[:, 1:] < sorted_rows[:, :-1]).any():
            raise ValueError("each row of sorted_rows must be finite and sorted ascending")
        count, n = sorted_rows.shape
        step = _chunk_rows(n)
        chunks = ((lo, sorted_rows[lo : lo + step]) for lo in range(0, count, step))
        (gaps,) = _gaps(chunks, count, n, [_arrays_for(ref, n, m, indices)])
    t_plus, t_minus = _t_pair(gaps, p_norm)
    return np.asarray(t_plus), np.asarray(t_minus)


def _null_key(ref: RefFamily, n: int, m: int, indices: Sequence[int], p_norm: float,
              trials: int, seed: int) -> tuple:
    """The cache key of null_statistics(ref, n, m, indices, p_norm, trials, seed)."""
    return ("null", ref.identity(), n, m, indices, float(p_norm), trials, seed)


def null_statistics(
    ref: RefFamily,
    n: int,
    m: int,
    indices: Sequence[int],
    p_norm: float,
    trials: int,
    seed: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Sorted, read-only upper and lower null statistics for the given
    configuration.

    Held by the cache layer in memory, and on disk as well when the cache
    directory environment variable is set. On a miss the null table is
    scored by batch_statistics, looked up through this module's global, so a
    caller that wraps it sees every table this function computes. A power
    grid stores the same entries from its own passes (`_rejections`) and
    calls neither function.
    """
    n, trials, seed = _integer("n", n, 1), _integer("trials", trials, 1), _integer("seed", seed)
    m, indices = _rank_set(m, indices)
    p_norm = _check_p(p_norm)

    def compute() -> tuple[np.ndarray, np.ndarray]:
        table = DrawTable(ref, n, trials, seed, "null")
        t_plus, t_minus = batch_statistics(table, ref, m, indices, p_norm)
        return np.sort(t_plus), np.sort(t_minus)

    return _cache.lookup(_null_key(ref, n, m, indices, p_norm, trials, seed), compute,
                         disk_length=trials)


def _decide(null_sorted: np.ndarray, sig_level: float, stats=0.0) -> tuple:
    """The critical value, the ceil((1 - sig_level) T)-th of T sorted null
    statistics, and the decision stats >= it on one statistic or an array of
    them: the one decision rule of every test and power estimate."""
    trials = len(null_sorted)
    rank = min(trials, max(1, math.ceil((1.0 - sig_level) * trials)))
    crit = float(null_sorted[rank - 1])
    return crit, stats >= crit


def _p_value(null_sorted: np.ndarray, t_obs: float) -> float:
    """Add-one p-value (1 + #{T_sim >= t_obs}) / (T + 1) of T sorted null
    statistics; the count is T less the number below t_obs."""
    trials = len(null_sorted)
    return (1 + trials - int(null_sorted.searchsorted(t_obs, "left"))) / (trials + 1)


def _result(null_sorted: np.ndarray, sig_level: float, t_obs: float, side: str, n: int,
            per_index: tuple[IndexDiagnostic, ...], config: dict) -> TestResult:
    """The TestResult of statistic t_obs against T sorted null statistics,
    decided by `_decide` with the p-value of `_p_value`."""
    crit, reject = _decide(null_sorted, sig_level, t_obs)
    return TestResult(side, t_obs, crit, _p_value(null_sorted, t_obs), reject, n, per_index,
                      config)


def _nulls(pinned: TestSpec, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Sorted upper and lower null statistics for a pinned spec."""
    return null_statistics(pinned.ref, n, pinned.m, pinned.indices, pinned.p_norm,
                           pinned.mc_trials, pinned.seed)


def _pick(pair: tuple, side: Side):
    """The upper or the lower member of an (upper, lower) pair."""
    return pair[0] if side is Side.UPPER else pair[1]


def _rejections(spec: TestSpec, n: int, rank_sets: Sequence[tuple[int, Sequence[int]]],
                alt: DrawTable) -> list[np.ndarray]:
    """For each checked (m, indices) of rank_sets, whether each row of the
    alternative table alt rejects under spec at n (`_decide`). Null statistics
    the cache layer holds, in memory or on disk, are read; the rest are reduced
    from the gap matrices of one `_table_gaps` pass over the null table and
    stored by `_cache.lookup`, so no value this call computes is read back
    through the cache, weights and bounds included. One pass scores alt."""
    p, trials = spec.p_norm, spec.mc_trials
    arrays_of = functools.cache(lambda ranks: _arrays_for(spec.ref, n, *ranks))
    keys = [_null_key(spec.ref, n, m, idx, p, trials, spec.seed) for m, idx in rank_sets]
    nulls = {key: _cache.get(key, trials) for key in keys}
    missing = {key: ranks for key, ranks in zip(keys, rank_sets) if nulls[key] is None}
    table = DrawTable(spec.ref, n, trials, spec.seed, "null")
    for key, gaps in zip(missing, _table_gaps(table, spec.ref, list(missing.values()), arrays_of)):
        pair = tuple(map(np.sort, _t_pair(gaps, p)))
        nulls[key] = _cache.lookup(key, lambda: pair, trials)
    return [_decide(_pick(nulls[key], spec.side), spec.sig_level,
                    _pick(_t_pair(gaps, p), spec.side))[1]
            for key, gaps in zip(keys, _table_gaps(alt, spec.ref, rank_sets, arrays_of))]


def _prepared(spec: TestSpec, n: int) -> tuple:
    """All a run_test of spec at sample size n needs but the sample, one
    in-memory cache entry keyed by ref.identity() and spec's other fields but
    side: the pinned spec, its weights and bounds and its sorted null pair. A
    miss gets the pair from the module global null_statistics, via `_nulls`."""
    key = ("test", spec.ref.identity(), n, spec.m, spec.p_norm, spec.indices, spec.ell,
           spec.assumed_tails, spec.index_rule, spec.sig_level, spec.mc_trials, spec.seed)
    entry = _cache.get(key)
    if entry is None:
        rs = spec.resolve(n)
        entry = _cache.keep(key, (rs, *_arrays_for(rs.ref, n, rs.m, rs.indices), *_nulls(rs, n)))
    return entry


def critical_value(spec: TestSpec, n: int) -> float:
    """Monte Carlo critical value for a sample of size n: the test rejects
    when its statistic reaches it."""
    if spec.side is Side.BOTH:
        raise ValueError("critical_value needs side upper or lower")
    return _decide(_pick(_nulls(spec.resolve(n), n), spec.side), spec.sig_level)[0]


def p_value(spec: TestSpec, t_obs: float, n: int) -> float:
    """Add-one Monte Carlo p-value of the statistic t_obs at sample size n."""
    if spec.side is Side.BOTH:
        raise ValueError("p_value needs side upper or lower")
    if not t_obs >= 0.0:
        raise ValueError("observed statistic must be nonnegative")
    return _p_value(_pick(_nulls(spec.resolve(n), n), spec.side), t_obs)


def _observed(s: Sample, rs: TestSpec, weight_mat: np.ndarray,
              pis: np.ndarray) -> tuple[tuple[IndexDiagnostic, ...], tuple[float, float]]:
    """Per-rank diagnostics and (upper, lower) statistics of s under the
    pinned spec rs, whose weight matrix and bound vector are given."""
    mus, fts = _score_row(s.values, weight_mat)
    gaps = pis - fts
    # tuple.__new__ is what IndexDiagnostic._make calls, without its frame.
    diags = tuple(map(tuple.__new__, repeat(IndexDiagnostic), zip(
        rs.indices, pis.tolist(), mus.tolist(), fts.tolist(), gaps.tolist())))
    t_plus, t_minus = _t_pair(gaps, rs.p_norm)
    return diags, (float(t_plus), float(t_minus))


def statistic(
    s: Sample, spec: TestSpec
) -> tuple[float, tuple[IndexDiagnostic, ...]]:
    """Observed statistic for one side, with per-rank diagnostics."""
    if spec.side is Side.BOTH:
        raise ValueError("statistic is defined per side; pick upper or lower")
    rs = spec.resolve(s.n)
    diags, t_pair = _observed(s, rs, *_arrays_for(rs.ref, s.n, rs.m, rs.indices))
    return _pick(t_pair, spec.side), diags


def run_test(s: Sample, spec: TestSpec):
    """Full test: statistic, critical value, p-value, and decision.

    Returns one TestResult, or an (upper, lower) pair when side is BOTH.
    The sample is scored as a one-row table by the kernel that scores the
    null tables, and the decision is reject exactly when statistic >=
    critical value. All but the sample comes from one cache-layer entry per
    spec and n (`_prepared`), so a repeat request resolves no spec, looks up
    no null table and computes no weight or bound.
    """
    rs, weight_mat, pis, *nulls = _prepared(spec, s.n)
    diags, t_pair = _observed(s, rs, weight_mat, pis)

    def one(side: Side) -> TestResult:
        config = {"g": rs.ref.name, "g_params": rs.ref.params(), "n": s.n, "m": rs.m,
                  "p": rs.p_norm, "ell": len(rs.indices), "indices": list(rs.indices),
                  "side": side.value, "alpha": rs.sig_level, "trials": rs.mc_trials,
                  "seed": rs.seed}
        return _result(_pick(nulls, side), rs.sig_level, _pick(t_pair, side), side.value, s.n,
                       diags, config)

    if spec.side is Side.BOTH:
        return one(Side.UPPER), one(Side.LOWER)
    return one(spec.side)
