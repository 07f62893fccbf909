"""Grid-based power studies and the power exhibits, held as data.

A power grid runs one test, given by a TestSpec, on a cross of an
alternative family's parameters, sample sizes and (m, ell) pairs. Every
cell is an independent job: its critical value comes from the shared
Monte Carlo cache, and its replications are the alternative's draw
table, whose streams are derived from the spec's seed, the alternative
and the sample size, so tables are reproducible bit for bit regardless
of execution order. Cells run serially: they mostly hold the interpreter
lock, and a two-thread pool ran slower.

Each exhibit in EXHIBITS is a tuple of parts in row order: power grids
and sets of Proschan-Pyke rows. reproduce fills in the budgets and the
seed and runs the parts.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, fields, replace
from io import StringIO
from pathlib import Path
import numpy as np

from ._cache import clear_caches
from ._seeds import _cached_draws
from .baselines import _check_pp_args, _pp_null, _pp_table
from .distributions import (
    Alternative,
    Exponential,
    LogLogistic,
    NegExponential,
    TailInfo,
)
from .testing import (
    InfeasibleSpecError,
    Side,
    TestSpec,
    _critical,
    _null_side,
    batch_statistics,
)

__all__ = [
    "EXHIBITS",
    "PowerGrid",
    "PowerRow",
    "PowerTable",
    "estimate_power",
    "pp_power",
    "reproduce",
]

@dataclass(frozen=True)
class PowerRow:
    """One cell of a power table. rate is None when the cell was infeasible.

    For Proschan-Pyke cells m, ell, and p are None and side is ihr or dhr.
    """

    family: str
    param: float
    n: int
    m: int | None
    ell: int | None
    p: float | None
    side: str
    rate: float | None
    se: float | None
    trials: int
    seed: int

    def as_record(self) -> tuple:
        def fmt(v):
            if v is None:
                return ""
            if isinstance(v, float) and math.isinf(v):
                return "inf"
            return v

        return tuple(fmt(getattr(self, f.name)) for f in fields(self))


CSV_HEADER = tuple(f.name for f in fields(PowerRow))


@dataclass
class PowerTable:
    rows: list[PowerRow]

    def to_csv(self, path: str | Path | None = None) -> str:
        buf = StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for row in self.rows:
            writer.writerow(row.as_record())
        text = buf.getvalue()
        if path is not None:
            Path(path).write_text(text)
        return text

    def rate(self, **match) -> float | None:
        """Rate of the unique row matching the given field values."""
        hits = [
            r
            for r in self.rows
            if all(getattr(r, k) == v for k, v in match.items())
        ]
        if len(hits) != 1:
            raise KeyError(f"{len(hits)} rows match {match!r}")
        return hits[0].rate


@dataclass(frozen=True)
class PowerGrid:
    """One test, given by `spec`, run on a cross of alternative parameters,
    sample sizes and (m, ell) pairs.

    Each cell runs `replace(spec, m=m, ell=ell)`: ell None means all ranks
    1..m, an integer selects ranks under the spec's `assumed_tails` and
    `index_rule`. `spec.seed` names both the null tables and the
    alternative's draw table. Cells run serially.
    """

    alternative: str
    params: tuple[float, ...]
    n_grid: tuple[int, ...]
    m_ell: tuple[tuple[int, int | None], ...]
    spec: TestSpec
    replications: int = 5000

    def __post_init__(self) -> None:
        if self.spec.side is Side.BOTH:
            raise ValueError("power grids are per side; run upper and lower separately")
        if (self.spec.m, self.spec.ell, self.spec.indices) != (None, None, None):
            raise ValueError("a grid's spec gives no m, ell or indices; m_ell sets them")
        if self.replications < 1:
            raise ValueError("replications must be positive")


def _power_row(family: str, param: float, n: int, side: str, trials: int, seed: int,
               rejects: np.ndarray | None, m: int | None = None, ell: int | None = None,
               p: float | None = None) -> PowerRow:
    """One power-table row: rate is the share of replications that reject,
    se its binomial standard error; both are None for an infeasible cell."""
    rate = se = None
    if rejects is not None:
        rate = float(np.mean(rejects))
        se = math.sqrt(rate * (1.0 - rate) / trials)
    return PowerRow(family, param, n, m, ell, p, side, rate, se, trials, seed)


def _power_cell(grid: PowerGrid, param: float, n: int, m: int, ell: int | None) -> PowerRow:
    spec = grid.spec
    cell = (grid.alternative, param, n, spec.side.value, grid.replications, spec.seed)
    try:
        rs = replace(spec, m=m, ell=ell).resolve(n)
    except InfeasibleSpecError:
        return _power_row(*cell, None, m, ell, spec.p_norm)
    crit = _critical(_null_side(rs, n, spec.side), rs.sig_level)
    rows = _cached_draws(Alternative(grid.alternative, param), n, grid.replications,
                         spec.seed, "alt")
    t_plus, t_minus = batch_statistics(rows, rs.ref, rs.m, rs.indices, rs.p_norm)
    stats = t_plus if spec.side is Side.UPPER else t_minus
    return _power_row(*cell, stats >= crit, rs.m, len(rs.indices), spec.p_norm)


def estimate_power(grid: PowerGrid) -> PowerTable:
    """Empirical rejection rate for every cell of the grid."""
    cells = [
        (param, n, m, ell)
        for param in grid.params
        for n in grid.n_grid
        for (m, ell) in grid.m_ell
    ]
    return PowerTable(rows=[_power_cell(grid, *c) for c in cells])


def pp_power(
    alternative: str,
    param: float,
    n: int,
    side: str = "ihr",
    replications: int = 5000,
    mc_trials: int = 5000,
    sig_level: float = 0.1,
    base_seed: int = 0,
) -> PowerRow:
    """Rejection rate of the Proschan-Pyke test under an alternative."""
    _check_pp_args(side, sig_level, mc_trials, n)
    if replications < 1:
        raise ValueError("replications must be positive")
    k = 0 if side == "ihr" else 1
    crit = _critical(_pp_null(n, mc_trials, base_seed)[k], sig_level)
    v = _pp_table(Alternative(alternative, param), n, replications, base_seed, "pp-alt")[k]
    return _power_row(alternative, param, n, side, replications, base_seed, v >= crit)


def _pp_rows(alternative: str, params: tuple[float, ...], n_grid: tuple[int, ...],
             sides: tuple[str, ...], replications: int, mc_trials: int, seed: int,
             sig_level: float = 0.1) -> list[PowerRow]:
    """Proschan-Pyke rows over parameter, then sample size, then side."""
    return [
        pp_power(alternative, param, n, side, replications, mc_trials, sig_level, seed)
        for param in params
        for n in n_grid
        for side in sides
    ]


def _param_grid(lo: float, hi: float, step: float) -> tuple[float, ...]:
    """lo, lo + step, ... up to hi; hi itself only when a whole number of
    steps (to within 1e-9 of one) reaches it."""
    count = math.floor((hi - lo) / step + 1e-9)
    return tuple(round(lo + i * step, 10) for i in range(count + 1))


_N4 = (25, 50, 100, 200)
_N5 = (25, 50, 100, 200, 500)
_STD_M = ((1, None), (5, None), (10, None), (20, None))
_M_3D = (1, 2, 3, 5, 8, 10, 15, 20, 25, 30, 40)
_SHAPES = _param_grid(1.0, 2.0, 0.1)

# Each exhibit's parts in row order: a PowerGrid, whose replications and
# spec budget and seed reproduce fills in, or an (alternative, params,
# n_grid, sides) tuple of Proschan-Pyke rows.
EXHIBITS = {
    "table1": tuple(
        PowerGrid("weibull", (1.5,), _N4, _STD_M, TestSpec(Exponential(), p_norm=p))
        for p in (1.0, 2.0, math.inf)
    ),
    "table2": (
        ("student-t", (1.1,), _N5, ("ihr", "dhr")),
        PowerGrid("student-t", (1.1,), _N5, _STD_M, TestSpec(Exponential())),
        PowerGrid("student-t", (1.1,), _N5, _STD_M, TestSpec(Exponential(), side=Side.LOWER)),
    ),
    "fig_drhr": (PowerGrid("neg-weibull", _SHAPES, _N4, _STD_M, TestSpec(NegExponential())),),
    "fig_ior": (
        PowerGrid("log-logistic", _SHAPES, _N4, ((3, 1), (5, 3), (10, 8), (20, 18)),
                  TestSpec(LogLogistic(1.0))),
    ),
    "fig_dor": (
        PowerGrid("log-logistic", _param_grid(0.1, 1.0, 0.1), _N4,
                  ((25, 5), (30, 10), (35, 15), (40, 20)),
                  TestSpec(LogLogistic(1.0), side=Side.LOWER,
                           assumed_tails=TailInfo(0.1, math.inf))),
    ),
    "fig_pp": (
        ("weibull", _SHAPES, _N4, ("ihr",)),
        PowerGrid("weibull", _SHAPES, _N4, _STD_M, TestSpec(Exponential())),
    ),
    "fig_3d": (
        PowerGrid("neg-weibull", (1.5,), _N4, tuple((m, None) for m in _M_3D),
                  TestSpec(NegExponential())),
        PowerGrid("log-logistic", (1.5,), _N4, tuple((m, m - 2) for m in _M_3D if m >= 3),
                  TestSpec(LogLogistic(1.0))),
        PowerGrid("weibull", (1.5,), _N4, tuple((m, None) for m in _M_3D),
                  TestSpec(Exponential())),
    ),
}


def reproduce(
    target: str,
    out_dir: str | Path = "exhibits",
    replications: int = 5000,
    mc_trials: int = 5000,
    seed: int = 0,
    threads: int = 1,
) -> Path:
    """Run one named power exhibit and write its CSV under out_dir.

    threads is checked to be positive and otherwise ignored; cells run
    serially. It stays only because the benchmark's power study calls
    reproduce with threads=2 and threads=1; the next change to the
    benchmark removes it.
    """
    if target not in EXHIBITS:
        raise ValueError(
            f"unknown exhibit {target!r}; choose from {sorted(EXHIBITS)}"
        )
    if threads < 1:
        raise ValueError("threads must be positive")
    rows: list[PowerRow] = []
    for part in EXHIBITS[target]:
        if isinstance(part, PowerGrid):
            grid = replace(part, replications=replications,
                           spec=replace(part.spec, mc_trials=mc_trials, seed=seed))
            rows.extend(estimate_power(grid).rows)
        else:
            rows.extend(_pp_rows(*part, replications, mc_trials, seed))
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{target}.csv"
    PowerTable(rows).to_csv(path)
    return path
