"""Grid-based power studies and canned reproduction of the power exhibits.

A power grid crosses an alternative family's parameters with sample sizes
and test configurations. Every cell is an independent job: its critical
value comes from the shared Monte Carlo cache, and its replications are the
alternative's draw table, whose streams are derived from the base seed,
the alternative and the sample size, so tables are reproducible bit for
bit regardless of execution order. Cells run serially: they mostly hold
the interpreter lock, and a two-thread pool ran slower.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from io import StringIO
from pathlib import Path
from typing import Iterable

import numpy as np

from ._cache import clear_caches
from ._seeds import _cached_draws
from .baselines import _check_pp_args, _pp_null, _pp_table
from .distributions import (
    Alternative,
    Exponential,
    LogLogistic,
    NegExponential,
    RefFamily,
    TailInfo,
)
from .testing import (
    InfeasibleSpecError,
    Side,
    TestSpec,
    _quantile_rank,
    batch_statistics,
    null_statistics,
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

CSV_HEADER = ("family", "param", "n", "m", "ell", "p", "side", "rate", "se",
              "trials", "seed")


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

        return tuple(
            fmt(v)
            for v in (
                self.family,
                self.param,
                self.n,
                self.m,
                self.ell,
                self.p,
                self.side,
                self.rate,
                self.se,
                self.trials,
                self.seed,
            )
        )


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
    """Cross of alternative parameters, sample sizes, and (m, ell) pairs.

    ell None means all ranks 1..m; an integer requests automatic index
    selection under `assumed_tails` and `index_rule`. `threads` is checked
    to be positive and otherwise ignored; cells run serially.
    """

    alternative: str
    params: tuple[float, ...]
    n_grid: tuple[int, ...]
    m_ell: tuple[tuple[int, int | None], ...]
    ref: RefFamily
    p_norm: float = 1.0
    side: Side = Side.UPPER
    assumed_tails: TailInfo | None = None
    index_rule: str | None = None
    replications: int = 5000
    mc_trials: int = 5000
    sig_level: float = 0.1
    base_seed: int = 0
    threads: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "side", Side(self.side))
        if self.side is Side.BOTH:
            raise ValueError("power grids are per side; run upper and lower separately")
        if self.replications < 1:
            raise ValueError("replications must be positive")
        if self.threads < 1:
            raise ValueError("threads must be positive")


def _power_cell(grid: PowerGrid, param: float, n: int, m: int, ell: int | None) -> PowerRow:
    alt = Alternative(grid.alternative, param)
    spec = TestSpec(
        ref=grid.ref,
        m=m,
        p_norm=grid.p_norm,
        side=grid.side,
        ell=ell,
        assumed_tails=grid.assumed_tails,
        index_rule=grid.index_rule,
        sig_level=grid.sig_level,
        mc_trials=grid.mc_trials,
        seed=grid.base_seed,
    )
    try:
        rs = spec.resolve(n)
    except InfeasibleSpecError:
        return PowerRow(
            family=grid.alternative,
            param=param,
            n=n,
            m=m,
            ell=ell,
            p=grid.p_norm,
            side=grid.side.value,
            rate=None,
            se=None,
            trials=grid.replications,
            seed=grid.base_seed,
        )
    t_plus_null, t_minus_null = null_statistics(
        rs.ref, n, rs.m, rs.indices, rs.p_norm, rs.mc_trials, rs.seed
    )
    null_arr = t_plus_null if grid.side is Side.UPPER else t_minus_null
    crit = float(null_arr[_quantile_rank(rs.sig_level, rs.mc_trials) - 1])
    rows = _cached_draws(alt, n, grid.replications, grid.base_seed, "alt")
    t_plus, t_minus = batch_statistics(rows, rs.ref, rs.m, rs.indices, rs.p_norm)
    stats = t_plus if grid.side is Side.UPPER else t_minus
    rate = float(np.mean(stats >= crit))
    se = math.sqrt(rate * (1.0 - rate) / grid.replications)
    return PowerRow(
        family=grid.alternative,
        param=param,
        n=n,
        m=rs.m,
        ell=len(rs.indices),
        p=grid.p_norm,
        side=grid.side.value,
        rate=rate,
        se=se,
        trials=grid.replications,
        seed=grid.base_seed,
    )


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
    crit = float(_pp_null(n, mc_trials, base_seed)[k][_quantile_rank(sig_level, mc_trials) - 1])
    alt = Alternative(alternative, param)
    v = _pp_table(alt, n, replications, base_seed, "pp-alt")[k]
    rate = int(np.count_nonzero(v >= crit)) / replications
    return PowerRow(
        family=alternative,
        param=param,
        n=n,
        m=None,
        ell=None,
        p=None,
        side=side,
        rate=rate,
        se=math.sqrt(rate * (1.0 - rate) / replications),
        trials=replications,
        seed=base_seed,
    )


def _std_m_grid() -> tuple[tuple[int, int | None], ...]:
    return ((1, None), (5, None), (10, None), (20, None))


def _run_grids(grids: Iterable[PowerGrid]) -> list[PowerRow]:
    rows: list[PowerRow] = []
    for grid in grids:
        rows.extend(estimate_power(grid).rows)
    return rows


def _exhibit_table1(replications, mc_trials, seed) -> PowerTable:
    grids = [
        PowerGrid(
            alternative="weibull",
            params=(1.5,),
            n_grid=(25, 50, 100, 200),
            m_ell=_std_m_grid(),
            ref=Exponential(),
            p_norm=p,
            side=Side.UPPER,
            replications=replications,
            mc_trials=mc_trials,
            base_seed=seed,
        )
        for p in (1.0, 2.0, math.inf)
    ]
    return PowerTable(_run_grids(grids))


def _exhibit_table2(replications, mc_trials, seed) -> PowerTable:
    n_grid = (25, 50, 100, 200, 500)
    rows: list[PowerRow] = []
    for n in n_grid:
        for side in ("ihr", "dhr"):
            rows.append(
                pp_power(
                    "student-t", 1.1, n,
                    side=side,
                    replications=replications,
                    mc_trials=mc_trials,
                    base_seed=seed,
                )
            )
    for side in (Side.UPPER, Side.LOWER):
        grid = PowerGrid(
            alternative="student-t",
            params=(1.1,),
            n_grid=n_grid,
            m_ell=_std_m_grid(),
            ref=Exponential(),
            p_norm=1.0,
            side=side,
            replications=replications,
            mc_trials=mc_trials,
            base_seed=seed,
        )
        rows.extend(estimate_power(grid).rows)
    return PowerTable(rows)


def _shape_grid(lo: float, hi: float) -> tuple[float, ...]:
    count = round((hi - lo) / 0.1)
    return tuple(round(lo + 0.1 * i, 10) for i in range(count + 1))


def _exhibit_fig_drhr(replications, mc_trials, seed) -> PowerTable:
    grid = PowerGrid(
        alternative="neg-weibull",
        params=_shape_grid(1.0, 2.0),
        n_grid=(25, 50, 100, 200),
        m_ell=_std_m_grid(),
        ref=NegExponential(),
        p_norm=1.0,
        side=Side.UPPER,
        replications=replications,
        mc_trials=mc_trials,
        base_seed=seed,
    )
    return estimate_power(grid)


def _exhibit_fig_ior(replications, mc_trials, seed) -> PowerTable:
    grid = PowerGrid(
        alternative="log-logistic",
        params=_shape_grid(1.0, 2.0),
        n_grid=(25, 50, 100, 200),
        m_ell=((3, 1), (5, 3), (10, 8), (20, 18)),
        ref=LogLogistic(1.0),
        p_norm=1.0,
        side=Side.UPPER,
        replications=replications,
        mc_trials=mc_trials,
        base_seed=seed,
    )
    return estimate_power(grid)


def _exhibit_fig_dor(replications, mc_trials, seed) -> PowerTable:
    grid = PowerGrid(
        alternative="log-logistic",
        params=_shape_grid(0.1, 1.0),
        n_grid=(25, 50, 100, 200),
        m_ell=((25, 5), (30, 10), (35, 15), (40, 20)),
        ref=LogLogistic(1.0),
        p_norm=1.0,
        side=Side.LOWER,
        assumed_tails=TailInfo(0.1, math.inf),
        replications=replications,
        mc_trials=mc_trials,
        base_seed=seed,
    )
    return estimate_power(grid)


def _exhibit_fig_pp(replications, mc_trials, seed) -> PowerTable:
    rows: list[PowerRow] = []
    params = _shape_grid(1.0, 2.0)
    n_grid = (25, 50, 100, 200)
    for param in params:
        for n in n_grid:
            rows.append(
                pp_power(
                    "weibull", param, n,
                    side="ihr",
                    replications=replications,
                    mc_trials=mc_trials,
                    base_seed=seed,
                )
            )
    grid = PowerGrid(
        alternative="weibull",
        params=params,
        n_grid=n_grid,
        m_ell=_std_m_grid(),
        ref=Exponential(),
        p_norm=1.0,
        side=Side.UPPER,
        replications=replications,
        mc_trials=mc_trials,
        base_seed=seed,
    )
    rows.extend(estimate_power(grid).rows)
    return PowerTable(rows)


def _exhibit_fig_3d(replications, mc_trials, seed) -> PowerTable:
    n_grid = (25, 50, 100, 200)
    m_values = (1, 2, 3, 5, 8, 10, 15, 20, 25, 30, 40)
    rows: list[PowerRow] = []
    rows.extend(
        _run_grids(
            [
                PowerGrid(
                    alternative="neg-weibull",
                    params=(1.5,),
                    n_grid=n_grid,
                    m_ell=tuple((m, None) for m in m_values),
                    ref=NegExponential(),
                    p_norm=1.0,
                    side=Side.UPPER,
                    replications=replications,
                    mc_trials=mc_trials,
                    base_seed=seed,
                ),
                PowerGrid(
                    alternative="log-logistic",
                    params=(1.5,),
                    n_grid=n_grid,
                    m_ell=tuple((m, m - 2) for m in m_values if m >= 3),
                    ref=LogLogistic(1.0),
                    p_norm=1.0,
                    side=Side.UPPER,
                    replications=replications,
                    mc_trials=mc_trials,
                    base_seed=seed,
                ),
                PowerGrid(
                    alternative="weibull",
                    params=(1.5,),
                    n_grid=n_grid,
                    m_ell=tuple((m, None) for m in m_values),
                    ref=Exponential(),
                    p_norm=1.0,
                    side=Side.UPPER,
                    replications=replications,
                    mc_trials=mc_trials,
                    base_seed=seed,
                ),
            ]
        )
    )
    return PowerTable(rows)


EXHIBITS = {
    "table1": _exhibit_table1,
    "table2": _exhibit_table2,
    "fig_drhr": _exhibit_fig_drhr,
    "fig_ior": _exhibit_fig_ior,
    "fig_dor": _exhibit_fig_dor,
    "fig_pp": _exhibit_fig_pp,
    "fig_3d": _exhibit_fig_3d,
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
    serially.
    """
    if target not in EXHIBITS:
        raise ValueError(
            f"unknown exhibit {target!r}; choose from {sorted(EXHIBITS)}"
        )
    if threads < 1:
        raise ValueError("threads must be positive")
    table = EXHIBITS[target](replications, mc_trials, seed)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{target}.csv"
    table.to_csv(path)
    return path
