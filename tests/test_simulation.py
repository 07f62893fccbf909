"""Power grids: validation, determinism, schema, and the canned exhibit
targets. Budgets here are tiny; statistical targets live in the
acceptance suite."""

import csv
import hashlib
import io
import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from cxorder import (
    Exponential,
    LogLogistic,
    PowerGrid,
    PowerRow,
    Side,
    TailInfo,
    TestSpec,
    estimate_power,
    pp_power,
    reproduce,
)
from cxorder import _cache
from cxorder._seeds import DrawTable
from cxorder.simulation import CSV_HEADER, EXHIBITS, PowerTable
from cxorder.testing import clear_caches


def small_grid(**overrides) -> PowerGrid:
    """A small grid; each override names a PowerGrid or a TestSpec field."""
    grid = dict(
        alternative="weibull",
        params=(1.5, 2.0),
        n_grid=(20, 30),
        m_ell=((1, None), (3, None)),
        replications=40,
    )
    spec = dict(ref=Exponential(), p_norm=1.0, side=Side.UPPER, mc_trials=120, seed=7)
    for key, value in overrides.items():
        (grid if key in grid else spec)[key] = value
    return PowerGrid(spec=TestSpec(**spec), **grid)


def test_grid_validation():
    with pytest.raises(ValueError):
        small_grid(side=Side.BOTH)
    with pytest.raises(ValueError):
        small_grid(replications=0)
    with pytest.raises(ValueError, match="replications"):
        small_grid(replications=60.0)
    assert type(small_grid(replications=np.int64(60)).replications) is int
    # m_ell sets each cell's m and ell, so the spec gives no ranks.
    with pytest.raises(ValueError, match="m_ell"):
        small_grid(m=3)
    with pytest.raises(ValueError, match="m_ell"):
        small_grid(ell=2)
    with pytest.raises(ValueError, match="m_ell"):
        small_grid(indices=(1, 2))
    # An empty axis would give an empty table.
    for axis in ("params", "n_grid", "m_ell"):
        with pytest.raises(ValueError, match="at least one"):
            small_grid(**{axis: ()})


def test_rank_choice_settings_need_ell_in_every_cell():
    # The spec is resolved per cell, so the check waits for a cell without ell.
    with pytest.raises(ValueError, match="give ell"):
        estimate_power(small_grid(index_rule="low"))
    table = estimate_power(small_grid(index_rule="low", m_ell=((3, 2),), params=(1.5,)))
    assert [row.ell for row in table.rows] == [2, 2]


def test_estimate_power_shape_and_rates():
    table = estimate_power(small_grid())
    assert len(table.rows) == 8
    for row in table.rows:
        assert row.family == "weibull"
        assert 0.0 <= row.rate <= 1.0
        assert row.se == pytest.approx(
            math.sqrt(row.rate * (1.0 - row.rate) / row.trials)
        )
        assert row.trials == 40
        assert row.seed == 7


def test_estimate_power_deterministic():
    a = estimate_power(small_grid())
    b = estimate_power(small_grid())
    assert a.rows == b.rows


def test_infeasible_cell_reports_none_rate():
    # ell = 2 asks for two convergent ranks, but the unit log-logistic
    # reference with m = 2 has only one.
    grid = small_grid(
        alternative="log-logistic",
        ref=LogLogistic(1.0),
        m_ell=((2, 2),),
        params=(1.5,),
        n_grid=(25,),
    )
    table = estimate_power(grid)
    (row,) = table.rows
    assert row.rate is None and row.se is None
    (record,) = csv.DictReader(io.StringIO(table.to_csv()))
    assert record["rate"] == record["se"] == ""
    assert (row.family, row.param, row.n) == ("log-logistic", 1.5, 25)
    assert (row.m, row.ell, row.p, row.side) == (2, 2, 1.0, "upper")
    assert row.trials == grid.replications == 40
    assert row.seed == grid.spec.seed == 7


def test_power_moves_in_the_right_direction():
    table = estimate_power(
        small_grid(
            params=(1.0, 2.5),
            n_grid=(60,),
            m_ell=((5, None),),
            replications=300,
            mc_trials=500,
        )
    )
    null_rate = table.rate(param=1.0)
    alt_rate = table.rate(param=2.5)
    assert alt_rate > null_rate + 0.3


def test_rate_lookup_requires_unique_match():
    table = estimate_power(small_grid())
    assert table.rate(param=1.5, n=20, m=1) is not None
    with pytest.raises(KeyError):
        table.rate(param=1.5)
    with pytest.raises(KeyError):
        table.rate(param=9.9)


def test_csv_round_trip_schema(tmp_path):
    table = estimate_power(small_grid())
    path = tmp_path / "grid.csv"
    text = table.to_csv(path)
    assert path.read_text() == text
    rows = list(csv.reader(io.StringIO(text)))
    assert tuple(rows[0]) == CSV_HEADER
    assert len(rows) == 1 + len(table.rows)
    # p = inf must survive the trip as the string "inf"
    inf_table = estimate_power(small_grid(p_norm=math.inf, params=(1.5,)))
    assert "inf" in inf_table.to_csv()


def test_pp_power_row_shape():
    row = pp_power("weibull", 1.5, 20, side="ihr", replications=50, mc_trials=150)
    assert isinstance(row, PowerRow)
    assert row.m is None and row.ell is None and row.p is None
    assert row.side == "ihr"
    assert 0.0 <= row.rate <= 1.0
    again = pp_power("weibull", 1.5, 20, side="ihr", replications=50, mc_trials=150)
    assert again == row


@pytest.mark.parametrize(
    "overrides",
    [
        dict(side="DHR"),
        dict(replications=0),
        dict(n=2),
        dict(sig_level=1.5, mc_trials=10),
        dict(sig_level=1.5),
        dict(mc_trials=10),
    ],
    ids=["side-case", "no-replications", "n-2", "sig-and-trials", "sig-level", "trials"],
)
def test_pp_power_rejects_what_pp_test_rejects(overrides):
    args = dict(alternative="weibull", param=1.5, n=20, side="ihr", replications=50,
                mc_trials=150)
    args.update(overrides)
    with pytest.raises(ValueError):
        pp_power(**args)


@pytest.mark.parametrize("field, value", [("base_seed", 1.7), ("replications", 50.0),
                                          ("mc_trials", 150.0)])
def test_pp_power_names_a_non_integral_seed_or_count(field, value):
    args = dict(alternative="weibull", param=1.5, n=20, replications=50, mc_trials=150,
                base_seed=1)
    with pytest.raises(ValueError, match=field):
        pp_power(**{**args, field: value})
    row = pp_power(**{**args, field: np.int64(args[field])})
    assert row == pp_power(**args) and type(row.seed) is type(row.trials) is int


def test_table2_draws_each_proschan_pyke_table_once(tmp_path, monkeypatch):
    drawn = Counter()
    real = DrawTable.chunks

    def counting(table):
        drawn[table.label] += 1
        return real(table)

    monkeypatch.setattr(DrawTable, "chunks", counting)
    clear_caches()
    reproduce("table2", out_dir=tmp_path, replications=100, mc_trials=100)
    # One null and one alternative table for each of the five sample sizes.
    assert {label: count for label, count in drawn.items() if label.startswith("pp-")} == {
        "pp-null": 5, "pp-alt": 5}


def test_shared_passes_give_each_cell_its_one_at_a_time_row(monkeypatch):
    # (3, 3) is infeasible: log-logistic(1) has no bound at rank m.
    grid = PowerGrid(alternative="log-logistic", params=(0.5, 1.5), n_grid=(20, 60),
                     m_ell=((3, 1), (5, 3), (3, 3), (10, 8)),
                     spec=TestSpec(LogLogistic(1.0), p_norm=2.0, mc_trials=200, seed=4),
                     replications=150)
    drawn = []
    real = DrawTable.chunks

    def counting(table):
        drawn.append((table.label, table.family.identity(), table.n))
        return real(table)

    monkeypatch.setattr(DrawTable, "chunks", counting)
    clear_caches()
    rows = estimate_power(grid).rows
    # One alternative table per (param, n), one null table per n.
    assert sorted(Counter(drawn).values()) == [1] * 6
    assert sum(row.rate is None for row in rows) == 4
    one_at_a_time = []
    for param in grid.params:
        for n in grid.n_grid:
            for m_ell in grid.m_ell:
                clear_caches()
                cell = replace(grid, params=(param,), n_grid=(n,), m_ell=(m_ell,))
                one_at_a_time += estimate_power(cell).rows
    assert rows == one_at_a_time


def test_reproduce_rejects_nonpositive_threads(tmp_path):
    with pytest.raises(ValueError):
        reproduce("table1", out_dir=tmp_path, replications=2, mc_trials=100, threads=0)
    assert not (tmp_path / "table1.csv").exists()


def test_exhibit_registry_names():
    assert set(EXHIBITS) == {
        "table1", "table2", "fig_drhr", "fig_ior", "fig_dor", "fig_pp", "fig_3d",
    }


# Row count and SHA-256 of the key columns (family, param, n, m, ell, p,
# side), one comma-joined line per row in row order, of each exhibit.
EXHIBIT_LAYOUTS = {
    "table1": (48, "7dda9b630f50d95a04bfde0e242be3cb48602f12513ba4c8cc93f1d83b4200f7"),
    "table2": (50, "36c0f21e4a08304011404c1691c70c891bfdca9b5073135b5837f7b83ed932a8"),
    "fig_drhr": (176, "77951d6111e909c0f1642ce3e272e28354818fa3369e3edada0110e217b14e6a"),
    "fig_ior": (176, "d011ccf6b75826a4d0967229aa2c65eca01fbf939ef454aabc13ab8e4ebe8257"),
    "fig_dor": (160, "9106abfe20eea9c468e12598f561e7bf17f9a4d1d8c37acfb8ce53a47a735ec3"),
    "fig_pp": (220, "a9d305963bb1551c5f82719fb6522f239b8e4e14ccf7dee5bc950f1312d5678b"),
    "fig_3d": (124, "f411c5d330067f28ea44adfc044017225da69a0afc63aa9ad372f161b75765f6"),
}


@pytest.mark.parametrize("target", sorted(EXHIBIT_LAYOUTS))
def test_reproduce_writes_named_csv(tmp_path, target):
    path = reproduce(
        target, out_dir=tmp_path, replications=1, mc_trials=100, seed=3
    )
    assert path == tmp_path / f"{target}.csv"
    rows = list(csv.reader(io.StringIO(path.read_text())))
    assert tuple(rows[0]) == CSV_HEADER
    count, digest = EXHIBIT_LAYOUTS[target]
    assert len(rows) == 1 + count
    keys = "".join(",".join(r[:7]) + "\n" for r in rows[1:])
    assert hashlib.sha256(keys.encode()).hexdigest() == digest
    if target == "fig_dor":
        # 10 shapes, 4 sample sizes, 4 (m, ell) settings
        assert len(rows) == 1 + 160
        sides = {r[6] for r in rows[1:]}
        assert sides == {"lower"}


# Every exhibit grid whose alternative is ordered against its reference:
# weibull against the exponential and log-logistic(a > 1) against
# LogLogistic(1) on the upper side, neg-weibull against the negative
# exponential and log-logistic(a < 1) on the lower. Student's t is not
# ordered against the exponential, and table2 runs both sides on purpose.
ORDERED_GRIDS = [(target, i) for target, parts in sorted(EXHIBITS.items())
                 for i, part in enumerate(parts)
                 if isinstance(part, PowerGrid) and part.alternative != "student-t"]


@pytest.mark.parametrize("target, part", ORDERED_GRIDS,
                         ids=[f"{target}-{i}" for target, i in ORDERED_GRIDS])
def test_ordered_exhibit_grids_test_the_side_with_power(target, part):
    # At the grid's largest departure from the null (shape 1) and its largest
    # n, every cell rejects more often than alpha by at least 3 standard errors.
    grid = EXHIBITS[target][part]
    budget = 200
    cell = replace(grid, params=(max(grid.params, key=lambda a: abs(math.log(a))),),
                   n_grid=(max(grid.n_grid),), replications=budget,
                   spec=replace(grid.spec, mc_trials=budget, seed=1))
    alpha = grid.spec.sig_level
    floor = alpha + 3 * math.sqrt(alpha * (1 - alpha) / budget)
    rates = [(row.m, row.ell, row.rate) for row in estimate_power(cell).rows]
    assert all(rate > floor for _, _, rate in rates), (grid.spec.side, floor, rates)


def test_reproduce_rejects_unknown_target(tmp_path):
    with pytest.raises(ValueError):
        reproduce("table9", out_dir=tmp_path)


def test_assumed_tails_restrict_ell(tmp_path):
    # The heavy assumed right tail forces low ranks; ell echoes the count.
    grid = PowerGrid(
        alternative="log-logistic",
        params=(0.5,),
        n_grid=(30,),
        m_ell=((25, 5),),
        spec=TestSpec(ref=LogLogistic(1.0), side=Side.LOWER,
                      assumed_tails=TailInfo(0.1, math.inf), mc_trials=120, seed=1),
        replications=20,
    )
    (row,) = estimate_power(grid).rows
    assert row.m == 25 and row.ell == 5


def test_a_grid_step_reduces_the_gap_matrices_its_pass_returned(monkeypatch):
    """Each cell reduces the alternative's gap matrix that its grid step's
    pass returned, so each alternative table is drawn once whatever the
    cache budget. When the cells fetched the matrices again through the
    cache, table1's p = 1 grid drew 20 alternative tables at 256 KiB."""
    drawn = Counter()
    real = DrawTable.chunks

    def counting(table):
        drawn[table.label] += 1
        return real(table)

    monkeypatch.setattr(DrawTable, "chunks", counting)
    part = EXHIBITS["table1"][0]
    grid = replace(part, replications=2000, spec=replace(part.spec, mc_trials=2000, seed=3))
    rates = []
    for budget in (_cache.BUDGET_BYTES, 256 << 10):
        monkeypatch.setattr(_cache, "BUDGET_BYTES", budget)
        clear_caches()
        drawn.clear()
        rates.append([row.rate for row in estimate_power(grid).rows])
        assert drawn["alt"] == len(grid.n_grid) == 4
    assert rates[0] == rates[1]
