"""Power grids: determinism, thread independence, schema, and the canned
exhibit targets. Budgets here are tiny; statistical targets live in the
acceptance suite."""

import csv
import io
import math
from collections import Counter

import pytest

from cxorder import (
    Exponential,
    LogLogistic,
    PowerGrid,
    PowerRow,
    Side,
    TailInfo,
    estimate_power,
    pp_power,
    reproduce,
)
from cxorder import baselines
from cxorder.simulation import CSV_HEADER, EXHIBITS, PowerTable, clear_caches


def small_grid(**overrides) -> PowerGrid:
    base = dict(
        alternative="weibull",
        params=(1.5, 2.0),
        n_grid=(20, 30),
        m_ell=((1, None), (3, None)),
        ref=Exponential(),
        p_norm=1.0,
        side=Side.UPPER,
        replications=40,
        mc_trials=120,
        base_seed=7,
    )
    base.update(overrides)
    return PowerGrid(**base)


def test_grid_validation():
    with pytest.raises(ValueError):
        small_grid(side=Side.BOTH)
    with pytest.raises(ValueError):
        small_grid(replications=0)
    with pytest.raises(ValueError):
        small_grid(threads=0)


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


def test_thread_count_does_not_change_results():
    serial = estimate_power(small_grid())
    threaded = estimate_power(small_grid(threads=3))
    assert serial.rows == threaded.rows


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
    (row,) = estimate_power(grid).rows
    assert row.rate is None and row.se is None
    assert (row.family, row.param, row.n) == ("log-logistic", 1.5, 25)
    assert (row.m, row.ell, row.p, row.side) == (2, 2, 1.0, "upper")
    assert row.trials == grid.replications == 40
    assert row.seed == grid.base_seed == 7


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


def test_table2_draws_each_proschan_pyke_table_once(tmp_path, monkeypatch):
    drawn = Counter()
    real = baselines._sorted_draws

    def counting(family, n, count, seed, label):
        drawn[label] += 1
        return real(family, n, count, seed, label)

    monkeypatch.setattr(baselines, "_sorted_draws", counting)
    clear_caches()
    reproduce("table2", out_dir=tmp_path, replications=100, mc_trials=100)
    # One null and one alternative table for each of the five sample sizes.
    assert drawn == {"pp-null": 5, "pp-alt": 5}


def test_reproduce_rejects_nonpositive_threads(tmp_path):
    with pytest.raises(ValueError):
        reproduce("table1", out_dir=tmp_path, replications=2, mc_trials=100, threads=0)
    assert not (tmp_path / "table1.csv").exists()


def test_exhibit_registry_names():
    assert set(EXHIBITS) == {
        "table1", "table2", "fig_drhr", "fig_ior", "fig_dor", "fig_pp", "fig_3d",
    }


def test_reproduce_writes_named_csv(tmp_path):
    path = reproduce(
        "fig_dor", out_dir=tmp_path, replications=2, mc_trials=100, seed=3
    )
    assert path == tmp_path / "fig_dor.csv"
    rows = list(csv.reader(io.StringIO(path.read_text())))
    assert tuple(rows[0]) == CSV_HEADER
    # 10 shapes, 4 sample sizes, 4 (m, ell) settings
    assert len(rows) == 1 + 160
    sides = {r[6] for r in rows[1:]}
    assert sides == {"lower"}


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
        ref=LogLogistic(1.0),
        side=Side.LOWER,
        assumed_tails=TailInfo(0.1, math.inf),
        replications=20,
        mc_trials=120,
        base_seed=1,
    )
    (row,) = estimate_power(grid).rows
    assert row.m == 25 and row.ell == 5
