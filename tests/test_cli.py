"""End-to-end CLI runs through main(argv). Every invocation pins --seed so
stdout comparisons are byte-exact."""

import csv
import io
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from cxorder.cli import CliError, main, parse_family, read_data_file
from cxorder.distributions import Exponential, Frechet, LogLogistic, TailInfo
from cxorder.simulation import CSV_HEADER, PowerGrid, estimate_power
from cxorder.testing import Side, TestSpec, critical_value

RESULT_KEYS = {
    "g", "g_params", "n", "m", "p", "ell", "indices", "side", "statistic",
    "critical_value", "p_value", "reject", "alpha", "trials", "seed",
    "warnings", "input",
}


@pytest.fixture
def data_file(tmp_path):
    rng = np.random.default_rng(5)
    lines = ["# synthetic exponential sample", ""]
    lines += [f"{x:.12g}" for x in rng.exponential(size=40)]
    path = tmp_path / "sample.txt"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParsing:
    def test_parse_family_accepts_known_names(self):
        fam = parse_family("log-logistic:2.5")
        assert isinstance(fam, LogLogistic) and fam.params() == {"a": 2.5}
        assert parse_family("log-logistic").params() == {"a": 1.0}
        assert isinstance(parse_family("frechet:0.5"), Frechet)
        assert parse_family("EXPONENTIAL").name == "exponential"

    def test_parse_family_rejects_bad_values(self):
        with pytest.raises(CliError):
            parse_family("gaussian")
        with pytest.raises(CliError):
            parse_family("exponential:2")
        with pytest.raises(CliError):
            parse_family("frechet")

    def test_read_data_file_skips_comments_and_blanks(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("# header\n1.5\n\n 2.5 # trailing\n-3\n")
        assert read_data_file(str(path)) == [1.5, 2.5, -3.0]

    def test_read_data_file_errors(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("1.0\noops\n")
        with pytest.raises(CliError, match="2"):
            read_data_file(str(bad))
        with pytest.raises(CliError):
            read_data_file(str(tmp_path / "missing.txt"))
        empty = tmp_path / "empty.txt"
        empty.write_text("# nothing\n\n")
        with pytest.raises(CliError):
            read_data_file(str(empty))


@pytest.mark.parametrize("command", [
    ("test", "data.txt"),
    ("power", "--family", "weibull", "--params", "1.5", "--n", "20", "--m", "4"),
    ("reproduce", "table1"),
], ids=["test", "power", "reproduce"])
def test_threads_flag_is_rejected(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([*command, "--threads", "1"])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err


class TestTestCommand:
    ARGS = ("--m", "4", "--trials", "200", "--seed", "11")

    def test_single_side_record(self, capsys, data_file):
        code, out, err = run_cli(capsys, "test", data_file, *self.ARGS)
        assert code == 0 and err == ""
        record = json.loads(out)
        assert set(record) == RESULT_KEYS
        assert record["g"] == "exponential"
        assert record["n"] == 40 and record["m"] == 4
        assert record["indices"] == [1, 2, 3, 4]
        assert record["seed"] == 11 and record["trials"] == 200
        assert record["reject"] == (record["statistic"] >= record["critical_value"])
        assert 0.0 < record["p_value"] <= 1.0

    @pytest.mark.parametrize("threads", ["0", "-5"])
    def test_nonpositive_threads_exit_2(self, capsys, data_file, threads):
        # There is no --threads flag, so any value is a usage error.
        with pytest.raises(SystemExit) as exc:
            main(["test", data_file, *self.ARGS, "--threads", threads])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert "--threads" in captured.err

    def test_output_is_reproducible_and_thread_invariant(self, capsys, data_file):
        _, first, _ = run_cli(capsys, "test", data_file, *self.ARGS)
        _, second, _ = run_cli(capsys, "test", data_file, *self.ARGS)
        assert first == second

    def test_both_sides_give_two_records(self, capsys, data_file):
        code, out, _ = run_cli(
            capsys, "test", data_file, "--side", "both", *self.ARGS
        )
        assert code == 0
        records = json.loads(out)
        assert [r["side"] for r in records] == ["upper", "lower"]
        assert all(set(r) == RESULT_KEYS for r in records)

    def test_out_flag_writes_file(self, capsys, data_file, tmp_path):
        dest = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys, "test", data_file, *self.ARGS, "--out", str(dest)
        )
        assert code == 0 and out == ""
        assert json.loads(dest.read_text())["n"] == 40

    def test_explicit_indices_echoed(self, capsys, data_file):
        code, out, _ = run_cli(
            capsys, "test", data_file, "--m", "4", "--indices", "1,3",
            "--trials", "200", "--seed", "11",
        )
        assert code == 0
        record = json.loads(out)
        assert record["indices"] == [1, 3] and record["ell"] == 2

    def test_p_inf_round_trips_as_string(self, capsys, data_file):
        _, out, _ = run_cli(
            capsys, "test", data_file, "--p", "inf", *self.ARGS
        )
        assert json.loads(out)["p"] == "inf"

    def test_conflicting_rank_flags_exit_2(self, capsys, data_file):
        code, _, err = run_cli(
            capsys, "test", data_file, "--m", "4", "--indices", "1,3",
            "--ell", "2", "--seed", "11",
        )
        assert code == 2 and err.startswith("error:")

    @pytest.mark.parametrize("flag, value", [
        ("--assumed-alpha", "0.5"), ("--assumed-beta", "2"), ("--index-rule", "low"),
    ])
    def test_rank_choice_flag_without_ell_exits_2(self, capsys, data_file, flag, value):
        code, out, err = run_cli(capsys, "test", data_file, *self.ARGS, flag, value)
        assert code == 2 and out == "" and err.startswith("error:")
        code, _, _ = run_cli(capsys, "test", data_file, *self.ARGS, flag, value, "--ell", "2")
        assert code == 0

    def test_unknown_family_exits_2(self, capsys, data_file):
        code, _, err = run_cli(
            capsys, "test", data_file, "--g", "gaussian", "--seed", "1"
        )
        assert code == 2 and err.startswith("error:")

    @pytest.mark.parametrize("g", ["frechet:inf", "log-logistic:inf", "log-logistic:nan"])
    def test_non_finite_shape_exits_2(self, capsys, data_file, g):
        code, out, err = run_cli(capsys, "test", data_file, "--g", g, "--seed", "1")
        assert code == 2 and out == "" and err.startswith("error:")

    def test_unparseable_data_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("1.0\ntwo\n")
        code, _, err = run_cli(capsys, "test", str(bad), "--seed", "1")
        assert code == 2 and "2" in err


class TestPpTestCommand:
    def test_record_shape(self, capsys, data_file):
        code, out, _ = run_cli(
            capsys, "pp-test", data_file, "--trials", "200", "--seed", "9"
        )
        assert code == 0
        record = json.loads(out)
        assert record["test"] == "proschan-pyke"
        assert record["n"] == 40 and record["side"] == "ihr"
        assert record["reject"] == (
            record["statistic"] >= record["critical_value"]
        )

    def test_two_point_sample_exits_2(self, capsys, tmp_path):
        tiny = tmp_path / "tiny.txt"
        tiny.write_text("1.0\n2.0\n")
        code, _, err = run_cli(capsys, "pp-test", str(tiny), "--seed", "1")
        assert code == 2 and err.startswith("error:")


class TestCriticalValueCommand:
    def test_grid_is_fully_crossed(self, capsys):
        code, out, _ = run_cli(
            capsys, "critical-value", "--n", "20,30", "--m", "2,3",
            "--p", "1,inf", "--side", "upper,lower",
            "--trials", "150", "--seed", "5",
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert tuple(rows[0]) == (
            "n", "m", "ell", "p", "side", "alpha", "critical_value",
            "trials", "seed",
        )
        assert len(rows) == 1 + 16
        assert {r[3] for r in rows[1:]} == {"1.0", "inf"}
        assert all(float(r[6]) >= 0.0 for r in rows[1:])

    def test_m_defaults_to_sample_size_rule(self, capsys):
        code, out, _ = run_cli(
            capsys, "critical-value", "--n", "20,30",
            "--trials", "150", "--seed", "5",
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))[1:]
        assert [(int(r[0]), int(r[1])) for r in rows] == [(20, 3), (30, 5)]

    def test_explicit_indices_are_used_and_counted(self, capsys):
        code, out, _ = run_cli(
            capsys, "critical-value", "--n", "50", "--m", "5", "--indices", "2,3",
            "--trials", "200", "--seed", "1",
        )
        assert code == 0
        (row,) = list(csv.reader(io.StringIO(out)))[1:]
        spec = TestSpec(ref=Exponential(), m=5, indices=(2, 3), mc_trials=200, seed=1)
        assert row[2] == "2"
        assert float(row[6]) == critical_value(spec, 50)
        assert float(row[6]) != critical_value(replace(spec, indices=None), 50)


class TestPowerCommand:
    ARGS = (
        "power", "--family", "weibull", "--n", "20", "--m", "1",
        "--replications", "10", "--trials", "120", "--seed", "3",
    )

    def test_param_list_grid(self, capsys):
        code, out, _ = run_cli(capsys, *self.ARGS, "--params", "1.0,1.5")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert tuple(rows[0]) == CSV_HEADER
        assert len(rows) == 1 + 2
        assert all(0.0 <= float(r[7]) <= 1.0 for r in rows[1:])

    def test_param_range_expansion(self, capsys):
        code, out, _ = run_cli(capsys, *self.ARGS, "--param-range", "1.0:2.0:0.5")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))[1:]
        assert [r[1] for r in rows] == ["1.0", "1.5", "2.0"]

    def test_param_range_stops_at_hi(self, capsys):
        code, out, _ = run_cli(capsys, *self.ARGS, "--param-range", "1:2:0.6")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))[1:]
        assert [r[1] for r in rows] == ["1.0", "1.6"]

    def test_missing_m_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, "power", "--family", "weibull", "--params", "1.5",
            "--n", "20", "--replications", "5", "--seed", "3",
        )
        assert code == 2 and "--m" in err

    def test_missing_params_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, "power", "--family", "weibull", "--n", "20", "--m", "1",
            "--seed", "3",
        )
        assert code == 2 and err.startswith("error:")

    def test_pp_baseline_rows(self, capsys):
        code, out, _ = run_cli(
            capsys, "power", "--family", "weibull", "--params", "1.5",
            "--n", "20", "--pp", "--replications", "10",
            "--trials", "120", "--seed", "3",
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        (row,) = rows[1:]
        assert row[6] == "ihr"
        assert row[3] == row[4] == row[5] == ""

    def test_pp_with_two_point_samples_exits_2(self, capsys):
        code, out, err = run_cli(
            capsys, "power", "--family", "weibull", "--params", "1.5",
            "--n", "2", "--pp", "--replications", "10",
            "--trials", "120", "--seed", "3",
        )
        assert code == 2 and out == "" and err.startswith("error:")

    def test_indices_flag_is_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["power", "--family", "weibull", "--params", "1.5", "--n", "20",
                  "--m", "5", "--indices", "2,3", "--seed", "3"])
        capsys.readouterr()

    @pytest.mark.parametrize("family, value", [
        ("shifted-exponential", "nan"), ("weibull", "inf"), ("student-t", "inf"),
    ])
    def test_non_finite_parameter_exits_2(self, capsys, family, value):
        code, out, err = run_cli(
            capsys, "power", "--family", family, "--params", value, "--n", "20",
            "--m", "4", "--replications", "200", "--trials", "200", "--seed", "1",
        )
        assert code == 2 and out == "" and err.startswith("error:")

    @pytest.mark.parametrize("text", ["1:inf:0.5", "nan:2:0.5", "1:2:inf", "1:2:nan"])
    def test_non_finite_param_range_exits_2(self, capsys, text):
        code, out, err = run_cli(capsys, *self.ARGS, "--param-range", text)
        assert code == 2 and out == "" and err.startswith("error:")

    PP_ARGS = (
        "power", "--family", "weibull", "--params", "1.5", "--n", "20", "--pp",
        "--replications", "10", "--trials", "100", "--seed", "1",
    )

    @pytest.mark.parametrize("flag, value", [("--g", "cauchy"), ("--m", "5"), ("--p", "2")])
    def test_pp_rejects_test_spec_flags(self, capsys, flag, value):
        code, out, err = run_cli(capsys, *self.PP_ARGS, flag, value)
        assert code == 2 and out == "" and err.startswith("error:")
        assert flag in err

    def test_pp_accepts_default_spec_values_and_run_flags(self, capsys):
        _, plain, _ = run_cli(capsys, *self.PP_ARGS)
        code, same, _ = run_cli(capsys, *self.PP_ARGS, "--g", "exponential", "--p", "1.0")
        assert code == 0 and same == plain
        code, out, _ = run_cli(capsys, *self.PP_ARGS, "--side", "lower", "--alpha", "0.2")
        assert code == 0
        (row,) = list(csv.reader(io.StringIO(out)))[1:]
        assert row[6] == "dhr"

    @pytest.mark.parametrize("flag, value", [
        ("--assumed-alpha", "0.5"), ("--assumed-beta", "2"), ("--index-rule", "low"),
    ])
    def test_rank_choice_flag_without_ell_exits_2(self, capsys, flag, value):
        code, out, err = run_cli(capsys, *self.ARGS, "--params", "1.5", flag, value)
        assert code == 2 and out == "" and err.startswith("error:")

    def test_every_spec_flag_reaches_the_grid(self, capsys):
        code, out, _ = run_cli(
            capsys, "power", "--family", "log-logistic", "--params", "0.5,0.8",
            "--n", "30", "--g", "log-logistic:1.5", "--m", "20,25", "--ell", "5",
            "--p", "2", "--side", "lower", "--alpha", "0.05", "--trials", "300",
            "--assumed-alpha", "0.1", "--assumed-beta", "0.5", "--index-rule", "low",
            "--replications", "400", "--seed", "7",
        )
        spec = TestSpec(ref=LogLogistic(1.5), p_norm=2.0, side=Side.LOWER,
                        assumed_tails=TailInfo(0.1, 0.5), index_rule="low",
                        sig_level=0.05, mc_trials=300, seed=7)
        grid = PowerGrid("log-logistic", (0.5, 0.8), (30,), ((20, 5), (25, 5)), spec,
                         replications=400)
        assert code == 0
        assert out == estimate_power(grid).to_csv()


class TestReproduceCommand:
    def test_writes_exhibit_csv(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "reproduce", "table1", "--out-dir", str(tmp_path),
            "--replications", "2", "--trials", "100", "--seed", "1",
        )
        assert code == 0
        path = tmp_path / "table1.csv"
        assert out.strip() == str(path)
        rows = list(csv.reader(io.StringIO(path.read_text())))
        assert tuple(rows[0]) == CSV_HEADER
        assert len(rows) == 1 + 48

    def test_unknown_target_rejected_by_parser(self, capsys, tmp_path):
        with pytest.raises(SystemExit):
            main(["reproduce", "table9", "--out-dir", str(tmp_path)])
        capsys.readouterr()


class TestHillCommand:
    def test_default_k_is_isqrt(self, capsys, tmp_path):
        rng = np.random.default_rng(17)
        path = tmp_path / "pareto.txt"
        path.write_text(
            "\n".join(f"{v:.12g}" for v in rng.uniform(size=25) ** -0.5) + "\n"
        )
        code, out, _ = run_cli(capsys, "hill", str(path))
        assert code == 0
        record = json.loads(out)
        assert record["n"] == 25 and record["k"] == 5
        assert record["alpha_hat"] > 0.0

        code, out, _ = run_cli(capsys, "hill", str(path), "--k", "3")
        assert json.loads(out)["k"] == 3

    def test_nonpositive_tail_exits_2(self, capsys, tmp_path):
        path = tmp_path / "neg.txt"
        path.write_text("-1.0\n-2.0\n-3.0\n-4.0\n")
        code, _, err = run_cli(capsys, "hill", str(path))
        assert code == 2 and err.startswith("error:")
