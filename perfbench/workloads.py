"""The three closed-loop workloads, one client each.

Each workload prepares a request outside the timed region (fresh inputs
from the workload seed, caches cleared where the workload is cold), times
only the call into the package, then checks the output outside the timed
region. Inputs depend only on the workload seed and the request index.

- cold_large: `cxorder test` in-process at n = 1000 (default m = 150,
  2000 trials, both sides) with every cache cleared first. L-estimator
  weights dominate.
- warm_scan: a long-lived library process screening n = 200 logistic
  series with a null table built at set-up. Quadrature of the exceedance
  bounds dominates; nothing is drawn and no weight is computed.
- power_study: table1 at R = T = 1000 on two threads plus four
  Proschan-Pyke power rows, caches cleared first. The Monte Carlo engine
  dominates; bounds are closed forms.
"""

from __future__ import annotations

import csv
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

from . import reference as ref


def _rng(seed: int, *path: int) -> np.random.Generator:
    return np.random.default_rng([seed, *path])


def _program_seed(seed: int, *path: int) -> int:
    return int(_rng(seed, *path).integers(2**31))


class ColdLarge:
    N = 1000
    M = 150  # the package default, ceil(0.15 n); not passed on the command line
    TRIALS = 2000
    SHAPE = 1.3
    reps_per_request = TRIALS  # null trials the test rests on

    def __init__(self, program, seed: int, out: Path) -> None:
        self.p = program
        self.seed = seed
        self.path = out / "cold_large.txt"
        # One program seed per run: every request asks for the same null
        # table, so a cache that survived the clearing would be hit.
        self.program_seed = _program_seed(seed, 1)
        self.values: dict[int, np.ndarray] = {}
        self.first_output: str | None = None
        self.ref_weights = ref.weight_matrix(self.N, self.M)
        self.ref_bounds = ref.exponential_bounds(self.M)

    def setup(self) -> None:
        self.p.clear_caches()
        self._write(0)

    def _write(self, i: int) -> np.ndarray:
        values = _rng(self.seed, 1, i).weibull(self.SHAPE, self.N)
        self.path.write_text("".join(f"{v!r}\n" for v in values.tolist()))
        return values

    def prepare(self, i: int):
        self.values[i] = np.sort(self._write(i))
        self.p.clear_caches()
        argv = ["test", str(self.path), "--g", "exponential", "--side", "both",
                "--trials", str(self.TRIALS), "--seed", str(self.program_seed)]
        cli = self.p.mod("cli")

        def call():
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.main(argv)
            return code, out.getvalue(), err.getvalue()

        return call

    def check(self, i: int, result) -> list[str]:
        code, text, err = result
        values = self.values.pop(i)
        if code != 0:
            return [f"exit code {code}: {err.strip()}"]
        if i == 0:
            self.first_output = text
        records = json.loads(text)
        expect = ref.observed(values, self.ref_weights, self.ref_bounds)
        problems = []
        if [r.get("side") for r in records] != ["upper", "lower"]:
            return [f"sides {[r.get('side') for r in records]}"]
        for rec in records:
            side = rec["side"]
            echo = (rec["n"], rec["m"], rec["trials"], rec["seed"])
            if echo != (self.N, self.M, self.TRIALS, self.program_seed):
                problems.append(f"{side}: echoed (n, m, trials, seed) = {echo}")
            if not ref.close(rec["statistic"], expect[side]):
                problems.append(f"{side}: statistic {rec['statistic']!r} vs reference {expect[side]!r}")
            if not ref.mc_consistent(rec["statistic"], rec["critical_value"], rec["p_value"],
                                     rec["reject"], self.TRIALS):
                problems.append(f"{side}: decision or p-value inconsistent: {rec}")
        return problems

    def determinism(self) -> dict[str, bool]:
        """Request 0 again from cold must print the same bytes."""
        code, text, _ = self.prepare(0)()
        self.values.pop(0)
        return {"repeat_request_json_identical": code == 0 and text == self.first_output}


class WarmScan:
    N = 200
    M = 30
    TRIALS = 5000
    reps_per_request = TRIALS

    def __init__(self, program, seed: int, out: Path) -> None:
        self.p = program
        self.seed = seed
        testing = program.mod("testing")
        self.spec = testing.TestSpec(
            ref=program.mod("distributions").Logistic(),
            m=self.M,
            side=testing.Side.BOTH,
            mc_trials=self.TRIALS,
            seed=_program_seed(seed, 2, 1),
        )
        self.values: dict[int, np.ndarray] = {}
        self.ref_weights = ref.weight_matrix(self.N, self.M)
        self.ref_bounds = ref.logistic_bounds(self.M)

    def _run(self, raw):
        return self.p.mod("testing").run_test(self.p.mod("order_stats").ingest(raw), self.spec)

    def setup(self) -> None:
        """Build the null table (and weights) the scan will reuse."""
        self.p.clear_caches()
        self._run(_rng(self.seed, 2, 1).logistic(size=self.N))

    def prepare(self, i: int):
        raw = _rng(self.seed, 2, 0, i).logistic(size=self.N)
        self.values[i] = np.sort(raw)
        return lambda: self._run(raw)

    def check(self, i: int, result) -> list[str]:
        values = self.values.pop(i)
        expect = ref.observed(values, self.ref_weights, self.ref_bounds)
        scale = float(np.max(np.abs(values)))
        problems = []
        if [r.side for r in result] != ["upper", "lower"]:
            return [f"sides {[r.side for r in result]}"]
        for res in result:
            side = res.side
            if (res.n, res.config.get("trials"), res.config.get("seed")) != (
                    self.N, self.TRIALS, self.spec.seed):
                problems.append(f"{side}: echoed n, trials or seed differ: {res.config}")
            if not ref.close(res.statistic, expect[side]):
                problems.append(f"{side}: statistic {res.statistic!r} vs reference {expect[side]!r}")
            if [d.j for d in res.per_index] != list(range(1, self.M + 1)):
                problems.append(f"{side}: ranks {[d.j for d in res.per_index]}")
            else:
                for d, pi, mu in zip(res.per_index, self.ref_bounds, expect["mu"]):
                    if not ref.close(d.pi, pi):
                        problems.append(f"{side}: pi at j={d.j} {d.pi!r} vs reference {pi!r}")
                    if abs(d.mu_hat - mu) > ref.REL_TOL * scale:
                        problems.append(f"{side}: L-estimate at j={d.j} {d.mu_hat!r} vs {mu!r}")
            if not ref.mc_consistent(res.statistic, res.critical_value, res.p_value,
                                     res.reject, self.TRIALS):
                problems.append(f"{side}: decision or p-value inconsistent")
        return problems

    def determinism(self) -> dict[str, bool]:
        return {}


class PowerStudy:
    REPS = 1000
    THREADS = 2
    SHAPE = 1.5
    PP_N = (25, 50, 100, 200)
    TABLE1_ROWS = 48  # 3 norms x 4 sample sizes x 4 values of m
    reps_per_request = REPS * (TABLE1_ROWS + len(PP_N))  # every table cell and PP row

    def __init__(self, program, seed: int, out: Path) -> None:
        self.p = program
        self.seed = seed
        self.out = out / "power_study"
        self.first_csv: bytes | None = None

    def setup(self) -> None:
        self.p.clear_caches()
        self.out.mkdir(parents=True, exist_ok=True)

    def _table1(self, seed: int, threads: int, out_dir: Path) -> Path:
        sim = self.p.mod("simulation")
        return Path(sim.reproduce("table1", out_dir=out_dir, replications=self.REPS,
                                  mc_trials=self.REPS, seed=seed, threads=threads))

    def prepare(self, i: int):
        self.p.clear_caches()
        seed = _program_seed(self.seed, 3, i)
        sim = self.p.mod("simulation")

        def call():
            path = self._table1(seed, self.THREADS, self.out)
            rows = [sim.pp_power("weibull", self.SHAPE, n, side="ihr", replications=self.REPS,
                                 mc_trials=self.REPS, base_seed=seed) for n in self.PP_N]
            return path, rows

        return call

    def check(self, i: int, result) -> list[str]:
        path, pp_rows = result
        data = path.read_bytes()
        if i == 0:
            self.first_csv = data
        seed = _program_seed(self.seed, 3, i)
        rows = list(csv.DictReader(io.StringIO(data.decode())))
        problems = []
        if len(rows) != self.TABLE1_ROWS:
            problems.append(f"table1 has {len(rows)} rows")
        for row in rows:
            if int(row["trials"]) != self.REPS or int(row["seed"]) != seed or row["rate"] == "":
                problems.append(f"table1 row {row}")
            elif not ref.se_consistent(float(row["rate"]), float(row["se"]), self.REPS):
                problems.append(f"table1 rate or se out of range: {row}")
        for row in pp_rows:
            if row.rate is None or not ref.se_consistent(row.rate, row.se, row.trials):
                problems.append(f"pp row {row}")
        return problems

    def determinism(self) -> dict[str, bool]:
        """Request 0's table1 on one thread must match its two-thread bytes."""
        self.p.clear_caches()
        path = self._table1(_program_seed(self.seed, 3, 0), 1, self.out / "threads1")
        return {"table1_csv_identical_threads_1_vs_2": path.read_bytes() == self.first_csv}


WORKLOADS = {"cold_large": ColdLarge, "warm_scan": WarmScan, "power_study": PowerStudy}
