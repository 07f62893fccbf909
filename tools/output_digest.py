"""Print a SHA-256 digest of each output covered by the determinism contract.

A change that claims to leave every output byte alone is checked by running
this script in two checkouts and comparing the two listings:

    PYTHONPATH=src python3 tools/output_digest.py > digests.txt

It covers the seven exhibit CSVs at R = T = 300 on one and on two threads,
`cxorder test` JSON records for several references and rank-selection
modes, `pp-test`, `critical-value` and `power` output (one power grid
with an infeasible cell), and raw null-statistic tables for small and
medium n. Takes about 15 s on two cores.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import tempfile
from pathlib import Path

import numpy as np

from cxorder import Cauchy, Exponential, Logistic
from cxorder._cache import clear_caches as clear_tables
from cxorder.cli import main
from cxorder.order_stats import _weights_readonly
from cxorder.simulation import EXHIBITS, reproduce
from cxorder.testing import null_statistics

BUDGET = 300

CLI_RUNS = {
    "test-exponential": ["test", "{x}", "--g", "exponential", "--side", "both"],
    "test-logistic": ["test", "{x}", "--g", "logistic", "--side", "both", "--p", "2"],
    "test-cauchy": ["test", "{x}", "--g", "cauchy", "--side", "both", "--ell", "6"],
    "test-frechet": ["test", "{x}", "--g", "frechet:0.5", "--side", "both", "--p", "inf"],
    "test-log-logistic-indices": ["test", "{x}", "--g", "log-logistic:2", "--m", "12",
                                  "--indices", "2,5,9", "--side", "lower"],
    "test-log-logistic-assumed": ["test", "{x}", "--g", "log-logistic", "--m", "20",
                                  "--ell", "8", "--assumed-alpha", "0.5", "--side", "upper"],
    "pp-test": ["pp-test", "{x}", "--side", "dhr"],
    "critical-value": ["critical-value", "--n", "20,50", "--m", "3,6", "--p", "1,inf",
                       "--side", "upper,lower"],
    "power-shifted-exponential": ["power", "--family", "shifted-exponential",
                                  "--params", "0.5", "--n", "20,40", "--m", "4",
                                  "--replications", "400"],
    "power-pp-student-t": ["power", "--family", "student-t", "--params", "3",
                           "--n", "30", "--pp", "--replications", "400"],
    # The m = 1 cell is infeasible: a Cauchy reference has no bound at j = 1 of 1.
    "power-student-t-cauchy": ["power", "--family", "student-t", "--params", "3",
                               "--n", "30", "--g", "cauchy", "--m", "1,4",
                               "--replications", "400"],
}


def clear_caches() -> None:
    clear_tables()
    _weights_readonly.cache_clear()


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _cli(argv: list[str]) -> bytes:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return f"exit={code}\n{out.getvalue()}".encode()


def main_digest() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for threads in (1, 2):
            for target in sorted(EXHIBITS):
                clear_caches()
                path = reproduce(target, out_dir=root / f"t{threads}", replications=BUDGET,
                                 mc_trials=BUDGET, seed=0, threads=threads)
                print(f"exhibit {target} threads={threads} {_digest(path.read_bytes())}")

        data = root / "data.txt"
        rng = np.random.default_rng(20250124)
        data.write_text("\n".join(repr(float(v)) for v in rng.weibull(1.3, 60)) + "\n")
        for name, argv in CLI_RUNS.items():
            argv = [a.replace("{x}", str(data)) for a in argv]
            # The record echoes the input path, which differs between runs.
            out = _cli(argv + ["--trials", str(BUDGET), "--seed", "7"])
            print(f"cli {name} {_digest(out.replace(str(data).encode(), b'data.txt'))}")

    for ref in (Exponential(), Logistic(), Cauchy()):
        for n in (1, 2, 5, 200):
            # m >= 2 keeps every Cauchy rank's bound defined.
            m = max(2, n // 7)
            t_plus, t_minus = null_statistics(ref, n, m, range(1, m + 1), 1.0, 1000, 3)
            blob = t_plus.tobytes() + t_minus.tobytes()
            print(f"null_statistics {ref.cache_key()} n={n} {_digest(blob)}")


if __name__ == "__main__":
    main_digest()
