"""Print a SHA-256 digest of each output covered by the determinism contract.

The first line names the OpenBLAS kernel that numpy runs (`_blas.core()`),
because the kernel changes bytes. A change that claims to leave every output
byte alone is checked by comparing this script's listing with the committed
listing of the machine's kernel, tools/output_digest.<kernel>.txt:

    kernel=$(PYTHONPATH=src python3 -c 'from cxorder._blas import core; print(core())')
    listing=tools/output_digest.$kernel.txt
    [ -e "$listing" ] || listing=tools/output_digest.SkylakeX.txt
    diff <(PYTHONPATH=src python3 tools/output_digest.py) "$listing"

On a kernel with no listing the diff fails on the first line, which names
the kernel; compare two checkouts there instead. A change that alters
outputs regenerates every listing, each under OPENBLAS_CORETYPE set to its
kernel for this script's process, and says which lines changed. The
listings hold for numpy 2.4.6 with OpenBLAS 0.3.31 (scipy-openblas). Against
SkylakeX (AVX-512), Haswell (AVX2) differs on 11 of the 47 digest lines, the
five `cli test-*` and `critical-value` lines, the three `null_statistics`
lines at n = 200 and the three `batch_statistics` lines at n = 200, m = 5,
and Sandybridge on 23, which add the null tables at n = 2 and n = 5 and
every `batch_statistics` line.

It covers the seven exhibit CSVs at R = T = 300, each built with every
cache cleared first and again in one pass over all seven that shares the
caches (the script exits 1 if a shared-cache digest differs from its cold
one), `cxorder test` JSON records for several references and rank-selection
modes, `pp-test`, `critical-value` and `power` output (one power grid
with an infeasible cell, one with every test-spec flag set), and raw
null-statistic tables for small and medium n, and `batch_statistics` on
caller rows (plain, tied and subnormal). Takes about 3.5 s on two cores.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import tempfile
from pathlib import Path

import numpy as np

from cxorder import Cauchy, Exponential, Logistic, _blas
from cxorder._cache import clear_caches
from cxorder.cli import main
from cxorder.simulation import EXHIBITS, reproduce
from cxorder.testing import batch_statistics, null_statistics

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
    # Every test-spec flag away from its default; --index-rule and the
    # assumed tails each move the rate.
    "power-every-spec-flag": ["power", "--family", "log-logistic", "--params", "0.5",
                              "--n", "30", "--g", "log-logistic", "--m", "25", "--ell", "5",
                              "--assumed-alpha", "0.1", "--assumed-beta", "4",
                              "--index-rule", "central", "--side", "lower", "--p", "2",
                              "--alpha", "0.05", "--replications", "400"],
}


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _cli(argv: list[str]) -> bytes:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return f"exit={code}\n{out.getvalue()}".encode()


def main_digest() -> None:
    print(f"kernel {_blas.core()}")
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        # The cold lines keep their threads=1 label, so listings from before
        # and after the shared-cache pass compare line for line.
        cold = {}
        for target in sorted(EXHIBITS):
            clear_caches()
            path = reproduce(target, out_dir=root / "cold", replications=BUDGET,
                             mc_trials=BUDGET, seed=0, threads=1)
            cold[target] = _digest(path.read_bytes())
            print(f"exhibit {target} threads=1 {cold[target]}")
        clear_caches()
        differ = []
        for target in sorted(EXHIBITS):
            path = reproduce(target, out_dir=root / "shared", replications=BUDGET,
                             mc_trials=BUDGET, seed=0)
            digest = _digest(path.read_bytes())
            print(f"exhibit {target} shared-cache {digest}")
            if digest != cold[target]:
                differ.append(target)

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
    # Caller rows, each table ending in a short chunk: the batched ECDF pass
    # (n = 25, m = 5), the batched pass with a last part block that goes row
    # by row (n = 200, m = 5) and the per-row pass (n = 200, m = 40); plain,
    # tied and subnormal rows.
    rng = np.random.default_rng(20251021)
    for n, m, rows in ((25, 5, 3000), (200, 5, 700), (200, 40, 700)):
        plain = np.sort(rng.standard_exponential((rows, n)), axis=1)
        for name, table in (("plain", plain), ("tied", np.round(plain, 1)),
                            ("subnormal", plain * 1e-310)):
            t_plus, t_minus = batch_statistics(table, Exponential(), m, range(1, m + 1), 1.0)
            blob = t_plus.tobytes() + t_minus.tobytes()
            print(f"batch_statistics {name} n={n} m={m} rows={rows} {_digest(blob)}")
    if differ:
        raise SystemExit(f"shared-cache CSVs differ from the cold ones: {', '.join(differ)}")


if __name__ == "__main__":
    main_digest()
