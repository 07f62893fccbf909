"""Time each stage of a cxorder request on its own and write the figures,
with a record of the machine, to BENCH_<label>.json at the repository root.

    PYTHONPATH=src python3 tools/stage_times.py --label mychange

Each stage is timed best of 5 with time.perf_counter, after a set-up that
is not timed (clearing the cache layer, drawing the rows a stage reads).
The observed statistic and the warm-request stages take microseconds, so
each of their repeats times CALLS back-to-back calls and records the time
per call (the caches they read stay warm). The stages are the ones the north star names:

- cold L-estimator weights of every rank at (n, m) = (200, 30) and
  (1000, 150), one weight matrix, with the cache layer cleared before each
  repeat;
- exceedance bounds: the cold bound vector of every rank that
  `testing._arrays_for` builds for a request, with the cache layer cleared
  and the (cheap, n = 1) weights rebuilt before each repeat: logistic at
  m = 30 and 300, exponential at m = 150 and Cauchy at m = 300 (tanh-sinh
  quadrature);
- draws: one pass over `DrawTable.chunks()`, which draws a table chunk by
  chunk and holds none of it: exponential nulls at n = 1000, 2000 rows;
  Student's t(1.1) at n = 100, 5000 rows (table2's shape); weibull(1.5) at
  n = 200, 1000 rows (the power study's alternatives);
- a cold exponential null table at n = 1000, m = 150 (every rank), p = 1,
  T = 2000 (`null_statistics`: draws and scoring), with warm weights and a
  new seed for each repeat, so the table is cold and the weights are not;
- `batch_statistics` at m = 150, every rank, p = 1, on 2000 sorted
  exponential rows of n = 1000 that the caller drew (so no gap matrix is
  cached), with warm weights; the same on 1000 rows at n = 25 with m = 1
  and 20 (the power study's shapes), at n = 200 with m = 1, 10, 20, 30 and
  50 (the scoring kernel's batched ECDF pass takes at most 32 ranks, so the
  sweep crosses its cut-off), and on 1000 rows at n = 200 rounded to 0.1,
  so nearly every row has a tie;
- the observed statistic at n = 200, m = 30 against the exponential
  reference (closed-form bounds), with warm weights;
- a warm `run_test`, logistic reference, n = 200, m = 30, T = 2000, both
  sides, with the null table and the bounds computed by an untimed first
  request, and four of a warm request's steps on their own: `ingest` of the
  n = 200 sample, `TestSpec.resolve` of that spec (the rank check), a warm
  `testing._arrays_for` (the weight matrix and bound vector of its ranks)
  and a warm `testing._observed` (resolve, arrays, the one-row score and
  the diagnostics);
- a cold Proschan-Pyke null table (`baselines._pp_null`: draws and pair
  counts) of 1000 rows at n = 25, 200 and 500, with the cache layer cleared
  before each repeat;
- the gap-matrix product rows @ weights.T at (rows, n, ranks) =
  (2000, 1000, 150) and (5000, 2000, 300), as a plain `@` on the BLAS's
  own threads and through `cxorder._blas.matmul` on one thread (checkouts
  without that module get no pinned stage).

It also times `import cxorder` in IMPORTS pairs of fresh interpreters,
each timing the import with time.perf_counter after importing numpy, as
the benchmark's set-up does, and records the medians. Each pair imports
two copies of the package made in a temporary directory: one without
bytecode, under PYTHONDONTWRITEBYTECODE=1, so that every module compiles
from source, and one whose bytecode an untimed import wrote first.

Apart from the timings, it records the tracemalloc peak, in MiB, of one
cold exponential null table (`null_statistics`, p = 1, every rank, weights
and bounds warm, no disk cache) at (n, T, m) = (1000, 2000, 150) and
(2000, 5000, 300): the memory a cold request needs beyond its weights; and
of one cold Proschan-Pyke null table (`_pp_null`) at (n, R) = (500, 5000).
Warming the weights at (2000, 300) takes about 5 s.

To compare two checkouts on one machine, run this script from either with
PYTHONPATH pointing at each checkout's src/ in turn, under two labels, and
compare the files stage by stage. It uses the standard library and numpy
only, and takes about 40 s on two cores.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path
from typing import Callable

import numpy as np

import cxorder
from cxorder import (Alternative, Cauchy, Exponential, Logistic, TestSpec, ingest, run_test,
                     statistic)
from cxorder._cache import CACHE_DIR_ENV, clear_caches
from cxorder._seeds import DrawTable
from cxorder.baselines import _pp_null
from cxorder.order_stats import _weights_readonly
from cxorder.testing import Side, _arrays_for, _observed, batch_statistics, null_statistics

REPEATS = 5
CALLS = 2000
IMPORTS = 11
ROOT = Path(__file__).resolve().parents[1]


def _best(run: Callable[[], object], setup: Callable[[], object] = lambda: None,
          calls: int = 1) -> dict:
    times = []
    for _ in range(REPEATS):
        setup()
        start = time.perf_counter()
        for _ in range(calls):
            run()
        times.append((time.perf_counter() - start) / calls)
    return {"best_s": min(times), "times_s": times, "calls": calls}


def _weights(n: int, m: int) -> Callable[[], np.ndarray]:
    return lambda: _weights_readonly(n, m, tuple(range(1, m + 1)))


def _draw(family, n: int, count: int) -> Callable[[], None]:
    def run() -> None:
        for _ in DrawTable(family, n, count, 11, "null").chunks():
            pass
    return run


def _sorted_rows(n: int, count: int) -> np.ndarray:
    """Sorted standard exponential rows, drawn here: the stages that score
    caller rows time the scoring, not the draw engine."""
    return np.sort(np.random.default_rng(11).exponential(size=(count, n)), axis=1)


def _bounds(ref, m: int) -> dict:
    ranks = tuple(range(1, m + 1))
    return _best(lambda: _arrays_for(ref, 1, m, ranks),
                 lambda: (clear_caches(), _weights_readonly(1, m, ranks)))


def stages() -> dict[str, dict]:
    out = {}
    for n, m in ((200, 30), (1000, 150)):
        out[f"weights_cold n={n} m={m}"] = _best(_weights(n, m), clear_caches)
    for ref, m in ((Logistic(), 30), (Logistic(), 300), (Exponential(), 150), (Cauchy(), 300)):
        out[f"bounds_cold {ref.name} m={m}"] = _bounds(ref, m)
    out["draws exponential n=1000 rows=2000"] = _best(_draw(Exponential(), 1000, 2000))
    out["draws student-t n=100 rows=5000"] = _best(
        _draw(Alternative("student-t", 1.1), 100, 5000))
    out["draws weibull n=200 rows=1000"] = _best(
        _draw(Alternative("weibull", 1.5), 200, 1000))

    rows = _sorted_rows(1000, 2000)
    _weights(1000, 150)()
    seeds = iter(range(100, 100 + REPEATS))
    out["null_statistics_cold n=1000 m=150 trials=2000"] = _best(
        lambda: null_statistics(Exponential(), 1000, 150, range(1, 151), 1.0, 2000, next(seeds)))
    out["batch_statistics n=1000 m=150 rows=2000"] = _best(
        lambda: batch_statistics(rows, Exponential(), 150, range(1, 151), 1.0))
    for n, ms in ((25, (1, 20)), (200, (1, 10, 20, 30, 50))):
        rows = _sorted_rows(n, 1000)
        for m in ms:
            _weights(n, m)()
            out[f"batch_statistics n={n} m={m} rows=1000"] = _best(
                lambda: batch_statistics(rows, Exponential(), m, range(1, m + 1), 1.0))
    tied = np.round(rows, 1)
    out["batch_statistics tied n=200 m=20 rows=1000"] = _best(
        lambda: batch_statistics(tied, Exponential(), 20, range(1, 21), 1.0))

    sample = ingest(np.random.default_rng(5).exponential(size=200))
    spec = TestSpec(Exponential(), m=30, side=Side.UPPER)
    _weights(200, 30)()
    out["observed_statistic n=200 m=30 exponential"] = _best(lambda: statistic(sample, spec),
                                                             calls=CALLS)

    raw = np.random.default_rng(5).logistic(size=200)
    sample = ingest(raw)
    spec = TestSpec(Logistic(), m=30, side=Side.BOTH, mc_trials=2000, seed=3)
    run_test(sample, spec)
    out["run_test_warm n=200 m=30 trials=2000 logistic"] = _best(
        lambda: run_test(sample, spec), calls=CALLS)
    out["ingest n=200"] = _best(lambda: ingest(raw), calls=CALLS)
    out["_observed warm n=200 m=30 logistic"] = _best(lambda: _observed(sample, spec),
                                                      calls=CALLS)
    out["resolve n=200 m=30 logistic"] = _best(lambda: spec.resolve(200), calls=CALLS)
    pinned = spec.resolve(200)
    out["_arrays_for warm n=200 m=30"] = _best(
        lambda: _arrays_for(pinned.ref, 200, pinned.m, pinned.indices), calls=CALLS)

    for n in (25, 200, 500):
        out[f"pp_table_cold n={n} rows=1000"] = _best(lambda: _pp_null(n, 1000, 13),
                                                      clear_caches)

    try:
        from cxorder._blas import matmul
    except ImportError:
        matmul = None
    rng = np.random.default_rng(17)
    for rows, n, ranks in ((2000, 1000, 150), (5000, 2000, 300)):
        a, w = rng.random((rows, n)), rng.random((ranks, n))
        name = f"product rows={rows} n={n} ranks={ranks}"
        out[f"{name} unpinned"] = _best(lambda: a @ w.T)
        if matmul is not None:
            out[f"{name} one_thread"] = _best(lambda: matmul(a, w.T))
    return out


def imports() -> dict[str, dict]:
    code = ("import time, numpy; t = time.perf_counter(); import cxorder; "
            "print(time.perf_counter() - t)")
    package = Path(cxorder.__file__).resolve().parent
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    times: dict[str, list[float]] = {"no_bytecode": [], "bytecode": []}
    with tempfile.TemporaryDirectory() as tmp:
        envs = {}
        for label in times:
            shutil.copytree(package, Path(tmp, label, "cxorder"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            envs[label] = dict(env, PYTHONPATH=str(Path(tmp, label)))
        envs["no_bytecode"]["PYTHONDONTWRITEBYTECODE"] = "1"

        def run(label: str) -> float:
            return float(subprocess.run([sys.executable, "-c", code], env=envs[label],
                                        capture_output=True, text=True, check=True).stdout)

        run("bytecode")  # untimed: writes the copy's bytecode
        for _ in range(IMPORTS):
            for label in times:
                times[label].append(run(label))
    return {f"import cxorder {label}": {"median_s": statistics.median(t), "times_s": t}
            for label, t in times.items()}


def _peak(run: Callable[[], object]) -> dict:
    tracemalloc.start()
    try:
        run()
        return {"peak_mib": tracemalloc.get_traced_memory()[1] / 2**20}
    finally:
        tracemalloc.stop()


def memory() -> dict[str, dict]:
    out = {}
    for n, trials, m in ((1000, 2000, 150), (2000, 5000, 300)):
        ranks = tuple(range(1, m + 1))
        clear_caches()
        _arrays_for(Exponential(), n, m, ranks)
        out[f"null_statistics_cold n={n} trials={trials} m={m}"] = _peak(
            lambda: null_statistics(Exponential(), n, m, ranks, 1.0, trials, 3))
    clear_caches()
    out["pp_table_cold n=500 rows=5000"] = _peak(lambda: _pp_null(500, 5000, 3))
    return out


def _blas() -> str:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = deps["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy before 1.26 has no mode="dicts"
        return "unknown"


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "openblas_num_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="names the output BENCH_<label>.json")
    args = parser.parse_args()
    os.environ.pop(CACHE_DIR_ENV, None)  # a disk entry would serve the cold tables
    record = {"label": args.label, "repeats": REPEATS, "machine": machine(),
              "imports": imports(), "stages": stages(), "tracemalloc_peak": memory()}
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    for name, stage in record["imports"].items():
        print(f"{name:45s} {stage['median_s'] * 1e3:10.4f} ms median")
    for name, stage in record["stages"].items():
        print(f"{name:45s} {stage['best_s'] * 1e3:10.4f} ms")
    for name, peak in record["tracemalloc_peak"].items():
        print(f"{name:45s} {peak['peak_mib']:10.2f} MiB peak")
    print(f"wrote {path.name}")


if __name__ == "__main__":
    main()
