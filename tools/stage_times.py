"""Time each stage of a cxorder request on its own and write the figures,
with a record of the machine, to BENCH_<label>.json at the repository root.

    PYTHONPATH=src python3 tools/stage_times.py --label mychange

Each stage is timed best of 5 with time.perf_counter, after a set-up that
is not timed (clearing the cache layer, drawing the rows a stage reads),
and records the median of its repeats' minor page faults per call
(getrusage's ru_minflt). The observed statistic and the warm-request
stages take microseconds, so each of their repeats times CALLS
back-to-back calls and records the time per call (the caches they read
stay warm). The stages are the ones the north star names:

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
- a cold power study, the benchmark's power_study request: table1 and
  four Proschan-Pyke rows (weibull(1.5), n = 25, 50, 100, 200) at
  R = T = 1000, with the cache layer cleared before each repeat;
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

It uses the standard library and numpy only, and takes about 40 s on two
cores.

To compare two checkouts on one machine, time them in pairs:

    PYTHONPATH=src python3 tools/stage_times.py --label mychange --against ../parent

Each stage then runs in PAIRS (or --pairs) pairs of fresh interpreters,
one on this checkout's package and one on the other's, the first of each
pair alternating, so that both sides see the same mix of machine states.
The file names the other checkout by its directory and records, per
stage, each side's best time and median faults per pair, the median ratio
of this side's time to the other's, the pairs this side won and each
side's quartiles; and the import times of both. This
takes about ten minutes on two cores; --only restricts it to the stages
whose name contains a string.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
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
from cxorder import (Alternative, Cauchy, Exponential, Logistic, TestSpec, ingest, pp_power,
                     reproduce, run_test, statistic)
from cxorder._cache import CACHE_DIR_ENV, clear_caches
from cxorder._seeds import DrawTable
from cxorder.baselines import _pp_null
from cxorder.order_stats import _weights_readonly
from cxorder.testing import Side, _arrays_for, _observed, batch_statistics, null_statistics

try:
    from cxorder._blas import matmul
except ImportError:  # checkouts without the module get no pinned stage
    matmul = None

REPEATS = 5
CALLS = 2000
IMPORTS = 11
PAIRS = 5
ROOT = Path(__file__).resolve().parents[1]


def _faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def _best(run: Callable[[], object], setup: Callable[[], object] = lambda: None,
          calls: int = 1) -> dict:
    times, faults = [], []
    for _ in range(REPEATS):
        setup()
        before = _faults()
        start = time.perf_counter()
        for _ in range(calls):
            run()
        times.append((time.perf_counter() - start) / calls)
        faults.append((_faults() - before) / calls)
    return {"best_s": min(times), "times_s": times, "calls": calls,
            "faults_median": statistics.median(faults)}


def _weights(n: int, m: int) -> Callable[[], np.ndarray]:
    return lambda: _weights_readonly(n, m, tuple(range(1, m + 1)))


def _draw(family, n: int, count: int) -> Callable[[], dict]:
    def run() -> None:
        for _ in DrawTable(family, n, count, 11, "null").chunks():
            pass
    return lambda: _best(run)


def _sorted_rows(n: int, count: int) -> np.ndarray:
    """Sorted standard exponential rows, drawn here: the stages that score
    caller rows time the scoring, not the draw engine."""
    return np.sort(np.random.default_rng(11).exponential(size=(count, n)), axis=1)


def _bounds(ref, m: int) -> Callable[[], dict]:
    ranks = tuple(range(1, m + 1))
    return lambda: _best(lambda: _arrays_for(ref, 1, m, ranks),
                         lambda: (clear_caches(), _weights_readonly(1, m, ranks)))


def _null_cold() -> dict:
    _weights(1000, 150)()
    seeds = iter(range(100, 100 + REPEATS))
    return _best(
        lambda: null_statistics(Exponential(), 1000, 150, range(1, 151), 1.0, 2000, next(seeds)))


def _batch(n: int, count: int, m: int, tied: bool = False) -> Callable[[], dict]:
    def stage() -> dict:
        rows = _sorted_rows(n, count)
        rows = np.round(rows, 1) if tied else rows
        _weights(n, m)()
        return _best(lambda: batch_statistics(rows, Exponential(), m, range(1, m + 1), 1.0))
    return stage


def _observed_statistic() -> dict:
    sample = ingest(np.random.default_rng(5).exponential(size=200))
    spec = TestSpec(Exponential(), m=30, side=Side.UPPER)
    _weights(200, 30)()
    return _best(lambda: statistic(sample, spec), calls=CALLS)


def _warm(step: str) -> Callable[[], dict]:
    """One step of a warm logistic request, after an untimed first request."""
    def stage() -> dict:
        raw = np.random.default_rng(5).logistic(size=200)
        sample = ingest(raw)
        spec = TestSpec(Logistic(), m=30, side=Side.BOTH, mc_trials=2000, seed=3)
        run_test(sample, spec)
        pinned = spec.resolve(200)
        run = {"run_test": lambda: run_test(sample, spec),
               "ingest": lambda: ingest(raw),
               "observed": lambda: _observed(sample, spec),
               "resolve": lambda: spec.resolve(200),
               "arrays": lambda: _arrays_for(pinned.ref, 200, pinned.m, pinned.indices)}[step]
        return _best(run, calls=CALLS)
    return stage


def _pp_cold(n: int) -> Callable[[], dict]:
    return lambda: _best(lambda: _pp_null(n, 1000, 13), clear_caches)


def _power_study_cold() -> dict:
    """table1 and four Proschan-Pyke rows at R = T = 1000, every cache
    cleared first: the benchmark's power-study request."""
    with tempfile.TemporaryDirectory() as out:
        def run() -> None:
            reproduce("table1", out_dir=out, replications=1000, mc_trials=1000, seed=3)
            for n in (25, 50, 100, 200):
                pp_power("weibull", 1.5, n, "ihr", 1000, 1000, 0.1, 3)
        return _best(run, clear_caches)


def _product(rows: int, n: int, ranks: int, pinned: bool) -> Callable[[], dict]:
    def stage() -> dict:
        rng = np.random.default_rng(17)
        a, w = rng.random((rows, n)), rng.random((ranks, n))
        return _best(lambda: matmul(a, w.T) if pinned else a @ w.T)
    return stage


def stage_list() -> dict[str, Callable[[], dict]]:
    """Every stage by name, in order: a callable that sets the stage up and
    returns its timings."""
    out: dict[str, Callable[[], dict]] = {}
    for n, m in ((200, 30), (1000, 150)):
        out[f"weights_cold n={n} m={m}"] = lambda n=n, m=m: _best(_weights(n, m), clear_caches)
    for ref, m in ((Logistic(), 30), (Logistic(), 300), (Exponential(), 150), (Cauchy(), 300)):
        out[f"bounds_cold {ref.name} m={m}"] = _bounds(ref, m)
    out["draws exponential n=1000 rows=2000"] = _draw(Exponential(), 1000, 2000)
    out["draws student-t n=100 rows=5000"] = _draw(Alternative("student-t", 1.1), 100, 5000)
    out["draws weibull n=200 rows=1000"] = _draw(Alternative("weibull", 1.5), 200, 1000)
    out["null_statistics_cold n=1000 m=150 trials=2000"] = _null_cold
    out["batch_statistics n=1000 m=150 rows=2000"] = _batch(1000, 2000, 150)
    for n, ms in ((25, (1, 20)), (200, (1, 10, 20, 30, 50))):
        for m in ms:
            out[f"batch_statistics n={n} m={m} rows=1000"] = _batch(n, 1000, m)
    out["batch_statistics tied n=200 m=20 rows=1000"] = _batch(200, 1000, 20, tied=True)
    out["observed_statistic n=200 m=30 exponential"] = _observed_statistic
    out["run_test_warm n=200 m=30 trials=2000 logistic"] = _warm("run_test")
    out["ingest n=200"] = _warm("ingest")
    out["_observed warm n=200 m=30 logistic"] = _warm("observed")
    out["resolve n=200 m=30 logistic"] = _warm("resolve")
    out["_arrays_for warm n=200 m=30"] = _warm("arrays")
    for n in (25, 200, 500):
        out[f"pp_table_cold n={n} rows=1000"] = _pp_cold(n)
    out["power_study_cold table1+pp R=T=1000"] = _power_study_cold
    for rows, n, ranks in ((2000, 1000, 150), (5000, 2000, 300)):
        name = f"product rows={rows} n={n} ranks={ranks}"
        out[f"{name} unpinned"] = _product(rows, n, ranks, False)
        if matmul is not None:
            out[f"{name} one_thread"] = _product(rows, n, ranks, True)
    return out


def stages(only: str = "") -> dict[str, dict]:
    return {name: stage() for name, stage in stage_list().items() if only in name}


def _stage_in(src: Path, name: str) -> dict:
    """Stage name timed in a fresh interpreter on the package under src."""
    env = dict(os.environ, PYTHONPATH=str(src))
    run = subprocess.run([sys.executable, __file__, "--stage", name], env=env,
                         capture_output=True, text=True, check=True)
    return json.loads(run.stdout)


def paired(against: Path, pairs: int, only: str = "") -> dict[str, dict]:
    """Each stage timed in `pairs` pairs of fresh interpreters, one on this
    package and one on the package under against, the first of each pair
    alternating: each side's best time and median faults per pair, the
    median ratio of this side's time to the other's, the pairs this side
    won, and each side's quartiles."""
    this = Path(cxorder.__file__).resolve().parents[1]
    out = {}
    for name in stage_list():
        if only not in name:
            continue
        sides: dict[str, list[dict]] = {"this": [], "against": []}
        for i in range(pairs):
            order = [("this", this), ("against", against)]
            for side, src in order[:: 1 if i % 2 == 0 else -1]:
                sides[side].append(_stage_in(src, name))
        best = {side: [run["best_s"] for run in runs] for side, runs in sides.items()}
        ratios = [a / b for a, b in zip(best["this"], best["against"])]
        out[name] = {
            "best_s": best, "ratios": ratios, "median_ratio": statistics.median(ratios),
            "pairs_won": sum(r < 1.0 for r in ratios), "pairs": pairs,
            "quartiles_s": {side: statistics.quantiles(times, n=4) for side, times in best.items()},
            "faults_median": {side: statistics.median(run["faults_median"] for run in runs)
                              for side, runs in sides.items()},
        }
        print(f"{name:45s} ratio {out[name]['median_ratio']:.3f} won "
              f"{out[name]['pairs_won']}/{pairs}", flush=True)
    return out


def imports(package: Path) -> dict[str, dict]:
    code = ("import time, numpy; t = time.perf_counter(); import cxorder; "
            "print(time.perf_counter() - t)")
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
    parser.add_argument("--label", help="names the output BENCH_<label>.json")
    parser.add_argument("--against", type=Path, metavar="PATH",
                        help="another checkout, whose src/ each stage is paired against")
    parser.add_argument("--pairs", type=int, default=PAIRS,
                        help=f"interpreter pairs per stage with --against (at least {PAIRS})")
    parser.add_argument("--only", default="", help="time only stages whose name contains this")
    parser.add_argument("--stage", help=argparse.SUPPRESS)  # one stage, as JSON on stdout
    args = parser.parse_args()
    os.environ.pop(CACHE_DIR_ENV, None)  # a disk entry would serve the cold tables
    if args.stage is not None:
        print(json.dumps(stage_list()[args.stage]()))
        return
    if args.label is None:
        parser.error("--label is required")
    if args.against is not None and args.pairs < PAIRS:
        parser.error(f"--pairs must be at least {PAIRS}")
    package = Path(cxorder.__file__).resolve().parent
    record = {"label": args.label, "repeats": REPEATS, "machine": machine(),
              "imports": imports(package)}
    if args.against is None:
        record["stages"] = stages(args.only)
    else:
        src = args.against.resolve() / "src"
        record["against"] = {"label": args.against.resolve().name,
                             "imports": imports(src / "cxorder")}
        record["paired_stages"] = paired(src, args.pairs, args.only)
    record["tracemalloc_peak"] = memory()
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    for name, stage in record["imports"].items():
        print(f"{name:45s} {stage['median_s'] * 1e3:10.4f} ms median")
    for name, stage in record.get("stages", {}).items():
        print(f"{name:45s} {stage['best_s'] * 1e3:10.4f} ms {stage['faults_median']:8.0f} faults")
    for name, peak in record["tracemalloc_peak"].items():
        print(f"{name:45s} {peak['peak_mib']:10.2f} MiB peak")
    print(f"wrote {path.name}")


if __name__ == "__main__":
    main()
