"""cxorder benchmark: one workload per invocation, closed loop, one client.

    python3 perfbench/run.py --workload cold_large --seed 0 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from its `src/`.
With --trace 0 the run measures the end-to-end metrics with no tracing,
its times scaled to a reference machine speed (see speed.py).
With --trace 1 it traces every other request and reports per-layer metrics
and the tracing overhead. BENCHMARK.json names the metrics each mode prints.
Every request's output is checked; the last line of stdout is one JSON
object with `correct`, `attempted`, `failed` and `metrics`. A result file
with the machine and code record goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

import numpy as np  # noqa: E402

from perfbench import layers, speed, tracing  # noqa: E402
from perfbench.program import Program, ProgramMissing  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

OUT = HERE / "out"
SETUP_REPEATS = 5

# Units of the figures a run prints but does not gate. The gated and
# per-layer metrics, with their units, are the ones BENCHMARK.json names.
# The raw_ figures are wall times as measured, before scaling to the
# reference speed (see speed.py).
EXTRA_UNITS = {"latency_p50_s": "s", "latency_p90_s": "s", "reps_per_s": "1/s",
               "raw_setup_s": "s", "raw_latency_p50_s": "s", "raw_latency_p90_s": "s",
               "raw_reps_per_s": "1/s", "requests": "count", "traced_requests": "count"}


def metric_units(root: Path) -> dict[str, dict[str, str]]:
    """Name -> unit of the end-to-end and the per-layer metrics, in the
    order BENCHMARK.json lists them."""
    bench = json.loads((root / "BENCHMARK.json").read_text())
    return {key: {m["name"]: m["unit"] for m in bench[key]} for key in ("end_to_end", "per_layer")}


def import_seconds(program: Program) -> tuple[float, float, float]:
    """Seconds to import numpy, then the package, in a fresh interpreter, and
    the package's import at the reference speed, by probes the child takes
    around it."""
    code = ("import sys, time; sys.path[:0] = sys.argv[1:]; t = time.perf_counter(); "
            "import numpy; n = time.perf_counter() - t; from perfbench import speed; "
            "b = speed.probe(); t = time.perf_counter(); import cxorder; "
            "s = time.perf_counter() - t; print(n, s, speed.scale(s, (b * speed.probe()) ** 0.5))")
    done = subprocess.run([sys.executable, "-c", code, str(program.src), str(ROOT)],
                          cwd=program.root, capture_output=True, text=True, timeout=120,
                          check=True)
    numpy_s, package_s, scaled_s = map(float, done.stdout.split())
    return numpy_s, package_s, scaled_s


def measure_setup(program: Program, workload) -> tuple[list[float], list[float]]:
    """The workload's in-process preparation plus the package's import in a
    fresh interpreter, repeated. Returns the raw samples, numpy's import
    included, and the samples at the reference speed, which leave numpy's
    import out (see speed.py)."""
    log, spans, imports = speed.Log(), [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workload.setup()
        spans.append((t0, time.perf_counter() - t0))
        imports.append(import_seconds(program))
        log.take()
    raw = [prep + numpy_s + package_s for (_, prep), (numpy_s, package_s, _) in zip(spans, imports)]
    scaled = [prep + imp for prep, (_, _, imp) in zip(log.scaled(spans), imports)]
    return raw, scaled


class Loop:
    """Closed loop: the next request is sent when the previous one ends."""

    def __init__(self, workload, program: Program) -> None:
        self.w = workload
        self.p = program
        self.next_index = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run(self, seconds: float, tracer: tracing.Tracer | None = None):
        """Requests until `seconds` have passed. With a tracer, every odd
        request is traced and the loop ends on one, so traced and untraced
        requests meet the same drift in machine speed and at least one is
        traced. Speed probes are taken between requests. Returns the
        untraced latencies, raw and at the reference speed, the traced
        latencies, replications, and the weight cache misses of each
        request."""
        plain, traced, reps, misses = [], [], 0, {}
        log = speed.Log()
        deadline = time.perf_counter() + seconds
        while True:
            i = self.next_index
            self.next_index += 1
            self.attempted += 1
            trace = tracer is not None and i % 2 == 1
            try:
                call = self.w.prepare(i)
                info = self.p.weight_cache_info
                before = info().misses if info else 0
                with (tracing.installed(tracer, layers.TARGETS, self.p.modules) if trace
                      else nullcontext()):
                    t0 = time.perf_counter()
                    result = tracer.request(i, call) if trace else call()
                    elapsed = time.perf_counter() - t0
                if info:
                    misses[i] = info().misses - before
                found = self.w.check(i, result)
            except Exception:  # a failing request is counted, and the loop goes on
                found = [traceback.format_exc()]
            log.take_if_due()
            if found:
                self.failed += 1
                self.problems.extend(f"request {i}: {msg}" for msg in found)
            elif trace:
                traced.append(elapsed)
            else:
                plain.append((t0, elapsed))
                reps += self.w.reps_per_request
            if time.perf_counter() >= deadline and (tracer is None or trace):
                log.take()
                raw = [s for _, s in plain]
                return raw, log.scaled(plain), traced, reps, misses

    def determinism(self) -> dict[str, bool]:
        try:
            checks = self.w.determinism()
        except Exception:
            self.problems.append(traceback.format_exc())
            checks = {"determinism_ran": False}
        self.attempted += len(checks)
        self.failed += sum(not ok for ok in checks.values())
        return checks


def latency_stats(latencies: list[float]) -> tuple[float, float]:
    if len(latencies) == 1:
        return latencies[0], latencies[0]
    return statistics.median(latencies), statistics.quantiles(latencies, n=10)[-1]


def blas_record() -> dict:
    info = {"name": "unknown", "version": "unknown", "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=blas.get("name", "unknown"), version=blas.get("version", "unknown"))
    except (KeyError, TypeError, ValueError):
        pass
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    return info


def machine_record(program: Program, seed: int) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_record(),
        "workload_seed": seed,
        "src_lines": program.line_counts(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be non-negative and --seconds positive")

    try:
        program = Program(ROOT)
    except ProgramMissing as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 2
    units = metric_units(ROOT)
    OUT.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](program, args.seed, OUT)
    setup_raw, setup_samples = measure_setup(program, workload)
    loop = Loop(workload, program)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine_record(program, args.seed),
              "setup_raw_s": setup_raw, "setup_samples_s": setup_samples}

    if args.trace == 0:
        t0 = time.perf_counter()
        raw, latencies, _, reps, _ = loop.run(args.seconds)
        if not latencies:  # every request failed; report the time spent
            raw = latencies = [time.perf_counter() - t0]
        p50, p90 = latency_stats(latencies)
        raw_p50, raw_p90 = latency_stats(raw)
        checks = loop.determinism()
        measured = {
            "setup_s": statistics.median(setup_samples),
            "latency_p50_s": p50,
            "latency_p90_s": p90,
            "reps_per_s": reps / sum(latencies),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "raw_setup_s": statistics.median(setup_raw),
            "raw_latency_p50_s": raw_p50,
            "raw_latency_p90_s": raw_p90,
            "raw_reps_per_s": reps / sum(raw),
            "requests": len(latencies),
        }
        units = units["end_to_end"]
        record.update(raw_latencies_s=raw, latencies_s=latencies)
    else:
        tracer = tracing.Tracer()
        plain, _, traced, _, misses = loop.run(args.seconds, tracer)
        checks = loop.determinism()
        spans = tracer.spans()
        measured, self_s = layers.analyse(
            spans, tracer.names, tracer.probes(), tracer.cpu(),
            misses if program.weight_cache_info else None)
        np.savez(OUT / f"spans-{args.workload}.npz", names=np.array(tracer.names),
                 self_s=self_s, **spans)
        if plain and traced:
            base = statistics.median(plain)
            measured["trace.overhead_s"] = statistics.median(traced) - base
            measured["trace.overhead_ratio"] = measured["trace.overhead_s"] / base
        else:  # every request of a kind failed; the run is already incorrect
            measured["trace.overhead_s"] = measured["trace.overhead_ratio"] = 0.0
        measured["traced_requests"] = len(traced)
        if args.workload == "cold_large":
            # Cold means cold: no request may find its weights or null table
            # already cached, whatever cache a later version adds.
            for name in ("order_stats.weights.hit_ratio", "testing.null_statistics.hit_ratio"):
                checks[f"cold_guard.{name}==0"] = measured[name] == 0.0
                loop.attempted += 1
                loop.failed += measured[name] != 0.0
        share, floor = layers.DOMINANT[args.workload]
        absent = tracing.find_bindings(layers.TARGETS, program.modules)[1]
        record.update(absent=absent, untraced_latencies_s=plain, traced_latencies_s=traced,
                      dominant={"metric": share, "floor": floor, "value": measured[share],
                                "confirmed": measured[share] >= floor})
        units = units["per_layer"]
    metrics = {name: measured[name] for name in units}
    extra = {name: value for name, value in measured.items()
             if name in EXTRA_UNITS and name not in units}

    record.update(checks=checks, problems=loop.problems, attempted=loop.attempted,
                  failed=loop.failed, error_rate=loop.failed / loop.attempted, metrics=metrics,
                  not_gated=extra)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n")

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    for name, value in metrics.items():
        print(f"  {name:40s} {value:.6g} {units[name]}")
    print(f"  {'error_rate':40s} {record['error_rate']:.6g} ({loop.failed} failed of "
          f"{loop.attempted} attempted)")
    for name, value in extra.items():
        print(f"  {name:40s} {value:.6g} {EXTRA_UNITS[name]} (not gated)")
    for name, ok in checks.items():
        print(f"  check {name}: {'ok' if ok else 'FAILED'}")
    if args.trace:
        dom = record["dominant"]
        print(f"  dominant layer {dom['metric']} = {dom['value']:.3f} "
              f"({'confirmed' if dom['confirmed'] else 'NOT confirmed'}, floor {dom['floor']})")
        if absent:
            print(f"  absent (reported as 0): {', '.join(absent)}")
    for msg in loop.problems[:20]:
        sys.stderr.write(msg.rstrip() + "\n")
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
