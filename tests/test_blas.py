"""Products behind every statistic run on one OpenBLAS thread, so output
bytes do not depend on the BLAS thread count."""

import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from cxorder import Exponential, TestSpec, _blas, _cache, ingest, run_test

pytestmark = pytest.mark.skipif(
    _blas.handle() is None,
    reason="numpy's bundled OpenBLAS exports no thread-count functions; products are plain @",
)

SRC = Path(__file__).resolve().parents[1] / "src"


def test_cli_bytes_do_not_depend_on_openblas_threads(tmp_path):
    data = tmp_path / "weibull.txt"
    x = np.random.default_rng(5).weibull(1.3, size=1000)
    data.write_text("\n".join(repr(float(v)) for v in x) + "\n")
    argv = ["test", str(data), "--g", "exponential", "--m", "30", "--trials", "200",
            "--seed", "3", "--side", "both"]
    code = "import sys; from cxorder.cli import main; sys.exit(main(sys.argv[1:]))"
    outputs = []
    for threads in ("1", "2"):
        env = {k: v for k, v in os.environ.items() if k != _cache.CACHE_DIR_ENV}
        env.update(PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS=threads)
        run = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True,
                             check=True, timeout=120)
        outputs.append(run.stdout)
    assert outputs[0] == outputs[1]


def _race(work, threads: int = 4) -> None:
    """Run work(k) on each of `threads` threads, with a short switch interval."""
    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)
        workers = [threading.Thread(target=work, args=(k,)) for k in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)
        assert not any(worker.is_alive() for worker in workers)
    finally:
        sys.setswitchinterval(interval)


def test_concurrent_products_restore_the_thread_count():
    get, put = _blas.handle()
    start = get()
    a = np.random.default_rng(4).random((400, 400))
    seen, got = [], []
    barrier = threading.Barrier(4, action=lambda: seen.append(get()), timeout=120)

    def work(k):
        for _ in range(20):
            barrier.wait()
            got.append(_blas.matmul(a, a).tobytes())
        barrier.wait()

    put(2)
    try:
        _race(work)
    finally:
        put(start)
    assert seen == [2] * 21
    assert len(got) == 80 and len(set(got)) == 1


def test_concurrent_requests_restore_the_thread_count():
    get, put = _blas.handle()
    start = get()
    n, m, rounds = 400, 40, 12
    sample = ingest(np.random.default_rng(9).exponential(size=n))
    # One draw table; every request scores it on its own ranks, so each
    # runs its own gap-matrix product.
    specs = [TestSpec(Exponential(), m=m, indices=tuple(range(1 + k, m + 1 - r)),
                      mc_trials=1000, seed=3) for r in range(rounds) for k in range(4)]
    run_test(sample, specs[0])
    seen, results = [], {}
    barrier = threading.Barrier(4, action=lambda: seen.append(get()), timeout=120)

    def work(k):
        results[k] = []
        for r in range(rounds):
            barrier.wait()
            results[k].append(run_test(sample, specs[4 * r + k]))
        barrier.wait()

    put(2)
    try:
        _race(work)
    finally:
        put(start)
    # The count between rounds, when no product runs, is the one set above.
    assert seen == [2] * (rounds + 1)
    _cache.clear_caches()
    for k, got in results.items():
        assert got == [run_test(sample, spec) for spec in specs[k::4]]
