"""The cache layer behind every Monte Carlo table: keys, read-only values,
the byte budget, the disk version and clearing."""

import importlib
import math
import os
import pkgutil
import platform
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import cxorder
from cxorder import (Cauchy, Exponential, Frechet, InfeasibleSpecError, Logistic, PowerGrid,
                     TestSpec, critical_value, ingest, p_value, pi_bound, pp_power, run_test,
                     statistic)
from cxorder import _cache, baselines, order_stats, testing
from cxorder.special import ConvergenceError
from cxorder._seeds import DrawTable
from cxorder.baselines import _pp_null
from cxorder.distributions import Alternative
from cxorder.order_stats import _pi_values, _weights_readonly, os_weights
from cxorder.simulation import estimate_power
from cxorder.testing import _table_gaps, batch_statistics, null_statistics
from test_testing import _unlabeled_customs
from _tables import gap_matrix, stacked


@pytest.fixture(autouse=True)
def cold():
    _cache.clear_caches()
    yield
    _cache.clear_caches()


def _kinds() -> set:
    return {key[0] for key in _cache._entries}


def _fill() -> list:
    """Put every kind of entry in the store; returns the keys it holds. No
    entry is a draw table: a power grid keeps the gap matrices of its tables
    (50 and 120 rows of n = 20, scored at 3 ranks), never their rows."""
    grid = PowerGrid(alternative="weibull", params=(1.5,), n_grid=(20,), m_ell=((3, None),),
                     spec=TestSpec(Exponential(), mc_trials=120, seed=3), replications=50)
    estimate_power(grid)
    pp_power("weibull", 1.5, 12, replications=50, mc_trials=120, base_seed=3)
    assert _kinds() == {"gaps", "null", "pairs", "bounds", "weights"}
    shapes = {a.shape for value in _cache._entries.values() for a in _cache._arrays(value)}
    assert {(50, 3), (120, 3)} <= shapes
    assert not {(50, 20), (120, 20)} & shapes
    return list(_cache._entries)


def test_same_label_customs_get_their_own_gap_matrices_and_rates():
    refs = _unlabeled_customs()
    grids = [PowerGrid(alternative="weibull", params=(1.5,), n_grid=(40,), m_ell=((6, None),),
                       spec=TestSpec(ref, mc_trials=300, seed=2), replications=300)
             for ref in refs]
    fresh = []
    for grid in grids:
        _cache.clear_caches()
        fresh.append(estimate_power(grid).rows[0].rate)
    _cache.clear_caches()
    # Both references score the same cached alternative table.
    assert [estimate_power(grid).rows[0].rate for grid in grids] == fresh
    table = DrawTable(Alternative("weibull", 1.5), 40, 300, 2, "alt")
    gaps = [_cache._entries[("gaps", table.key(), ref.identity(), 6, tuple(range(1, 7)))]
            for ref in refs]
    assert gaps[0].tobytes() != gaps[1].tobytes()


def test_null_and_alternative_tables_never_share_an_entry():
    null_ref, alt = Exponential(), Alternative("weibull", 1.0)
    ranks = (1, 2, 3)
    for order in ((null_ref, alt), (alt, null_ref)):
        _cache.clear_caches()
        got = {}
        for family in order:
            label = "null" if family is null_ref else "alt"
            (got[label],) = _table_gaps(DrawTable(family, 30, 200, 5, label), null_ref,
                                        [(3, ranks)])
        assert [key[1] for key in _cache._entries if key[0] == "gaps"] == [
            DrawTable(family, 30, 200, 5, "null" if family is null_ref else "alt").key()
            for family in order]
        for label, family in (("null", null_ref), ("alt", alt)):
            want = gap_matrix(stacked(family, 30, 200, 5, label), null_ref, 3, ranks)
            assert got[label].tobytes() == want.tobytes()
        assert got["null"].tobytes() != got["alt"].tobytes()


@pytest.mark.parametrize("clear", [testing.clear_caches, _cache.clear_caches],
                         ids=["testing", "cache"])
def test_each_clear_caches_alias_empties_every_kind(clear):
    keys = _fill()
    clear()
    assert not _cache._entries
    assert _cache._held == 0
    assert [_cache.get(key) for key in keys] == [None] * len(keys)


def test_every_array_the_layer_hands_out_is_read_only(tmp_path, monkeypatch):
    monkeypatch.setenv(_cache.CACHE_DIR_ENV, str(tmp_path))
    _fill()
    # One gap matrix the grid stored and one computed here.
    table = DrawTable(Alternative("weibull", 1.5), 20, 50, 3, "alt")
    handed = [*_table_gaps(table, Exponential(), [(3, (1, 2, 3)), (5, (2, 4))]),
              *_pp_null(12, 120, 3), *null_statistics(Exponential(), 20, 3, (1, 2, 3), 1.0, 120, 3)]
    handed += [a for value in _cache._entries.values() for a in _cache._arrays(value)]
    _cache.clear_caches()
    handed += null_statistics(Exponential(), 20, 3, (1, 2, 3), 1.0, 120, 3)  # from disk
    handed += [a for value in _cache._entries.values() for a in _cache._arrays(value)]
    for arr in handed:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_disk_entry_of_another_version_is_recomputed(tmp_path, monkeypatch):
    monkeypatch.setenv(_cache.CACHE_DIR_ENV, str(tmp_path))
    args = (Exponential(), 20, 3, (1, 2, 3), 1.0, 300, 5)
    with monkeypatch.context() as patched:
        patched.setattr(_cache, "CACHE_VERSION", ("npz-pair-0", 0))
        null_statistics(*args)
    (old,) = tmp_path.glob("null-*.npz")
    with np.load(old) as archive:
        key = archive["key"]
    np.savez(old, tplus=np.full(300, 42.0), tminus=np.full(300, 42.0), key=key)
    _cache.clear_caches()
    got = [a.tobytes() for a in null_statistics(*args)]
    assert len(list(tmp_path.glob("null-*.npz"))) == 2
    monkeypatch.delenv(_cache.CACHE_DIR_ENV)
    _cache.clear_caches()
    assert got == [a.tobytes() for a in null_statistics(*args)]


def test_tiny_budget_evicts_least_recently_used_and_recomputes_identically(monkeypatch):
    ref, ranks = Exponential(), (1, 2, 3)
    tables = [DrawTable(ref, 25, 100, seed, "null") for seed in (1, 2, 3)]
    size = 100 * 3 * 8
    # The one weight matrix and bound vector all three tables share.
    shared = _weights_readonly(25, 3, ranks).nbytes + 3 * 8
    monkeypatch.setattr(_cache, "BUDGET_BYTES", int(2.5 * size) + shared)

    def gaps(table):
        return _table_gaps(table, ref, [(3, ranks)])[0]

    first = [gaps(table).tobytes() for table in tables[:2]]
    gaps(tables[0])  # now tables[1] is the least recently used
    third = gaps(tables[2])
    held = {key[1][-1] for key in _cache._entries if key[0] == "gaps"}
    assert held == {1, 3}
    assert _cache._held == 2 * size + shared
    assert _cache.get(("gaps", tables[2].key(), ref.identity(), 3, ranks)) is third
    again = [gaps(table).tobytes() for table in tables[:2]]
    assert again == first


def test_tiny_budget_gives_identical_power_tables(monkeypatch):
    grid = PowerGrid(alternative="weibull", params=(1.5, 2.0), n_grid=(20, 30),
                     m_ell=((1, None), (3, None)),
                     spec=TestSpec(Exponential(), p_norm=2.0, mc_trials=120, seed=7),
                     replications=60)
    want = estimate_power(grid).to_csv()
    _cache.clear_caches()
    # Two of the four draw tables (9.4 to 28 KiB each) fit at a time.
    monkeypatch.setattr(_cache, "BUDGET_BYTES", 40_000)
    assert estimate_power(grid).to_csv() == want
    assert 0 < _cache._held <= 40_000


def test_entry_over_budget_is_handed_out_read_only_and_not_held(monkeypatch):
    # The 100 x 3 gap matrix is 2400 bytes; its weights and bounds fit.
    monkeypatch.setattr(_cache, "BUDGET_BYTES", 1000)
    table = DrawTable(Exponential(), 25, 100, 1, "null")
    (gaps,) = _table_gaps(table, Exponential(), [(3, (1, 2, 3))])
    assert not gaps.flags.writeable
    assert gaps.tobytes() == gap_matrix(stacked(Exponential(), 25, 100, 1, "null"),
                                        Exponential(), 3, (1, 2, 3)).tobytes()
    assert _kinds() == {"bounds", "weights"}


def test_caller_rows_are_scored_without_caching():
    ref = Exponential()
    rows = stacked(ref, 20, 120, 4, "null")
    table = batch_statistics(DrawTable(ref, 20, 120, 4, "null"), ref, 3, (1, 2, 3), 1.0)
    _cache.clear_caches()
    caller = batch_statistics(rows, ref, 3, (1, 2, 3), 1.0)
    assert [a.tobytes() for a in caller] == [a.tobytes() for a in table]
    assert _kinds() == {"bounds", "weights"}


def test_gap_matrix_is_shared_across_p_norms():
    for p in (1.0, 2.0, math.inf):
        critical_value(TestSpec(ref=Exponential(), m=4, p_norm=p, mc_trials=200, seed=8), 30)
    assert sum(key[0] == "gaps" for key in _cache._entries) == 1
    assert sum(key[0] == "null" for key in _cache._entries) == 3


def test_pair_counts_of_a_table_serve_both_sides(monkeypatch):
    drawn = []
    real = DrawTable.chunks

    def counting(table):
        drawn.append(table.label)
        return real(table)

    monkeypatch.setattr(DrawTable, "chunks", counting)
    for side in ("ihr", "dhr"):
        pp_power("weibull", 1.5, 12, side=side, replications=50, mc_trials=120, base_seed=3)
    assert drawn == ["pp-null", "pp-alt"]
    alt = Alternative("weibull", 1.5)
    assert {key for key in _cache._entries if key[0] == "pairs"} == {
        ("pairs", ("pp-null", Exponential().identity(), 12, 120, 3)),
        ("pairs", ("pp-alt", alt.identity(), 12, 50, 3)),
    }


def test_every_drawn_table_is_keyed_by_the_family_identity():
    # Two unlabeled Custom references share a cache_key, and so their draw
    # streams, but not an identity: no table of one may serve the other.
    # Gap and pair entries name their table by one key, DrawTable.key().
    families = (*_unlabeled_customs(), Alternative("student-t", 3.0))
    for family in families:
        batch_statistics(DrawTable(family, 6, 10, 2, "gaps-label"), Exponential(), 2, (1, 2),
                         1.0)
        baselines._pp_table(DrawTable(family, 6, 10, 2, "pairs-label"))
    drawn = [(key[0], key[1]) for key in _cache._entries if key[0] in ("gaps", "pairs")]
    assert set(drawn) == {
        (kind, DrawTable(family, 6, 10, 2, f"{kind}-label").key())
        for family in families
        for kind in ("gaps", "pairs")
    }
    assert {table[:2] for _, table in drawn} == {
        (f"{kind}-label", family.identity()) for family in families for kind in ("gaps", "pairs")
    }
    assert len(drawn) == 2 * len(families)


def _bound_keys() -> list:
    return [key for key in _cache._entries if key[0] == "bounds"]


def test_repeat_request_computes_no_bound(monkeypatch):
    calls = []

    def counting(ref, m, ranks):
        calls.append(tuple(ranks))
        return _pi_values(ref, m, ranks)

    # Every bound vector is computed by one _pi_values call for all its ranks.
    monkeypatch.setattr(testing, "_pi_values", counting)
    sample = ingest(np.random.default_rng(3).logistic(size=60))
    spec = TestSpec(Logistic(), m=9, side="both", mc_trials=200, seed=4)
    first = run_test(sample, spec)
    assert calls == [tuple(range(1, 10))]
    assert _bound_keys() == [("bounds", Logistic().identity(), 9, tuple(range(1, 10)))]
    calls.clear()
    assert run_test(sample, spec) == first
    assert calls == []


def test_same_label_customs_get_their_own_bound_vectors():
    refs = _unlabeled_customs()
    sample = ingest(np.random.default_rng(8).exponential(size=40))
    for ref in refs:
        run_test(sample, TestSpec(ref, m=6, mc_trials=200, seed=1))
    held = [_cache._entries[("bounds", ref.identity(), 6, tuple(range(1, 7)))] for ref in refs]
    for ref, pis in zip(refs, held):
        assert pis.tolist() == [pi_bound(ref, j, 6).value for j in range(1, 7)]
    assert held[0].tolist() != held[1].tolist()


def test_rank_without_a_bound_raises_every_time_and_stores_nothing():
    rows = np.sort(np.random.default_rng(2).standard_cauchy((50, 12)), axis=1)
    for _ in range(2):
        # Under the Cauchy reference the one rank of m = 1 has no bound.
        with pytest.raises(InfeasibleSpecError):
            batch_statistics(rows, Cauchy(), 1, (1,), 1.0)
        with pytest.raises(InfeasibleSpecError):
            run_test(ingest(rows[0]), TestSpec(Cauchy(), m=1, mc_trials=200))
        # Finite in theory, but the quadrature cannot cut the tail off.
        with pytest.raises(ConvergenceError):
            run_test(ingest(rows[0] ** 2), TestSpec(Frechet(0.5001), m=5, indices=(4,),
                                                    mc_trials=200))
    assert not _bound_keys()


@pytest.mark.parametrize("clear", [testing.clear_caches, _cache.clear_caches],
                         ids=["testing", "cache"])
def test_each_clear_caches_alias_drops_the_bound_vectors(clear):
    _, pis = testing._arrays_for(Logistic(), 30, 5, (1, 2, 3, 4, 5))
    assert not pis.flags.writeable
    with pytest.raises(ValueError):
        pis[0] = 0.5
    assert _bound_keys()
    clear()
    assert not _bound_keys()


@pytest.mark.parametrize("clear", [testing.clear_caches, _cache.clear_caches],
                         ids=["testing", "cache"])
def test_weight_matrix_is_one_entry_of_the_stacked_rank_vectors(clear):
    ranks = (2, 3, 5)
    weight_mat, _ = testing._arrays_for(Logistic(), 30, 5, ranks)
    want = np.vstack([os_weights(30, j, 5) for j in ranks])
    assert weight_mat.tobytes() == want.tobytes() and weight_mat.shape == want.shape
    assert _cache._entries[("weights", 30, 5, ranks)] is weight_mat
    assert not weight_mat.flags.writeable
    with pytest.raises(ValueError):
        weight_mat[0, 0] = 0.5
    assert testing._arrays_for(Logistic(), 30, 5, ranks)[0] is weight_mat
    clear()
    assert not _kinds() & {"weights"}


def test_repeat_request_computes_no_bound_and_no_weight_vector(monkeypatch):
    calls = []

    def counting(name, real):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return wrapped

    # Weight builds are counted by their reg_inc_beta calls, since every
    # weight lookup goes through _weights_readonly; null tables by
    # batch_statistics, which null_statistics calls through its module name,
    # as run_test calls null_statistics on a miss.
    monkeypatch.setattr(testing, "_pi_values", counting("bounds", testing._pi_values))
    monkeypatch.setattr(order_stats, "reg_inc_beta",
                        counting("weights", order_stats.reg_inc_beta))
    monkeypatch.setattr(testing, "batch_statistics",
                        counting("batch_statistics", testing.batch_statistics))
    monkeypatch.setattr(testing, "null_statistics",
                        counting("null_statistics", testing.null_statistics))
    monkeypatch.setattr(TestSpec, "resolve", counting("resolve", TestSpec.resolve))
    sample = ingest(np.random.default_rng(6).logistic(size=50))
    spec = TestSpec(Logistic(), m=7, side="both", mc_trials=200, seed=2)
    first = run_test(sample, spec)
    assert sorted(set(calls)) == ["batch_statistics", "bounds", "null_statistics", "resolve",
                                  "weights"]
    for name in ("batch_statistics", "null_statistics", "resolve", "bounds"):
        assert calls.count(name) == 1
    assert calls.count("weights") == 7 * 51
    calls.clear()
    # A repeat reads the one prepared entry, and its results, per-rank
    # diagnostics and config included, are the cold request's.
    again = run_test(sample, spec)
    assert calls == []
    assert again == first and repr(again) == repr(first)


@pytest.mark.parametrize("clear", [testing.clear_caches, _cache.clear_caches],
                         ids=["testing", "cache"])
def test_each_clear_caches_alias_drops_the_weights(clear, monkeypatch):
    sample = ingest(np.random.default_rng(6).logistic(size=50))
    spec = TestSpec(Logistic(), m=7, mc_trials=200, seed=2)
    first = run_test(sample, spec)
    clear()
    calls = []
    real = order_stats.reg_inc_beta
    monkeypatch.setattr(order_stats, "reg_inc_beta", lambda *args: calls.append(args) or real(*args))
    assert run_test(sample, spec) == first
    assert len(calls) == 7 * 51


def test_no_functools_cache_outside_the_cache_layer():
    for info in pkgutil.iter_modules(cxorder.__path__):
        importlib.import_module(f"cxorder.{info.name}")
    cached = [f"{name}.{attr}" for name, mod in sorted(sys.modules.items())
              if name == "cxorder" or name.startswith("cxorder.")
              for attr, value in vars(mod).items()
              if callable(getattr(value, "cache_clear", None))]
    assert cached == []


def test_a_computed_null_table_is_scored_beneath_null_statistics(monkeypatch):
    """A cold null_statistics call scores its table with exactly one
    testing.batch_statistics call, looked up as a module global, and a warm
    call makes none. The benchmark's traced cold guard (perfbench/layers.py)
    counts a null table computed without a batch_statistics span beneath
    null_statistics as a cache hit, so a cold run would read as warm."""
    calls, depth = [], []
    real_batch, real_null = testing.batch_statistics, testing.null_statistics

    def batch(*args, **kwargs):
        calls.append((bool(depth), args[0]))
        return real_batch(*args, **kwargs)

    def null(*args, **kwargs):
        depth.append(1)
        try:
            return real_null(*args, **kwargs)
        finally:
            depth.pop()

    monkeypatch.setattr(testing, "batch_statistics", batch)
    monkeypatch.setattr(testing, "null_statistics", null)
    args = (Exponential(), 40, 5, range(1, 6), 1.0, 300, 7)
    first = testing.null_statistics(*args)
    assert [(inside, rows.key()) for inside, rows in calls] == [
        (True, DrawTable(Exponential(), 40, 300, 7, "null").key())]
    assert testing.null_statistics(*args) is first
    assert len(calls) == 1
    # A new p reads the stored gap matrix, but its statistics are computed.
    testing.null_statistics(*args[:4], 2.0, *args[5:])
    assert len(calls) == 2 and calls[1][0]
    _cache.clear_caches()
    calls.clear()
    # A power grid decides its cells from its own passes: it calls no
    # batch_statistics, draws one null table per n, and stores the null
    # entries a cold null_statistics would compute, byte for byte.
    drawn = []
    real_chunks = DrawTable.chunks

    def chunks(table):
        drawn.append(table.key())
        return real_chunks(table)

    monkeypatch.setattr(DrawTable, "chunks", chunks)
    grid = PowerGrid(alternative="weibull", params=(1.5, 2.0), n_grid=(20, 30),
                     m_ell=((1, None), (3, None)), spec=TestSpec(Exponential(), mc_trials=120),
                     replications=50)
    estimate_power(grid)
    assert calls == []
    assert [key for key in drawn if key[0] == "null"] == [
        DrawTable(Exponential(), n, 120, 0, "null").key() for n in (20, 30)]
    stored = {key: value for key, value in _cache._entries.items() if key[0] == "null"}
    assert len(stored) == 4
    for key, pair in stored.items():
        _cache.clear_caches()
        fresh = real_null(Exponential(), *key[2:])
        assert [a.tobytes() for a in fresh] == [a.tobytes() for a in pair]


def test_a_cold_null_table_holds_one_chunk_of_draws_at_a_time(monkeypatch):
    # The whole 2000 x 1000 draw table would be 15.3 MiB; a 64-row chunk is
    # 0.5 MiB and the gap matrix 0.15 MiB.
    monkeypatch.delenv(_cache.CACHE_DIR_ENV, raising=False)
    ref, ranks = Exponential(), tuple(range(1, 11))
    testing._arrays_for(ref, 1000, 10, ranks)
    tracemalloc.start()
    try:
        null_statistics(ref, 1000, 10, range(1, 11), 1.0, 2000, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


def test_a_cold_proschan_pyke_table_holds_its_ranks_and_one_chunk_of_draws():
    # Each 1000 x 500 table would be 3.8 MiB drawn whole, and more ranked
    # whole; its 499 x 1000 uint16 rank matrix is 0.95 MiB and a 128-row
    # chunk 0.5 MiB.
    tracemalloc.start()
    try:
        pp_power("student-t", 1.1, 500, side="dhr", replications=1000, mc_trials=1000,
                 base_seed=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 << 20


FAULTS = """
import resource, sys
from cxorder import _seeds
from cxorder._cache import clear_caches
from cxorder.simulation import pp_power, reproduce

def request(seed):
    clear_caches()
    reproduce("table1", out_dir=sys.argv[1], replications=300, mc_trials=300, seed=seed)
    for n in (25, 50, 100, 200):
        pp_power("weibull", 1.5, n, replications=300, mc_trials=300, base_seed=seed)

def faults(seed):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    request(seed)
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

request(0)
kept = faults(1)
_seeds._SCRATCH_VALUES = 0  # every chunk temporary made afresh, none kept
request(2)
print(kept, faults(3))
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the page faults measured are glibc's trimming and unmapping")
def test_a_cold_power_study_faults_no_fresh_pages_in_per_chunk(tmp_path):
    # A power-study request, every cache cleared, in a fresh process: table1
    # and four Proschan-Pyke rows at R = T = 300. When every chunk made its
    # own chunk-sized temporaries, glibc trimmed or unmapped them after each
    # chunk and the next faulted them in again. Against the same request in
    # the same process with no scratch kept, the chunks drawn and scored in
    # per-thread scratch take a fraction of the minor faults: 204 against
    # 2,309 at glibc 2.36, where the code before the scratch took 2,624
    # against 2,627.
    env = {key: value for key, value in os.environ.items() if key != _cache.CACHE_DIR_ENV}
    env["PYTHONPATH"] = str(Path(cxorder.__file__).resolve().parents[1])
    kept, fresh = map(int, subprocess.run(
        [sys.executable, "-c", FAULTS, str(tmp_path)], env=env, capture_output=True, text=True,
        check=True, timeout=120).stdout.split())
    assert 3 * kept < fresh


# ------------------------------------------------- the disk tier across processes

NULL_ARGS = (Exponential(), 200, 5, (1, 2, 3, 4, 5), 1.0, 300, 7)

WRITER = """
import sys, time
from cxorder import Exponential, _blas
from cxorder.testing import null_statistics
time.sleep(max(0.0, float(sys.argv[1]) - time.time()))
null_statistics(Exponential(), 200, 5, (1, 2, 3, 4, 5), 1.0, 300, 7)
print(_blas.core())
"""


def _writer(tmp_path, start: float = 0.0, **env) -> subprocess.Popen:
    """A process that computes NULL_ARGS' null table into the disk tier at
    tmp_path once the clock reaches start, then prints its BLAS kernel."""
    env = dict(os.environ, PYTHONPATH=str(Path(cxorder.__file__).resolve().parents[1]),
               **{_cache.CACHE_DIR_ENV: str(tmp_path)}, **env)
    return subprocess.Popen([sys.executable, "-c", WRITER, repr(start)], env=env,
                            stdout=subprocess.PIPE, text=True)


def _computed(monkeypatch) -> list:
    """Records each null table null_statistics computes rather than reads."""
    calls = []
    batch = testing.batch_statistics
    monkeypatch.setattr(testing, "batch_statistics",
                        lambda *args: calls.append(args) or batch(*args))
    return calls


def test_the_disk_key_names_the_blas_kernel_and_numpy(tmp_path, monkeypatch):
    monkeypatch.setenv(_cache.CACHE_DIR_ENV, str(tmp_path))
    null_statistics(*NULL_ARGS)
    (path,) = tmp_path.glob("null-*.npz")
    key = testing._null_key(*NULL_ARGS)
    with np.load(path) as archive:
        tplus, tminus, stored = archive["tplus"], archive["tminus"], str(archive["key"])
    assert _cache._disk_entry(key) == (path, stored)
    assert repr(cxorder._blas.core()) in stored and repr(np.__version__) in stored
    assert repr(_cache.CACHE_VERSION) in stored and repr(key) in stored
    # Another kernel is another file, and an entry stored under another key
    # at this entry's path is not read.
    with monkeypatch.context() as patched:
        patched.setattr(cxorder._blas, "_core", "Other")
        assert _cache._disk_entry(key)[0] != path
    np.savez(path, tplus=tplus, tminus=tminus, key="another key")
    _cache.clear_caches()
    calls = _computed(monkeypatch)
    null_statistics(*NULL_ARGS)
    assert len(calls) == 1


@pytest.mark.skipif(cxorder._blas.core() is None, reason="no OpenBLAS kernel name to force")
def test_an_entry_written_under_another_blas_kernel_is_recomputed(tmp_path, monkeypatch):
    other = "Sandybridge" if cxorder._blas.core() == "Haswell" else "Haswell"
    writer = _writer(tmp_path, OPENBLAS_CORETYPE=other)
    assert writer.communicate(timeout=120)[0].split() == [other] and writer.returncode == 0
    (theirs,) = tmp_path.glob("null-*.npz")
    with np.load(theirs) as archive:
        assert repr(other) in str(archive["key"])
    monkeypatch.setenv(_cache.CACHE_DIR_ENV, str(tmp_path))
    calls = _computed(monkeypatch)
    null_statistics(*NULL_ARGS)
    assert len(calls) == 1
    assert len(list(tmp_path.glob("null-*.npz"))) == 2


def test_two_writer_processes_on_one_key_leave_one_loadable_entry(tmp_path, monkeypatch):
    start = time.time() + 2.0  # both past their imports, so their writes race
    writers = [_writer(tmp_path, start) for _ in range(2)]
    for writer in writers:
        writer.communicate(timeout=120)
        assert writer.returncode == 0
    assert [p.suffix for p in tmp_path.iterdir()] == [".npz"]
    want = [a.tobytes() for a in null_statistics(*NULL_ARGS)]  # no disk tier here
    _cache.clear_caches()
    monkeypatch.setenv(_cache.CACHE_DIR_ENV, str(tmp_path))
    calls = _computed(monkeypatch)
    assert [a.tobytes() for a in null_statistics(*NULL_ARGS)] == want
    assert calls == []


def test_a_stale_temporary_file_changes_no_result(tmp_path, monkeypatch):
    # What a writer killed between mkstemp and os.replace leaves behind: a
    # .tmp file beside the entry, here holding another table.
    want = [a.tobytes() for a in null_statistics(*NULL_ARGS)]
    monkeypatch.setenv(_cache.CACHE_DIR_ENV, str(tmp_path))
    key = testing._null_key(*NULL_ARGS)
    path, name = _cache._disk_entry(key)
    stale = tmp_path / f"{path.stem}killed.tmp"
    with open(stale, "wb") as fh:
        np.savez(fh, tplus=np.zeros(300), tminus=np.zeros(300), key=np.array(name))
    for _ in range(2):  # computed and written, then read from disk
        _cache.clear_caches()
        assert [a.tobytes() for a in null_statistics(*NULL_ARGS)] == want
    assert [p.name for p in tmp_path.iterdir()] == [path.name]  # the writer removed it


def test_a_writer_whose_temporary_file_vanishes_leaves_one_loadable_entry(tmp_path, monkeypatch):
    # Another writer of the key removes this writer's .tmp file as stale, and
    # stores the same bytes, before this writer renames its file.
    pair = null_statistics(*NULL_ARGS)  # no disk tier here
    monkeypatch.setenv(_cache.CACHE_DIR_ENV, str(tmp_path))
    path, name = _cache._disk_entry(testing._null_key(*NULL_ARGS))
    replace = os.replace

    def other_writer_first(src, dst):
        monkeypatch.setattr(os, "replace", replace)
        Path(src).unlink()
        _cache._store_pair(path, name, pair)
        replace(src, dst)  # raises FileNotFoundError

    monkeypatch.setattr(os, "replace", other_writer_first)
    _cache._store_pair(path, name, pair)
    assert os.replace is replace  # the other writer ran
    assert [p.name for p in tmp_path.iterdir()] == [path.name]
    _cache.clear_caches()
    calls = _computed(monkeypatch)
    assert [a.tobytes() for a in null_statistics(*NULL_ARGS)] == [a.tobytes() for a in pair]
    assert calls == []


def test_an_unusable_cache_directory_keeps_the_result_and_warns_once(tmp_path, monkeypatch):
    # A regular file where the directory should be: the disk write fails
    # after the table is computed, and the table is still handed out.
    want = [a.tobytes() for a in null_statistics(*NULL_ARGS)]  # no disk tier here
    _cache.clear_caches()
    blocked = tmp_path / "a-file"
    blocked.write_text("")
    monkeypatch.setenv(_cache.CACHE_DIR_ENV, str(blocked))
    with pytest.warns(RuntimeWarning) as caught:
        got = null_statistics(*NULL_ARGS)
    assert len(caught) == 1 and str(blocked) in str(caught[0].message)
    assert [a.tobytes() for a in got] == want
    calls = _computed(monkeypatch)
    assert null_statistics(*NULL_ARGS) is got  # held in memory
    assert calls == []


def _warm_spec() -> TestSpec:
    return TestSpec(Logistic(), m=7, side="both", mc_trials=200, seed=2)


def test_mutating_a_results_config_changes_no_later_result():
    sample = ingest(np.random.default_rng(6).logistic(size=50))
    first = run_test(sample, _warm_spec())
    want = repr(first)
    for res in first:
        res.config["indices"].append(99)
        res.config["g_params"]["x"] = 1.0
        res.config["seed"] = -1
    again = run_test(sample, _warm_spec())
    assert repr(again) == want
    assert again[0].config is not again[1].config
    assert again[0].config["indices"] is not again[1].config["indices"]


def test_a_cold_statistic_draws_no_null_table(monkeypatch):
    passes = []
    real = DrawTable.chunks
    monkeypatch.setattr(DrawTable, "chunks", lambda table: passes.append(table) or real(table))
    sample = ingest(np.random.default_rng(6).logistic(size=50))
    statistic(sample, TestSpec(Logistic(), m=7, mc_trials=200, seed=2))
    assert passes == []
    assert _kinds() == {"bounds", "weights"}


def test_a_zero_budget_changes_no_test_output(monkeypatch):
    sample = ingest(np.random.default_rng(6).logistic(size=50))
    upper = TestSpec(Logistic(), m=7, mc_trials=200, seed=2)

    def outputs() -> str:
        return repr((run_test(sample, _warm_spec()), run_test(sample, _warm_spec()),
                     critical_value(upper, 50), p_value(upper, 0.3, 50),
                     statistic(sample, upper)))

    want = outputs()
    _cache.clear_caches()
    monkeypatch.setattr(_cache, "BUDGET_BYTES", 0)
    assert outputs() == want
    assert not _cache._entries


def test_a_grid_step_builds_each_weight_matrix_once_at_any_budget(monkeypatch):
    """The null pass and the alternative pass of one step share each rank
    set's weights, so a budget that holds nothing builds no more of them."""
    grid = PowerGrid(alternative="weibull", params=(1.5,), n_grid=(20,),
                     m_ell=((3, None), (5, None)),
                     spec=TestSpec(Exponential(), mc_trials=120, seed=3), replications=50)
    calls = []
    real = order_stats.reg_inc_beta
    monkeypatch.setattr(order_stats, "reg_inc_beta", lambda *args: calls.append(args) or real(*args))
    counts, tables = [], []
    for budget in (_cache.BUDGET_BYTES, 0):
        _cache.clear_caches()
        calls.clear()
        monkeypatch.setattr(_cache, "BUDGET_BYTES", budget)
        tables.append(estimate_power(grid).to_csv())
        counts.append(len(calls))
    assert counts == [(3 + 5) * 21] * 2
    assert tables[0] == tables[1]


def test_a_critical_value_read_from_disk_builds_no_weights(tmp_path, monkeypatch):
    """critical_value and p_value ask for the null pair alone and store no
    prepared entry: a null table on disk then needs no weights."""
    monkeypatch.setenv(_cache.CACHE_DIR_ENV, str(tmp_path))
    spec = TestSpec(Exponential(), m=6, mc_trials=200, seed=4)
    want = critical_value(spec, 40), p_value(spec, 0.2, 40)
    assert "test" not in _kinds()
    _cache.clear_caches()
    calls = []
    real = order_stats.reg_inc_beta
    monkeypatch.setattr(order_stats, "reg_inc_beta", lambda *args: calls.append(args) or real(*args))
    assert (critical_value(spec, 40), p_value(spec, 0.2, 40)) == want
    assert calls == [] and _kinds() == {"null"}
