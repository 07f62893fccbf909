"""The scoring kernel `order_stats._gaps`: its batched ECDF pass against one
np.interp per row, bit for bit; which path a table takes; the prefix and
block structure of drawn tables' gap matrices; engine tables scored chunk by
chunk against the whole table; and an exact oracle for the statistic at
n = 1000, m = 150. Against zero bounds the kernel's gaps are the negated
ECDF values, bit for bit, so those checks see every bit of F_hat."""

import bisect
import math
import os
import subprocess
import sys
import threading
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from cxorder import (
    Cauchy,
    Exponential,
    Frechet,
    Logistic,
    LogLogistic,
    NegExponential,
    TestSpec,
    Uniform,
    ingest,
    statistic,
)
from cxorder import _cache, _seeds, baselines, order_stats, testing
from cxorder._seeds import _BLOCK_ROWS, DrawTable, _chunk_rows, derive_rng
from cxorder.distributions import Alternative
from cxorder.order_stats import (
    _gaps, _interp_rows, _score_row, _search_keys, _weights_readonly,
)
from cxorder.testing import Side, _table_gaps, null_statistics
from _tables import chunked, gap_matrix, stacked

FAMILIES = [
    Uniform(),
    Exponential(),
    NegExponential(),
    Logistic(),
    LogLogistic(1.0),
    LogLogistic(0.5),
    Frechet(0.5),
    Cauchy(),
    Alternative("weibull", 1.5),
    Alternative("neg-weibull", 1.5),
    Alternative("log-logistic", 0.5),
    Alternative("shifted-exponential", 0.3),
    Alternative("student-t", 1.1),
]
NS = [2, 3, 25, 200, 1000]
# Rank counts on both sides of the batched pass's cut-off.
MS = [1, 5, order_stats._BATCH_RANKS, order_stats._BATCH_RANKS + 8]


@pytest.fixture(autouse=True, scope="module")
def _drop_tables():
    yield
    _cache.clear_caches()


def _weights(n, m):
    return _weights_readonly(n, m, tuple(range(1, m + 1)))


def _rows(n):
    """Rows per drawn table: whole chunks and a short last one, kept small."""
    return 130 if n == 1000 else 1000


def _scaled(rows):
    """Rows scaled as `_gaps` scales them, each into (-2, 2)."""
    return np.ldexp(rows, 1 - np.frexp(np.maximum(-rows[:, :1], rows[:, -1:]))[1])


def _neg_ecdf(rows, *weight_mats):
    """`_gaps` of caller rows, in batch_statistics' chunks, for each weight
    matrix against zero bounds: 0 - F_hat(mu_hat), every bit of F_hat."""
    return _gaps(chunked(rows), len(rows), rows.shape[1],
                 [(w, np.zeros(len(w))) for w in weight_mats])


def _per_row_score(monkeypatch, rows, weight_mat):
    """`_neg_ecdf` with the batched pass switched off: one np.interp per row."""
    with monkeypatch.context() as patch:
        patch.setattr(order_stats, "_BATCH_RANKS", -1)
        return _neg_ecdf(rows, weight_mat)[0]


def _assert_score_matches_per_row(monkeypatch, rows, weight_mat):
    (got,) = _neg_ecdf(rows, weight_mat)
    assert got.tobytes() == _per_row_score(monkeypatch, rows, weight_mat).tobytes()


def _assert_interp_rows_exact(mus, x):
    """`_interp_rows` writes np.interp's bytes for every row it does not
    return; returns the rows it handed back."""
    grid = np.arange(1, x.shape[1] + 1) / x.shape[1]
    out = np.full_like(mus, np.nan)
    redo = _interp_rows(mus, x, grid, out, _search_keys(x))
    want = np.array([np.interp(mu, row, grid) for mu, row in zip(mus, x)])
    placed = np.setdiff1d(np.arange(len(x)), redo)
    assert out[placed].tobytes() == want[placed].tobytes()
    return redo


def _counting_interp(monkeypatch):
    calls = []
    interp = np.interp

    def counted(*args, **kwargs):
        calls.append(1)
        return interp(*args, **kwargs)

    monkeypatch.setattr(np, "interp", counted)
    return calls


# ------------------------------------------------- bit identity, both paths

@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.cache_key())
@pytest.mark.parametrize("n", NS)
def test_batched_pass_equals_np_interp_on_drawn_tables(family, n):
    x = _scaled(stacked(family, n, _rows(n), 19, "null"))
    for m in MS:
        _assert_interp_rows_exact(x @ _weights(n, m).T, x)


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.cache_key())
@pytest.mark.parametrize("n", NS)
def test_score_equals_its_per_row_path_on_drawn_tables(monkeypatch, family, n):
    rows = stacked(family, n, _rows(n), 23, "null")
    for m in MS:
        _assert_score_matches_per_row(monkeypatch, rows, _weights(n, m))


@pytest.mark.parametrize("n", [3, 25, 200])
@pytest.mark.parametrize("m", [1, 5, 20])
def test_score_equals_its_per_row_path_on_extreme_rows(monkeypatch, n, m):
    rows = stacked(Logistic(), n, 1000, 29, "null")
    symmetric = np.tile(np.arange(n, dtype=float) - n // 2, (1000, 1))
    for table in (np.round(rows, 1), rows * 1e-310, rows * 1e300, symmetric,
                  np.tile(np.arange(n, dtype=float), (1000, 1))):
        _assert_score_matches_per_row(monkeypatch, table, _weights(n, m))


@pytest.mark.parametrize("n", NS)
def test_one_row_path_scores_a_row_to_the_bytes_of_a_one_row_table(n):
    # The observed sample goes through _score_row; a replicate of the same
    # values through _gaps. Untied, tied, subnormal, huge and symmetric rows.
    # The ECDF values against zero bounds, and the gaps against the bounds.
    rows = stacked(Logistic(), n, 64, 37, "null")
    symmetric = np.arange(n, dtype=float) - n // 2
    for table in (rows, np.round(rows, 1), rows * 1e-310, rows * 1e300, symmetric[np.newaxis]):
        for m in MS:
            weight_mat = _weights(n, m)
            pis = testing._arrays_for(Exponential(), n, m, tuple(range(1, m + 1)))[1]
            for row in table:
                fts = _score_row(row, weight_mat)[1]
                (neg,) = _neg_ecdf(row[np.newaxis], weight_mat)
                assert neg[0].tobytes() == (0.0 - fts).tobytes()
                gaps = gap_matrix(row[np.newaxis], Exponential(), m, range(1, m + 1))
                assert gaps[0].tobytes() == (pis - fts).tobytes()


def test_exact_knot_hits_take_the_knot_value():
    # The L-estimate at m = 1 is the mean, which is the middle knot of an odd
    # arange; np.interp returns that knot's height, not the slope formula's.
    n = 25
    x = _scaled(np.tile(np.arange(n, dtype=float), (200, 1)))
    mus = x @ _weights(n, 1).T
    assert np.all(mus[:, 0] == x[:, n // 2])
    _assert_interp_rows_exact(mus, x)
    (neg,) = _neg_ecdf(np.tile(np.arange(n, dtype=float), (200, 1)), _weights(n, 1))
    assert np.all(neg == -(n // 2 + 1) / n)


def test_infinite_slopes_and_both_ends_match_np_interp():
    # Knots a subnormal step apart give an infinite slope: np.interp returns
    # the knot value at an exact hit and inf just past it. Row 0 is unshifted,
    # so its search is exact; the shifted rows collapse 0 and 1e-323 and fall back.
    x = np.tile([0.0, 1e-323, 1.5], (200, 1))
    mus = np.tile([-0.1, 0.0, 5e-324, 1e-323, 1.0, 1.5, 1.7], (200, 1))
    redo = _assert_interp_rows_exact(mus, x)
    assert 0 not in redo
    grid = np.arange(1, 4) / 3
    assert np.isinf(np.interp(5e-324, x[0], grid))


def test_collapsed_shifted_keys_fall_back_to_np_interp(monkeypatch):
    # Values a few ulps apart collapse once row r is shifted by 8r, so the
    # shifted search overcounts; the exact check must send those rows to
    # np.interp, and the result must still be np.interp's bytes.
    rng = np.random.default_rng(5)
    n, m = 25, 5
    steps = rng.integers(1, 4, (1000, n)).cumsum(axis=1)
    rows = 1.0 + steps * np.finfo(float).eps
    mus = rows @ _weights(n, m).T
    redo = _assert_interp_rows_exact(mus, rows)
    assert 0 < len(redo) < len(rows)
    calls = _counting_interp(monkeypatch)
    _assert_score_matches_per_row(monkeypatch, rows, _weights(n, m))
    assert 0 < len(calls) - len(rows) < len(rows)


def test_scoring_a_tied_table_does_not_import_numpy_ma():
    # np.unique imports numpy.ma on first use, about 1.5 MiB of peak RSS.
    code = ("import sys, numpy as np; from cxorder import Exponential; "
            "from cxorder.testing import batch_statistics; "
            "rows = np.round(np.sort(np.random.default_rng(0).exponential(size=(10, 50))), 1); "
            "assert (rows[:, 1:] == rows[:, :-1]).any(axis=1).all(); "
            "batch_statistics(rows, Exponential(), 5, range(1, 6), 1.0); "
            "assert 'numpy.ma' not in sys.modules, 'numpy.ma imported'")
    src = Path(__file__).resolve().parents[1] / "src"
    subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)),
                   check=True, timeout=60)


def test_which_path_a_table_takes(monkeypatch):
    calls = _counting_interp(monkeypatch)

    def interp_calls(n, count, m):
        calls.clear()
        _neg_ecdf(stacked(Exponential(), n, count, 31, "null"), _weights(n, m))
        return len(calls)

    # An observed sample, 150 ranks, and n = 1000 (64-row chunks) go row by row.
    assert interp_calls(200, 1, 30) == 1
    assert interp_calls(200, 1000, 150) == 1000
    assert interp_calls(1000, 130, 5) == 130
    # Many rows at few ranks take the batched pass; at n = 200 a chunk is
    # 320 rows, and the last 1000 - 3 * 320 rows, under one block, go row by row.
    assert interp_calls(25, 1000, 5) == 0
    assert interp_calls(200, 1000, 5) == 40


# ------------------------------------------------- prefix and block structure

@pytest.mark.parametrize("n", [25, 200])
@pytest.mark.parametrize("m", [5, 20, 40])
def test_whole_block_prefix_of_a_table_is_the_shorter_table(n, m):
    # Whole blocks only: OpenBLAS rounds a short block's product differently
    # from the same rows inside a 64-row block, so a k-row table with k not a
    # multiple of 64 can differ from the first k rows in the last bits.
    full = gap_matrix(stacked(Exponential(), n, 1000, 37, "null"),
                      Exponential(), m, range(1, m + 1))
    for k in (_BLOCK_ROWS, 5 * _BLOCK_ROWS, 6 * _BLOCK_ROWS, 1000):
        part = gap_matrix(stacked(Exponential(), n, k, 37, "null"),
                          Exponential(), m, range(1, m + 1))
        assert full[:k].tobytes() == part.tobytes()


@pytest.mark.parametrize("n", [25, 200])
@pytest.mark.parametrize("m", [5, 20, 40])
def test_a_tables_gaps_are_its_blocks_gaps(n, m):
    # What streaming a table block by block relies on: each block scored on
    # its own, the short last one included, gives the table's bytes.
    rows = stacked(Exponential(), n, 1000, 41, "null")
    full = gap_matrix(rows, Exponential(), m, range(1, m + 1))
    blocks = [gap_matrix(rows[lo : lo + _BLOCK_ROWS], Exponential(), m, range(1, m + 1))
              for lo in range(0, len(rows), _BLOCK_ROWS)]
    assert full.tobytes() == np.vstack(blocks).tobytes()


@pytest.mark.parametrize("n", [2, 25, 200, 1000])
@pytest.mark.parametrize("count", [100, 1000, 5000])
def test_streamed_tables_score_to_the_whole_tables_bytes(n, count):
    # Chunks are 64 rows at n = 1000, 320 at 200 and 2560 at 25 (one chunk
    # at n = 2), so the sizes cover one chunk, many, and a short last block.
    ref = Exponential()
    assert _chunk_rows(n) == {2: 512 * _BLOCK_ROWS, 25: 2560, 200: 320, 1000: 64}[n]
    # Both sides of the batched pass's cut-off, scored in one shared pass.
    sets = [(5, tuple(range(1, 6))), (40, tuple(range(1, 41)))]
    got = _table_gaps(DrawTable(ref, n, count, 43, "null"), ref, sets)
    rows = stacked(ref, n, count, 43, "null")
    for (m, ranks), gaps in zip(sets, got):
        assert gaps.tobytes() == gap_matrix(rows, ref, m, ranks).tobytes()
    # A cold null table, streamed alone.
    nulls = null_statistics(ref, n, 5, range(1, 6), 2.0, count, 47)
    gaps = gap_matrix(stacked(ref, n, count, 47, "null"), ref, 5, range(1, 6))
    want = [np.sort(np.power(np.add.reduce(np.power(np.maximum(side, 0.0), 2.0), axis=1), 0.5))
            for side in (gaps, -gaps)]
    assert [a.tobytes() for a in nulls] == [a.tobytes() for a in want]


def test_an_engine_table_is_drawn_one_chunk_at_a_time():
    chunks = [(first, rows.copy())
              for first, rows in DrawTable(Exponential(), 200, 1000, 3, "null").chunks()]
    assert [(first, len(rows)) for first, rows in chunks] == [
        (0, 320), (320, 320), (640, 320), (960, 40)]
    # Each chunk is its rows of the table drawn block by block.
    for first, rows in chunks:
        for lo in range(0, len(rows), _BLOCK_ROWS):
            block = rows[lo : lo + _BLOCK_ROWS]
            rng = derive_rng(3, "null", Exponential().cache_key(), 200,
                             (first + lo) // _BLOCK_ROWS)
            want = np.sort(Exponential().sample(_BLOCK_ROWS * 200, rng).reshape(
                _BLOCK_ROWS, 200)[: len(block)], axis=1)
            assert block.tobytes() == want.tobytes()


def test_an_engine_tables_chunks_are_drawn_into_one_reused_buffer():
    # The contract a caller that keeps chunks relies on: each chunk holds
    # only until the next is drawn on the thread, so keeping one means a copy.
    chunks = DrawTable(Exponential(), 200, 1000, 3, "null").chunks()
    _, first = next(chunks)
    kept = first.copy()
    _, second = next(chunks)
    assert np.shares_memory(first, second)
    assert first.tobytes() != kept.tobytes()


def test_a_thread_keeps_at_most_one_chunk_of_scratch_per_use_after_a_large_table():
    # A chunk at n = 2000 is 64 rows of 2000 values, four times the buffer a
    # thread keeps per use: it is made afresh for the chunk and freed after.
    ref = Exponential()
    kept = {}

    def worker():
        table = DrawTable(ref, 2000, 130, 67, "null")
        kept["gaps"] = _table_gaps(table, ref, [(5, tuple(range(1, 6)))])[0]
        baselines._pp_table(DrawTable(ref, 2000, 130, 67, "pp-null"))
        kept["slots"] = {slot: buf.size for slot, buf in vars(_seeds._local).items()}

    _cache.clear_caches()
    thread = threading.Thread(target=worker)
    thread.start()
    thread.join(timeout=120)
    assert set(kept["slots"]) <= {"rows", "scaled", "keys", "spacings"}
    assert all(size <= _seeds._SCRATCH_VALUES for size in kept["slots"].values())
    want = gap_matrix(stacked(ref, 2000, 130, 67, "null"), ref, 5, range(1, 6))
    assert kept["gaps"].tobytes() == want.tobytes()


# ------------------------------------------------- one pass for every rank set

class _Rounded:
    """A draw family whose values are rounded to 0.1, so nearly every row of
    its tables has a tie."""

    def cache_key(self):
        return "rounded-exponential"

    identity = cache_key

    def sample(self, size, rng):
        return np.round(rng.standard_exponential(size), 1)


# Both sides of the batched pass's cut-off, and two sets of one m.
SETS = [(5, (1, 2, 3, 4, 5)), (20, (2, 7, 19)), (20, tuple(range(1, 21))),
        (40, tuple(range(1, 41)))]


@pytest.mark.parametrize("family", [Exponential(), _Rounded()], ids=["untied", "tied"])
@pytest.mark.parametrize("n, count", [(25, 1000), (200, 1000), (1000, 130)])
def test_rank_sets_scored_in_one_pass_get_the_bytes_of_one_set_passes(family, n, count):
    # n = 25 is one 1000-row chunk, n = 200 four chunks with a short last
    # block, n = 1000 three 64-row chunks (one np.interp per row).
    ref = Exponential()
    table = DrawTable(family, n, count, 53, "null")
    rows = stacked(family, n, count, 53, "null")
    if isinstance(family, _Rounded):
        assert (rows[:, 1:] == rows[:, :-1]).any(axis=1).mean() > 0.9
    _cache.clear_caches()
    shared = _table_gaps(table, ref, SETS)
    weight_mats = [_weights_readonly(n, m, ranks) for m, ranks in SETS]
    together = _neg_ecdf(rows, *weight_mats)
    for (m, ranks), gaps, weight_mat, neg in zip(SETS, shared, weight_mats, together):
        _cache.clear_caches()
        (alone,) = _table_gaps(table, ref, [(m, ranks)])
        assert gaps.tobytes() == alone.tobytes()
        assert neg.tobytes() == _neg_ecdf(rows, weight_mat)[0].tobytes()


def test_threads_scoring_different_tables_at_once_get_the_serial_bytes():
    # Each thread scores in its own scratch: gap matrices of a multi-chunk
    # null or alternative table, then Proschan-Pyke counts of another table.
    # More threads than cores, switching every microsecond.
    ref = Exponential()
    jobs = [(DrawTable(family, n, 2000, seed, label),
             DrawTable(family, k, 3000, seed, "pp-" + label))
            for family, label in ((ref, "null"), (Alternative("weibull", 1.5), "alt"))
            for n, k, seed in ((200, 100, 59), (25, 50, 61))]

    def run(job):
        table, pp_table = job
        return [*_table_gaps(table, ref, SETS), *baselines._pp_table(pp_table)]

    serial = [run(job) for job in jobs]
    _cache.clear_caches()
    barrier = threading.Barrier(len(jobs), timeout=120)
    got = [None] * len(jobs)

    def worker(i):
        barrier.wait()
        got[i] = run(jobs[i])

    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(jobs))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    for want, have in zip(serial, got):
        assert [a.tobytes() for a in have] == [a.tobytes() for a in want]


# ------------------------------------------------- exact oracle, n = 1000

N, M = 1000, 150
# perfbench's cold_large inputs default_rng([seed, 1, i]).weibull(1.3, 1000)
# at which plain upper-tail weight differences are about 1e-9 off.
ORACLE_INPUTS = [(0, 46), (0, 250), (39, 14)]


def _tail_sums(n, m):
    """S[i][j - 1] = n^m P(Bin(m, i/n) >= j), integers, for i <= n // 2."""
    powers = [[1] * (m + 1) for _ in range(n + 1)]
    for i in range(n + 1):
        for k in range(1, m + 1):
            powers[i][k] = powers[i][k - 1] * i
    coef = [math.comb(m, k) for k in range(m + 1)]
    out = []
    for i in range(n // 2 + 1):
        acc, tails = 0, [0] * m
        for k in range(m, 0, -1):
            acc += coef[k] * powers[i][k] * powers[n - i][m - k]
            tails[k - 1] = acc
        out.append(tails)
    return out


def _weight_numerators(n, m):
    """d[j - 1][i - 1] = n^m w_{j,i}, exact: differences of binomial tails,
    the upper half through P(Bin(m, x) >= j) = 1 - P(Bin(m, 1 - x) >= m - j + 1)."""
    half = _tail_sums(n, m)
    total = n**m

    def tail(i, j):
        return half[i][j - 1] if i <= n // 2 else total - half[n - i][m - j]

    return [[tail(i, j) - tail(i - 1, j) for i in range(1, n + 1)] for j in range(1, m + 1)]


def _exact_statistics(values, numerators):
    """(T+, T-) at p = 1 under the exponential reference, as 40-digit
    Decimals: exact L-estimates and ECDF values, Decimal bounds."""
    fracs = [Fraction(v) for v in values]
    scale = max(f.denominator for f in fracs)
    ints = [f.numerator * (scale // f.denominator) for f in fracs]
    den = N**M * scale
    harmonic = [Fraction(0)]
    for k in range(1, M + 1):
        harmonic.append(harmonic[-1] + Fraction(1, k))
    upper = lower = Decimal(0)
    with localcontext() as ctx:
        ctx.prec = 40
        for j, row in enumerate(numerators, start=1):
            mu = Fraction(sum(map(int.__mul__, row, ints)), den)
            c = bisect.bisect_right(fracs, mu)
            if c == 0:
                ecdf = Fraction(1, N)
            elif c == N:
                ecdf = Fraction(1)
            else:
                ecdf = Fraction(c, N) + (mu - fracs[c - 1]) / (fracs[c] - fracs[c - 1]) / N
            h = harmonic[M] - harmonic[M - j]
            pi = 1 - (-(Decimal(h.numerator) / Decimal(h.denominator))).exp()
            gap = pi - Decimal(ecdf.numerator) / Decimal(ecdf.denominator)
            upper += max(gap, 0)
            lower += max(-gap, 0)
    return upper, lower


def _upper_tail_difference_weights(n, m):
    """Weights as plain differences of float binomial upper-tail sums, the
    formula of perfbench/reference.py."""
    x = np.arange(1, n) / n
    k = np.arange(m + 1)
    log_fact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, m + 1)))))
    pmf = np.zeros((n + 1, m + 1))
    pmf[1:n] = np.exp(log_fact[m] - log_fact[k] - log_fact[m - k]
                      + k * np.log(x[:, None]) + (m - k) * np.log1p(-x[:, None]))
    pmf[0, 0] = pmf[n, m] = 1.0
    cdf = np.cumsum(pmf[:, ::-1], axis=1)[:, ::-1][:, 1:]
    return np.maximum(np.diff(cdf, axis=0), 0.0).T


def _relative(got, exact):
    return float(abs(Decimal(got) - exact) / exact)


def test_statistic_matches_an_exact_oracle_at_n_1000():
    numerators = _weight_numerators(N, M)
    plain = _upper_tail_difference_weights(N, M)
    grid = np.arange(1, N + 1) / N
    h = np.concatenate(([0.0], np.cumsum(1.0 / np.arange(1, M + 1))))
    pis = -np.expm1(-(h[M] - h[M - np.arange(1, M + 1)]))
    worst_plain = 0.0
    for seed, i in ORACLE_INPUTS:
        values = np.sort(np.random.default_rng([seed, 1, i]).weibull(1.3, N))
        upper, lower = _exact_statistics(values.tolist(), numerators)
        s = ingest(values)
        for side, exact in ((Side.UPPER, upper), (Side.LOWER, lower)):
            got = statistic(s, TestSpec(Exponential(), side=side))[0]
            assert _relative(got, exact) < 1e-11, (seed, i, side)
        gaps = pis - np.interp(plain @ values, values, grid)
        worst_plain = max(worst_plain, _relative(float(np.maximum(gaps, 0.0).sum()), upper))
    # The oracle is sharp enough to see the plain differences' error.
    assert worst_plain > 1e-11
