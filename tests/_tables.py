"""The one helper that holds a Monte Carlo table whole: the engine draws a
table only chunk by chunk, so tests that compare with the whole table stack
its chunks. And the gap matrix of rows a caller holds, scored afresh."""

import numpy as np

from cxorder._seeds import DrawTable, _chunk_rows
from cxorder.order_stats import _gaps
from cxorder.testing import _arrays_for


def stacked(family, n: int, count: int, seed: int, label: str) -> np.ndarray:
    """DrawTable(family, n, count, seed, label) as one count x n matrix. Each
    chunk must start at the row where the one before it ends. A chunk holds
    only until the next is drawn, so each is copied."""
    chunks = [(first, rows.copy()) for first, rows in
              DrawTable(family, n, count, seed, label).chunks()]
    ends = np.cumsum([len(rows) for _, rows in chunks]).tolist()
    assert [first for first, _ in chunks] == [0, *ends[:-1]]
    out = np.vstack([rows for _, rows in chunks])
    assert out.shape == (count, n)
    return out


def chunked(rows: np.ndarray):
    """(first, rows) chunks of a caller's rows, `_chunk_rows(n)` rows at a
    time: what batch_statistics feeds `order_stats._gaps`."""
    step = _chunk_rows(rows.shape[1])
    return ((lo, rows[lo : lo + step]) for lo in range(0, len(rows), step))


def gap_matrix(rows: np.ndarray, ref, m: int, ranks) -> np.ndarray:
    """The rows x ranks gap matrix of a caller's presorted rows under (ref, m,
    ranks), scored afresh as batch_statistics scores them."""
    n = rows.shape[1]
    (gaps,) = _gaps(chunked(rows), len(rows), n, [_arrays_for(ref, n, m, tuple(ranks))])
    return gaps
