"""The one helper that holds a Monte Carlo table whole: the engine draws a
table only chunk by chunk, so tests that compare with the whole table stack
its chunks."""

import numpy as np

from cxorder._seeds import DrawTable


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
