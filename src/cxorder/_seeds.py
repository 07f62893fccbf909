"""Deterministic RNG streams, and the draw engine every Monte Carlo table uses.

A stream is keyed by the root seed and a structured path (stream label,
distribution key, sample size, block index). The path is hashed with
SHA-256, so the mapping is stable across processes, platforms, and worker
layouts. The stream is default_rng(SeedSequence(entropy)), entropy being
the digest read as a little-endian integer. A table is drawn in blocks of
_BLOCK_ROWS rows with one stream per block, and each block with one
family.sample(_BLOCK_ROWS * n, rng) call read row after row. A short last
block is drawn whole and cut, so the first k rows of a table are the k-row
table. Every Monte Carlo table is a `DrawTable`, and `DrawTable.chunks()`
is the only code that draws one: a chunk of whole blocks at a time, so no
table is ever held whole. A chunk is drawn into per-thread scratch
(`_scratch`), which also holds the chunk temporaries of the scoring kernel
and of the Proschan-Pyke counts: one 512 KiB buffer per use and thread,
made once, so a streamed table at n <= 1024 faults no fresh pages in per
chunk.
numpy.random and hashlib are loaded on the first draw, not by importing the
package.
"""

from __future__ import annotations

import threading
from typing import Iterator

import numpy as np

from .distributions import Alternative, RefFamily, _integer

__all__ = ["derive_rng"]

# Rows per stream; at n = 1000 each block is 0.5 MiB.
_BLOCK_ROWS = 64
# Values per chunk (512 KiB): a chunk is as many whole blocks as fit, at
# least one. The scoring kernel works in the same chunks.
_CHUNK_VALUES = 1 << 16


def _chunk_rows(n: int) -> int:
    """Rows per chunk of a table whose rows hold n values."""
    return max(1, _CHUNK_VALUES // (n * _BLOCK_ROWS)) * _BLOCK_ROWS


_local = threading.local()
# The most values a thread keeps in one scratch slot: one chunk up to n = 1024.
_SCRATCH_VALUES = _CHUNK_VALUES


def _scratch(slot: str, rows: int, cols: int) -> np.ndarray:
    """An uninitialized rows x cols float array that holds until the next call
    for slot on the same thread. Up to _SCRATCH_VALUES values it is a view of
    this thread's buffer for slot, made once, so a chunk's temporaries reuse
    pages that are already mapped instead of faulting fresh ones in; a larger
    array (a chunk at n > 1024) is made afresh and not kept."""
    size = rows * cols
    if size > _SCRATCH_VALUES:
        return np.empty((rows, cols))
    buf = getattr(_local, slot, None)
    if buf is None:
        buf = np.empty(_SCRATCH_VALUES)
        setattr(_local, slot, buf)
    return buf[:size].reshape(rows, cols)


def derive_rng(seed: int, *path: object) -> np.random.Generator:
    """Child generator fully determined by (seed, path)."""
    import hashlib  # loaded on the first draw, like numpy.random

    h = hashlib.sha256(repr(_integer("seed", seed)).encode())
    for part in path:
        h.update(b"\x1f" + repr(part).encode())
    entropy = int.from_bytes(h.digest(), "little")
    return np.random.default_rng(np.random.SeedSequence(entropy))


class DrawTable:
    """The count x n table of sorted samples of family drawn under (seed,
    label). It is drawn chunk by chunk when asked for and never stored;
    key() names it in the keys of what is computed from it."""

    # A plain class: a dataclass costs about 1 ms of import time.
    __slots__ = ("family", "n", "count", "seed", "label")

    def __init__(self, family: RefFamily | Alternative, n: int, count: int, seed: int,
                 label: str) -> None:
        self.family, self.n, self.count, self.seed, self.label = family, n, count, seed, label

    def key(self) -> tuple:
        """The draw key: the table's computation, with the family's identity."""
        return (self.label, self.family.identity(), self.n, self.count, self.seed)

    def chunks(self) -> Iterator[tuple[int, np.ndarray]]:
        """(first, rows): table rows first, first + 1, ..., _chunk_rows(n) at a
        time. Each chunk is drawn into this thread's "rows" scratch
        (`_scratch`), so it holds only until the next chunk is drawn on the
        thread: a caller that keeps a chunk copies it. Block b (rows
        b * _BLOCK_ROWS onward) is family.sample(_BLOCK_ROWS * n,
        derive_rng(seed, label, family.cache_key(), n, b)) cut to its rows."""
        n, key, step = self.n, self.family.cache_key(), _chunk_rows(self.n)
        for first in range(0, self.count, step):
            rows = _scratch("rows", min(step, self.count - first), n)
            for lo in range(0, len(rows), _BLOCK_ROWS):
                block = rows[lo : lo + _BLOCK_ROWS]
                rng = derive_rng(self.seed, self.label, key, n, (first + lo) // _BLOCK_ROWS)
                values = self.family.sample(_BLOCK_ROWS * n, rng)
                block[:] = values[: block.size].reshape(block.shape)
                block.sort(axis=1)
            yield first, rows
