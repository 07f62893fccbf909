"""Deterministic RNG streams, and the draw engine every Monte Carlo table uses.

A stream is keyed by the root seed and a structured path (stream label,
distribution key, sample size, block index). The path is hashed with
SHA-256, so the mapping is stable across processes, platforms, and worker
layouts. The stream is default_rng(SeedSequence(entropy)), entropy being
the digest read as a little-endian integer. A table is drawn in blocks of
_BLOCK_ROWS rows with one stream per block, and each block with one
family.sample(_BLOCK_ROWS * n, rng) call read row after row. A short last
block is drawn whole and cut, so the first k rows of a table are the k-row
table.
numpy.random and hashlib are loaded on the first draw, not by importing the
package.
"""

from __future__ import annotations

import numpy as np

from . import _cache
from .distributions import Alternative, RefFamily

__all__ = ["derive_rng"]

# Rows per stream; at n = 1000 each block is 0.5 MiB.
_BLOCK_ROWS = 64


def derive_rng(seed: int, *path: object) -> np.random.Generator:
    """Child generator fully determined by (seed, path)."""
    import hashlib  # loaded on the first draw, like numpy.random

    h = hashlib.sha256(repr(int(seed)).encode())
    for part in path:
        h.update(b"\x1f" + repr(part).encode())
    entropy = int.from_bytes(h.digest(), "little")
    return np.random.default_rng(np.random.SeedSequence(entropy))


def _sorted_draws(family: RefFamily | Alternative, n: int, count: int, seed: int,
                  label: str) -> np.ndarray:
    """count x n matrix of sorted samples of family.

    Block b (rows b * _BLOCK_ROWS onward) is family.sample(_BLOCK_ROWS * n,
    derive_rng(seed, label, family.cache_key(), n, b)) cut to its rows.
    """
    out = np.empty((count, n))
    key = family.cache_key()
    for b, start in enumerate(range(0, count, _BLOCK_ROWS)):
        block = out[start : start + _BLOCK_ROWS]
        rng = derive_rng(seed, label, key, n, b)
        block[:] = family.sample(_BLOCK_ROWS * n, rng)[: block.size].reshape(block.shape)
        block.sort(axis=1)
    return out


def _cached_draws(family: RefFamily | Alternative, n: int, count: int, seed: int,
                  label: str) -> np.ndarray:
    """_sorted_draws(family, n, count, seed, label), held read-only by the
    cache layer under the family's identity."""
    return _cache.lookup(
        ("draws", label, family.identity(), n, count, seed),
        lambda: _sorted_draws(family, n, count, seed, label),
    )
