"""Deterministic RNG streams, and the draw engine every Monte Carlo table uses.

A stream is keyed by the root seed and a structured path (stream label,
distribution key, sample size, block index). The path is hashed with
SHA-256, so the mapping is stable across processes, platforms, and worker
layouts. The stream is default_rng(SeedSequence(entropy)), entropy being
the digest read as a little-endian integer. A table is drawn in blocks of
_BLOCK_ROWS rows with one stream per block, and a block's rows are filled
one after another, so the first k rows of a table are the k-row table.
numpy.random is loaded on the first draw, not by importing the package.
"""

from __future__ import annotations

import hashlib

import numpy as np

from . import _cache
from .distributions import Alternative, RefFamily

__all__ = ["derive_rng"]

# Rows per stream; at n = 1000 each block is 0.5 MiB.
_BLOCK_ROWS = 64


def derive_rng(seed: int, *path: object) -> np.random.Generator:
    """Child generator fully determined by (seed, path)."""
    h = hashlib.sha256(repr(int(seed)).encode())
    for part in path:
        h.update(b"\x1f" + repr(part).encode())
    entropy = int.from_bytes(h.digest(), "little")
    return np.random.default_rng(np.random.SeedSequence(entropy))


def _sorted_draws(family: RefFamily | Alternative, n: int, count: int, seed: int,
                  label: str) -> np.ndarray:
    """count x n matrix of sorted samples of family.

    Block b (rows b * _BLOCK_ROWS onward) is drawn from
    derive_rng(seed, label, family.cache_key(), n, b). A reference family
    fills its block with uniforms, row after row, and inverts them in one
    quantile call; an alternative draws the block's rows one after another,
    since not every kind is drawn by inversion.
    """
    out = np.empty((count, n))
    key = family.cache_key()
    for b, start in enumerate(range(0, count, _BLOCK_ROWS)):
        block = out[start : start + _BLOCK_ROWS]
        rng = derive_rng(seed, label, key, n, b)
        if isinstance(family, RefFamily):
            rng.random(out=block)
            block[:] = family.quantile(block.reshape(-1)).reshape(block.shape)
        else:
            for row in block:
                row[:] = family.sample(n, rng)
        block.sort(axis=1)
    return out


def _cached_draws(family: RefFamily | Alternative, n: int, count: int, seed: int,
                  label: str) -> np.ndarray:
    """_sorted_draws(family, n, count, seed, label), held read-only by the
    cache layer under the family's identity."""
    ident = family.identity() if isinstance(family, RefFamily) else family.cache_key()
    return _cache.lookup(
        ("draws", label, ident, n, count, seed),
        lambda: _sorted_draws(family, n, count, seed, label),
    )
