"""Deterministic RNG streams, and the draw engine every Monte Carlo table uses.

Every Monte Carlo trial gets its own generator, keyed by the root seed and
a structured path (stream label, distribution key, trial index, ...). The
path is hashed with SHA-256, so the mapping is stable across processes,
platforms, and worker layouts.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .distributions import Alternative, RefFamily

__all__ = ["derive_rng"]

# Rows filled per block; at n = 1000 each block-sized temporary is 0.5 MiB.
_BLOCK_ROWS = 64


def derive_rng(seed: int, *path: object) -> np.random.Generator:
    """Child generator fully determined by (seed, path)."""
    h = hashlib.sha256()
    h.update(repr(int(seed)).encode())
    for part in path:
        h.update(b"\x1f")
        h.update(repr(part).encode())
    entropy = int.from_bytes(h.digest(), "little")
    return np.random.default_rng(np.random.SeedSequence(entropy))


def _sorted_draws(family: RefFamily | Alternative, n: int, count: int, seed: int,
                  *path: object) -> np.ndarray:
    """count x n matrix whose row t is the sorted sample
    family.sample(n, derive_rng(seed, *path, n, t)), bit for bit.

    Rows are filled in blocks. A reference family's block is inverted from
    the rows' uniforms in one quantile call; an alternative draws each row
    through its own sampler, since not every kind is drawn by inversion.
    """
    out = np.empty((count, n))
    invert = isinstance(family, RefFamily)
    for start in range(0, count, _BLOCK_ROWS):
        block = out[start : start + _BLOCK_ROWS]
        for i, row in enumerate(block):
            rng = derive_rng(seed, *path, n, start + i)
            row[:] = rng.random(n) if invert else family.sample(n, rng)
        if invert:
            block[:] = family.quantile(block.reshape(-1)).reshape(block.shape)
        block.sort(axis=1)
    return out
