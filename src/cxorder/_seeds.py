"""Deterministic RNG streams, and the draw engine every Monte Carlo table uses.

Every Monte Carlo trial gets its own generator, keyed by the root seed and
a structured path (stream label, distribution key, trial index, ...). The
path is hashed with SHA-256, so the mapping is stable across processes,
platforms, and worker layouts. Row t's generator is
default_rng(SeedSequence(entropy)), entropy being the digest read as a
little-endian integer. The engine seeds up to _SEED_ROWS rows at once: a
vectorized copy of SeedSequence's mixing (_seedseq) turns their digests
into PCG64 seed words, so no SeedSequence object is built per row.
_seedseq loads numpy.random, so it is imported on first use.
"""

from __future__ import annotations

import hashlib

import numpy as np

from . import _cache
from .distributions import Alternative, RefFamily

__all__ = ["derive_rng"]

# Rows filled per block; at n = 1000 each block-sized temporary is 0.5 MiB.
_BLOCK_ROWS = 64
# Rows seeded per vectorized pass; its temporaries are about 0.25 KiB a row.
_SEED_ROWS = 1024


def _path_hash(seed: int, path: tuple):
    h = hashlib.sha256(repr(int(seed)).encode())
    for part in path:
        h.update(b"\x1f" + repr(part).encode())
    return h


def derive_rng(seed: int, *path: object) -> np.random.Generator:
    """Child generator fully determined by (seed, path)."""
    from . import _seedseq

    return _seedseq.generator(_seedseq.seed_words([_path_hash(seed, path).digest()])[0])


def _row_words(seed: int, path: tuple, count: int) -> np.ndarray:
    """count x 4 seed words; row t seeds derive_rng(seed, *path, t).

    The path's hash is taken once and copied for each t. Rows are seeded
    _SEED_ROWS at a time, which spreads the vectorized pass's fixed cost
    (about 140 us on a 2-vCPU x86-64 machine) while keeping its
    temporaries small.
    """
    from . import _seedseq

    prefix = _path_hash(seed, path)
    words = np.empty((count, 4), dtype=np.uint64)
    for start in range(0, count, _SEED_ROWS):
        digests = []
        for t in range(start, min(count, start + _SEED_ROWS)):
            h = prefix.copy()
            h.update(b"\x1f" + repr(t).encode())
            digests.append(h.digest())
        words[start : start + len(digests)] = _seedseq.seed_words(digests)
    return words


def _sorted_draws(family: RefFamily | Alternative, n: int, count: int, seed: int,
                  *path: object) -> np.ndarray:
    """count x n matrix whose row t is the sorted sample
    family.sample(n, derive_rng(seed, *path, n, t)), bit for bit.

    Rows are filled in blocks. A reference family's block is inverted from
    the rows' uniforms in one quantile call; an alternative draws each row
    through its own sampler, since not every kind is drawn by inversion.
    """
    from . import _seedseq

    out = np.empty((count, n))
    invert = isinstance(family, RefFamily)
    words = _row_words(seed, (*path, n), count)
    for start in range(0, count, _BLOCK_ROWS):
        block = out[start : start + _BLOCK_ROWS]
        for row, row_words in zip(block, words[start : start + _BLOCK_ROWS]):
            rng = _seedseq.generator(row_words)
            row[:] = rng.random(n) if invert else family.sample(n, rng)
        if invert:
            block[:] = family.quantile(block.reshape(-1)).reshape(block.shape)
        block.sort(axis=1)
    return out


def _cached_draws(family: RefFamily | Alternative, n: int, count: int, seed: int,
                  label: str) -> np.ndarray:
    """_sorted_draws(family, n, count, seed, label, family.cache_key()), held
    read-only by the cache layer under the family's identity."""
    ident = family.identity() if isinstance(family, RefFamily) else family.cache_key()
    return _cache.lookup(
        ("draws", label, ident, n, count, seed),
        lambda: _sorted_draws(family, n, count, seed, label, family.cache_key()),
    )
