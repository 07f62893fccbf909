"""numpy's default_rng(SeedSequence(entropy)), for many 256-bit entropies at once.

seed_words runs SeedSequence's mixing on a whole batch of digests with
vectorized uint32 operations, and generator builds each row's Generator
from its words through a seed sequence that only hands them over. This
module imports numpy.random, so the draw engine imports it on first use
and importing the package loads neither.
"""

from __future__ import annotations

import numpy as np
from numpy.random import PCG64, Generator
from numpy.random.bit_generator import ISeedSequence

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx).
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)


def _multipliers(init: int, mult: int, count: int) -> np.ndarray:
    # The hash constant SeedSequence steps through: one step per hashmix
    # call, in call order, whatever the data. A column, to broadcast over
    # a (words, rows) array.
    out = [init]
    for _ in range(count):
        out.append(out[-1] * mult & 0xFFFFFFFF)
    return np.array(out, dtype=np.uint32)[:, np.newaxis]


# mix_entropy of 8 entropy words makes 4 + 4*3 + 4*4 = 32 hashmix calls;
# generate_state(4, uint64) draws 8 words.
_HASH_A = _multipliers(_INIT_A, _MULT_A, 32)
_HASH_B = _multipliers(_INIT_B, _MULT_B, 8)


def _xorshift(x: np.ndarray) -> np.ndarray:
    x ^= x >> _XSHIFT
    return x


def _hashmix(value: np.ndarray, k: int) -> np.ndarray:
    """hashmix calls k, k + 1, ... of SeedSequence, one per row of value."""
    width = len(value)
    return _xorshift((value ^ _HASH_A[k : k + width]) * _HASH_A[k + 1 : k + width + 1])


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return _xorshift(_MIX_MULT_L * x - _MIX_MULT_R * y)


def seed_words(digests: list[bytes]) -> np.ndarray:
    """rows x 4 uint64 array whose row i is
    SeedSequence(int.from_bytes(digests[i], "little")).generate_state(4, np.uint64).

    The work runs on a (words, rows) array, one numpy operation per step of
    SeedSequence. SeedSequence takes an integer entropy as its shortest
    list of 32-bit words, so a digest whose top words are zero has fewer
    than 8. Only the last stage of mix_entropy, which folds in words 4..7
    one at a time, sees the length: a row skips the words it lacks. The
    earlier stages hash a missing word exactly as a zero word.
    """
    entropy = np.frombuffer(b"".join(digests), dtype="<u4").reshape(-1, 8).T.astype(np.uint32)
    # present[i]: the row has a nonzero word at position i or above.
    present = np.logical_or.accumulate(entropy[::-1] != 0, axis=0)[::-1]
    pool = _hashmix(entropy[:_POOL_SIZE], 0)
    k = _POOL_SIZE
    for src in range(_POOL_SIZE):
        # While word src is mixed into the others it does not change, so
        # its three updates are independent.
        dst = [i for i in range(_POOL_SIZE) if i != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[[src] * len(dst)], k))
        k += len(dst)
    late = _hashmix(np.repeat(entropy[_POOL_SIZE:], _POOL_SIZE, axis=0), k)
    for src in range(_POOL_SIZE, 8):
        i = (src - _POOL_SIZE) * _POOL_SIZE
        pool = np.where(present[src], _mix(pool, late[i : i + _POOL_SIZE]), pool)
    state = _xorshift((np.tile(pool, (2, 1)) ^ _HASH_B[:-1]) * _HASH_B[1:])
    return state.T.astype("<u4", order="C").view("<u8").astype(np.uint64)


class _Words(ISeedSequence):
    """Seed sequence that hands PCG64 its four precomputed uint64 words."""

    def __init__(self, words: np.ndarray) -> None:
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def generator(words: np.ndarray) -> Generator:
    """The Generator default_rng builds from a seed sequence with these
    generate_state(4, np.uint64) words (one row of seed_words)."""
    return Generator(PCG64(_Words(words)))
