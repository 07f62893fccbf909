"""The stream seeding, pinned to numpy's own SeedSequence rather than to
the package's copy of it, and kept out of the package's import."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cxorder._seeds import _row_words, derive_rng
from cxorder._seedseq import seed_words


def _numpy_words(digest):
    entropy = int.from_bytes(digest, "little")
    return np.random.SeedSequence(entropy).generate_state(4, np.uint64)


def _check_against_numpy(digests):
    got = seed_words(digests)
    want = np.array([_numpy_words(d) for d in digests])
    assert got.dtype == np.uint64
    assert got.shape == (len(digests), 4)
    assert got.tobytes() == want.tobytes()


def test_seed_words_match_numpy_on_random_digests():
    rng = np.random.default_rng(2024)
    digests = [rng.bytes(32) for _ in range(300)]
    _check_against_numpy(digests)


@pytest.mark.parametrize("zero_top_words", [1, 2, 3, 4, 5, 7, 8])
def test_seed_words_match_numpy_with_short_entropy(zero_top_words):
    # SeedSequence reads an integer as its shortest list of 32-bit words,
    # so zero top words change the mixing. Mixed with full rows in one pass.
    rng = np.random.default_rng(zero_top_words)
    short = [
        rng.bytes(32 - 4 * zero_top_words) + bytes(4 * zero_top_words) for _ in range(5)
    ]
    if zero_top_words < 8:
        # A nonzero word under the zero ones, and zeros inside the entropy.
        short.append(bytes(31 - 4 * zero_top_words) + b"\x01" + bytes(4 * zero_top_words))
    full = [rng.bytes(32) for _ in range(5)]
    _check_against_numpy(full[:2] + short + full[2:])


def test_derive_rng_is_default_rng_of_the_path_digest():
    seed, path = 17, ("null", "exponential()", 200, 3)
    text = repr(seed) + "".join("\x1f" + repr(part) for part in path)
    entropy = int.from_bytes(hashlib.sha256(text.encode()).digest(), "little")
    want = np.random.default_rng(np.random.SeedSequence(entropy)).random(8)
    assert derive_rng(seed, *path).random(8).tobytes() == want.tobytes()


def test_row_words_are_the_seed_words_of_each_rows_path():
    count = 1100  # more than one vectorized pass
    words = _row_words(3, ("alt", "weibull(1.5)", 40), count)
    assert words.shape == (count, 4)
    for t in (0, 1, 1023, 1024, count - 1):
        text = f"3\x1f'alt'\x1f'weibull(1.5)'\x1f40\x1f{t}"
        want = _numpy_words(hashlib.sha256(text.encode()).digest())
        assert words[t].tobytes() == want.tobytes()


def test_import_does_not_load_numpy_random():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    subprocess.run(
        [sys.executable, "-c", "import cxorder, sys; assert 'numpy.random' not in sys.modules"],
        env=env,
        check=True,
        timeout=60,
    )
