"""The stream seeding, pinned to numpy's own SeedSequence, and kept out of
the package's import."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from cxorder._seeds import derive_rng


def test_derive_rng_is_default_rng_of_the_path_digest():
    seed, path = 17, ("null", "exponential()", 200, 3)
    text = repr(seed) + "".join("\x1f" + repr(part) for part in path)
    entropy = int.from_bytes(hashlib.sha256(text.encode()).digest(), "little")
    want = np.random.default_rng(np.random.SeedSequence(entropy)).random(8)
    assert derive_rng(seed, *path).random(8).tobytes() == want.tobytes()


def test_import_does_not_load_numpy_random():
    # Nor the other modules that only a draw, a disk-cache lookup or a CSV needs.
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    deferred = ("numpy.random", "hashlib", "csv")
    subprocess.run(
        [sys.executable, "-c",
         f"import cxorder, sys; loaded = set({deferred!r}) & set(sys.modules); "
         "assert not loaded, loaded"],
        env=env,
        check=True,
        timeout=60,
    )
