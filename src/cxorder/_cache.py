"""The one cache layer every Monte Carlo result, bound vector and weight
matrix goes through.

A key is a tuple that names the computation behind its value: the kind of
entry first, then everything the value depends on. The kinds are "gaps" (the
rows x ranks gap matrix of a drawn table) and "pairs" (its sorted
Proschan-Pyke pair counts), both naming the table by `DrawTable.key()`,
"null" (sorted null statistics), "bounds", "weights" and "test" (a pinned
spec with its weights, bounds and null pair). No draw table is stored.
Values are arrays, or tuples whose arrays are stored read-only, in one
least-recently-used store bounded to BUDGET_BYTES of array data, where an
array shared by two entries counts twice. Entries asked for with a disk
length, the "null" ones, are also kept on disk when the CXORDER_CACHE_DIR
environment variable is set. A disk entry is named by the key together
with CACHE_VERSION, the OpenBLAS kernel and numpy's version, which also
decide its bytes: its file name hashes them, and the archive stores them,
so an entry that names anything else is not read.
"""

from __future__ import annotations

import contextlib
import os
import tempfile
import threading
import warnings
import zipfile
from collections import OrderedDict
from pathlib import Path
from typing import Callable

import numpy as np

from . import _blas

__all__ = ["BUDGET_BYTES", "CACHE_DIR_ENV", "CACHE_VERSION", "clear_caches", "get", "keep",
           "lookup"]

CACHE_DIR_ENV = "CXORDER_CACHE_DIR"

# Part of every disk key: the stored format, then the revision of what disk
# entries hold, which are null-statistic tables only. Bump the revision when
# a change alters such a table (its reference draws, the statistic, the BLAS
# threads of the product), so no entry written before it is read.
CACHE_VERSION = ("npz-pair-1", 6)

# Array bytes held in memory. At R = T = 5000 table1 holds about 15 MiB and
# fig_drhr 68 MiB, nearly all of it gap matrices (90% of fig_drhr's are of
# alternative tables, each used once); fig_3d would hold 150 MiB unbounded.
# Gap matrices grow with R and T, so these are ten times what R = T = 500
# holds.
BUDGET_BYTES = 128 << 20

Value = np.ndarray | tuple

_entries: OrderedDict[tuple, Value] = OrderedDict()
_held = 0
_lock = threading.Lock()


def _arrays(value: Value) -> list:
    return [a for a in (value if isinstance(value, tuple) else (value,))
            if isinstance(a, np.ndarray)]


def _nbytes(value: Value) -> int:
    return sum(a.nbytes for a in _arrays(value))


def clear_caches() -> None:
    """Drop every in-memory entry (mainly for tests)."""
    global _held
    with _lock:
        _entries.clear()
        _held = 0


def _put(key: tuple, value: Value) -> None:
    global _held
    size = _nbytes(value)
    with _lock:
        if key in _entries or size > BUDGET_BYTES:
            return
        while _held + size > BUDGET_BYTES:
            _, old = _entries.popitem(last=False)
            _held -= _nbytes(old)
        _entries[key] = value
        _held += size


def get(key: tuple, disk_length: int | None = None) -> Value | None:
    """The value stored under key, or None. With disk_length set, a value
    missing from memory is read from the disk tier as `lookup` reads it."""
    with _lock:
        value = _entries.get(key)
        if value is not None:
            _entries.move_to_end(key)
            return value
    entry = _disk_entry(key) if disk_length is not None else None
    value = _load_pair(*entry, disk_length) if entry is not None else None
    return None if value is None else keep(key, value)


def keep(key: tuple, value: Value) -> Value:
    """Make value's arrays read-only, store it under key when the budget
    allows, and return it."""
    for arr in _arrays(value):
        arr.setflags(write=False)
    _put(key, value)
    return value


def lookup(key: tuple, compute: Callable[[], Value], disk_length: int | None = None) -> Value:
    """The value stored under key; on a miss, compute() is run and stored.

    With disk_length set, the value is a pair of sorted arrays of that
    length, and the disk tier is read before computing and written after.
    A disk entry is written to a temporary file and renamed into place; one
    that does not load as two finite, sorted arrays of that length under
    its own disk key is recomputed and rewritten. A write that fails with
    OSError warns (RuntimeWarning, naming the directory) and the value is
    kept in memory only.
    """
    value = get(key, disk_length)
    if value is None:
        value = compute()
        entry = _disk_entry(key) if disk_length is not None else None
        if entry is not None:
            try:
                _store_pair(*entry, value)
            except OSError as exc:
                warnings.warn(f"cache directory {entry[0].parent} not written ({exc.strerror}); "
                              "the result is kept in memory only", RuntimeWarning, stacklevel=2)
        keep(key, value)
    return value


def _disk_entry(key: tuple) -> tuple[Path, str] | None:
    """(path, disk key) of key's disk entry, or None without a cache
    directory. The disk key is the repr of CACHE_VERSION, the OpenBLAS
    kernel, numpy's version and key; the file name hashes it."""
    root = os.environ.get(CACHE_DIR_ENV)
    if not root:
        return None
    import hashlib  # loaded on the first disk lookup, not by importing the package

    name = repr((CACHE_VERSION, _blas.core(), np.__version__, key))
    return Path(root) / f"{key[0]}-{hashlib.sha256(name.encode()).hexdigest()}.npz", name


def _load_pair(path: Path, name: str, length: int) -> tuple[np.ndarray, np.ndarray] | None:
    """The pair stored at path under disk key name, or None when it is
    missing, unusable or stored under another key."""
    try:
        with np.load(path) as archive:
            stored = str(archive["key"][()])
            pair = (archive["tplus"], archive["tminus"])
    except (OSError, ValueError, TypeError, KeyError, EOFError, zipfile.BadZipFile):
        return None
    if stored != name:
        return None
    for arr in pair:
        if arr.shape != (length,) or not np.all(np.isfinite(arr)) or np.any(np.diff(arr) < 0):
            return None
    return pair


def _store_pair(path: Path, name: str, pair: tuple[np.ndarray, np.ndarray]) -> None:
    """Write pair to a temporary file and rename it to path. A writer killed
    before its rename leaves its .tmp file behind; the next writer of the
    entry removes it, and may remove a live writer's file, whose rename then
    finds nothing. That writer is done: the other stores the same bytes."""
    path.parent.mkdir(parents=True, exist_ok=True)
    for stale in path.parent.glob(f"{path.stem}*.tmp"):
        stale.unlink(missing_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.stem, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            np.savez(fh, tplus=pair[0], tminus=pair[1], key=np.array(name))
        with contextlib.suppress(FileNotFoundError):
            os.replace(tmp, path)
    finally:
        Path(tmp).unlink(missing_ok=True)
