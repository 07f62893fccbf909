"""Matrix products on one BLAS thread.

OpenBLAS splits a product between its threads, and the bytes of the result
depend on how many it uses: at n >= 400 the statistics differ in the last
digits between one and two threads. Every product behind a statistic goes
through `matmul`, which sets numpy's bundled OpenBLAS to one thread around
the product, unless it runs on one already, and then restores the count it
found, under a lock so that concurrent callers cannot restore a stale count.
The library is looked up on the first product or `core()` call, not at
import, and the same lookup reads the name of the kernel OpenBLAS selected
for this machine (SkylakeX, Haswell, ...), which also decides the bytes.
Without the library (numpy built against another BLAS) `matmul` is a plain
`@`, the bytes follow that BLAS, and `core()` is None.
"""

from __future__ import annotations

import ctypes
import threading
from pathlib import Path
from typing import Callable

import numpy as np

# (get, set) thread-count and kernel-name symbols: numpy's scipy-openblas
# build, then plain OpenBLAS with and without 64-bit integers.
_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_",
     "scipy_openblas_get_corename64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_", "openblas_get_corename64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads", "openblas_get_corename"),
)

Handle = tuple[Callable[[], int], Callable[[int], None]]

_lock = threading.Lock()
_NOT_LOOKED_UP = object()
_handle: Handle | None | object = _NOT_LOOKED_UP
_core: str | None = None


def _find() -> tuple[Handle | None, str | None]:
    """The (get, set) thread-count functions of numpy's OpenBLAS and the name
    of its kernel, or (None, None)."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        try:
            dll = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for get_name, set_name, core_name in _SYMBOLS:
            get, put = getattr(dll, get_name, None), getattr(dll, set_name, None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                corename, kernel = getattr(dll, core_name, None), None
                if corename is not None:
                    corename.argtypes, corename.restype = [], ctypes.c_char_p
                    kernel = (corename() or b"").decode("ascii", "replace") or None
                return (get, put), kernel
    return None, None


def handle() -> Handle | None:
    """The thread-count functions `matmul` uses, looked up once."""
    global _handle, _core
    with _lock:
        if _handle is _NOT_LOOKED_UP:
            _handle, _core = _find()
        return _handle


def core() -> str | None:
    """The name of the kernel numpy's OpenBLAS runs, looked up with `handle`,
    or None without that library or its kernel-name function."""
    handle()
    return _core


def matmul(a: np.ndarray, b: np.ndarray):
    """a @ b computed on one OpenBLAS thread."""
    # Once looked up, the handle never changes, so it is read without the lock.
    fns = handle() if _handle is _NOT_LOOKED_UP else _handle
    if fns is None:
        return a @ b
    get, put = fns
    with _lock:
        before = get()
        if before == 1:
            return a @ b
        put(1)
        try:
            return a @ b
        finally:
            put(before)
