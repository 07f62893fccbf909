"""Outside-in span tracing of the package under test.

The tracer replaces a function at every module attribute that binds it
(``order_stats.pi_bound`` and ``testing.pi_bound`` alike, since each module
calls through its own global), records one span per call, and puts the
originals back when the ``installed`` block ends. Nothing in the package is
edited. Spans live in per-thread arrays, so recording takes no lock, and are
written out once at the end.

A span records its name, start, end, parent span and request id. The parent
is the span on top of the calling thread's stack; a pool thread starts with
an empty stack, so its spans take the running ``estimate_power`` span (the
one marked ``pool_parent``) as their parent.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np


@dataclass(frozen=True)
class Target:
    """One traced function: `owner` is a module name or "module:Class"."""

    name: str
    owner: str
    attr: str
    probe: Callable[[tuple, dict], Any] | None = None
    pool_parent: bool = False
    cpu: bool = False


class _ThreadBuffer:
    def __init__(self, thread_id: int) -> None:
        self.thread = thread_id
        self.stack: list[int] = []
        self.sid = array("q")
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.request = array("i")
        # (span id, value) pairs from probes and thread CPU clocks.
        self.probes: list[tuple[int, Any]] = []
        self.cpu: list[tuple[int, float]] = []


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._buffers: list[_ThreadBuffer] = []
        self._lock = threading.Lock()
        self.request_id = -1
        self.pool_parent = -1

    def _buffer(self) -> _ThreadBuffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = _ThreadBuffer(threading.get_ident())
            with self._lock:
                self._buffers.append(buf)
            self._local.buf = buf
        return buf

    def name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, target: Target, fn: Callable) -> Callable:
        nid = self.name_id(target.name)
        probe = target.probe
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            buf = tracer._buffer()
            stack = buf.stack
            parent = stack[-1] if stack else tracer.pool_parent
            sid = next(tracer._ids)
            if probe is not None:
                buf.probes.append((sid, probe(args, kwargs)))
            saved_pool = tracer.pool_parent
            if target.pool_parent:
                tracer.pool_parent = sid
            stack.append(sid)
            c0 = time.thread_time() if target.cpu else 0.0
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                if target.cpu:
                    buf.cpu.append((sid, time.thread_time() - c0))
                stack.pop()
                if target.pool_parent:
                    tracer.pool_parent = saved_pool
                buf.sid.append(sid)
                buf.name.append(nid)
                buf.start.append(t0)
                buf.end.append(t1)
                buf.parent.append(parent)
                buf.request.append(tracer.request_id)

        return traced

    def request(self, request_id: int, fn: Callable, *args, **kwargs):
        """Run fn as the root span of one request."""
        self.request_id = request_id
        try:
            return self.wrap(Target("request", "", ""), fn)(*args, **kwargs)
        finally:
            self.request_id = -1

    def spans(self) -> dict[str, np.ndarray]:
        """All finished spans as parallel arrays, ordered by span id."""
        cols = {k: [] for k in ("sid", "name", "start", "end", "parent", "request", "thread")}
        for buf in self._buffers:
            for key in ("sid", "name", "start", "end", "parent", "request"):
                cols[key].append(np.frombuffer(getattr(buf, key), dtype=_DTYPES[key]))
            cols["thread"].append(np.full(len(buf.sid), buf.thread, dtype=np.int64))
        out = {k: (np.concatenate(v) if v else np.empty(0, _DTYPES.get(k, np.int64)))
               for k, v in cols.items()}
        order = np.argsort(out["sid"], kind="stable")
        out = {k: v[order] for k, v in out.items()}
        # Ids are handed out at span start and every span records itself
        # when it ends, so once all spans have ended the id is the index.
        if not np.array_equal(out["sid"], np.arange(out["sid"].size)):
            raise RuntimeError("spans collected while some were still open")
        return out

    def probes(self) -> dict[int, Any]:
        return {sid: v for buf in self._buffers for sid, v in buf.probes}

    def cpu(self) -> dict[int, float]:
        return {sid: v for buf in self._buffers for sid, v in buf.cpu}


_DTYPES = {
    "sid": np.int64,
    "name": np.int32,
    "start": np.float64,
    "end": np.float64,
    "parent": np.int64,
    "request": np.int32,
    "thread": np.int64,
}


def self_times(start, end, parent, thread) -> np.ndarray:
    """Duration of each span minus the part of it its children cover.

    Spans are indexed by span id (ids run 0..N-1); `parent` is -1 for a
    root. Children on the parent's own thread run one after another, so
    their durations add up. Children on pool threads can overlap each
    other, so for a parent that has any, coverage is the length of the
    union of its child intervals clipped to the parent.
    """
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    parent = np.asarray(parent, dtype=np.int64)
    thread = np.asarray(thread)
    out = end - start
    kids = np.flatnonzero(parent >= 0)
    if kids.size == 0:
        return out
    par = parent[kids]
    lo = np.maximum(start[kids], start[par])
    hi = np.minimum(end[kids], end[par])
    covered = np.bincount(par, weights=np.maximum(hi - lo, 0.0), minlength=out.size)
    for p in np.unique(par[thread[kids] != thread[par]]).tolist():
        mine = par == p
        covered[p] = _union_length(sorted(zip(lo[mine].tolist(), hi[mine].tolist())))
    return out - covered


def _union_length(intervals) -> float:
    total, cur_a, cur_b = 0.0, None, None
    for a, b in intervals:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def _resolve_owner(owner: str, modules: dict[str, Any]):
    mod_name, _, cls_name = owner.partition(":")
    mod = modules.get(mod_name)
    if mod is None:
        return None
    return getattr(mod, cls_name, None) if cls_name else mod


def find_bindings(targets, modules: dict[str, Any]):
    """For each target present in the package, every (holder, attr) that
    binds its function. Returns (bindings, absent target names)."""
    bindings: list[tuple[Target, Any, list[tuple[Any, str]]]] = []
    absent: list[str] = []
    for target in targets:
        holder = _resolve_owner(target.owner, modules)
        original = holder.__dict__.get(target.attr) if holder is not None else None
        if original is None:
            absent.append(target.name)
            continue
        if ":" in target.owner:
            sites = [(holder, target.attr)]
        else:
            sites = [
                (mod, attr)
                for mod in modules.values()
                for attr, value in list(vars(mod).items())
                if value is original
            ]
        bindings.append((target, original, sites))
    return bindings, absent


@contextmanager
def installed(tracer: Tracer, targets, modules: dict[str, Any]):
    """Wrap every binding of every target for the duration of the block."""
    bindings, absent = find_bindings(targets, modules)
    try:
        for target, original, sites in bindings:
            wrapper = tracer.wrap(target, original)
            for holder, attr in sites:
                setattr(holder, attr, wrapper)
        yield absent
    finally:
        for _, original, sites in bindings:
            for holder, attr in sites:
                setattr(holder, attr, original)
