"""Tests of the benchmark's own machinery: self-time arithmetic, span
parents on pool threads, restoring wrapped functions, scaling to the
reference speed, and the reference."""

from __future__ import annotations

import sys
import types
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from perfbench import layers, reference, speed, tracing
from perfbench.program import CACHE_DIR_ENV, Program

ROOT = Path(__file__).resolve().parent.parent


def test_self_times_nested_and_pool_children():
    # id: (start, end, parent, thread)
    spans = {
        0: (0.0, 10.0, -1, 1),   # request
        1: (1.0, 3.0, 0, 1),     # child
        2: (4.0, 8.0, 0, 1),     # child with a grandchild
        3: (5.0, 6.0, 2, 1),
        4: (20.0, 30.0, -1, 1),  # pool parent
        5: (21.0, 26.0, 4, 2),   # worker thread, overlaps span 6
        6: (24.0, 29.0, 4, 3),   # other worker thread
        7: (22.0, 23.0, 5, 2),   # nested call on the worker
    }
    start, end, parent, thread = (np.array(col) for col in zip(*spans.values()))
    got = tracing.self_times(start, end, parent, thread)
    # Span 4's children cover the union 21..29, not 5 + 5.
    np.testing.assert_allclose(got, [4.0, 2.0, 3.0, 1.0, 2.0, 4.0, 5.0, 1.0])


def _fake_module():
    mod = types.ModuleType("fake")

    def inner(x):
        return x * 2

    def outer(xs):
        with ThreadPoolExecutor(max_workers=2) as pool:
            return list(pool.map(lambda x: mod.inner(x), xs))

    mod.inner, mod.outer = inner, outer
    return mod


def test_pool_thread_spans_take_the_pool_parent():
    mod = _fake_module()
    targets = (
        tracing.Target("fake.outer", "fake", "outer", pool_parent=True),
        tracing.Target("fake.inner", "fake", "inner", cpu=True),
    )
    tracer = tracing.Tracer()
    with tracing.installed(tracer, targets, {"fake": mod}) as absent:
        assert tracer.request(0, lambda: mod.outer([1, 2, 3, 4])) == [2, 4, 6, 8]
    assert absent == []
    spans = tracer.spans()
    name = np.array(tracer.names)[spans["name"]]
    (outer,) = np.flatnonzero(name == "fake.outer")
    inner = np.flatnonzero(name == "fake.inner")
    assert len(inner) == 4
    assert np.all(spans["parent"][inner] == outer)
    assert np.all(spans["thread"][inner] != spans["thread"][outer])
    assert np.all(spans["request"] == 0)
    assert set(tracer.cpu()) == set(inner.tolist())
    st = tracing.self_times(spans["start"], spans["end"], spans["parent"], spans["thread"])
    assert np.all(st >= 0.0)


def test_missing_target_is_reported_absent():
    targets = (tracing.Target("fake.gone", "fake", "gone"),)
    with tracing.installed(tracing.Tracer(), targets, {"fake": _fake_module()}) as absent:
        pass
    assert absent == ["fake.gone"]


def test_every_wrapper_is_removed_after_the_traced_run(monkeypatch):
    monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
    monkeypatch.setattr(sys, "path", list(sys.path))
    program = Program(ROOT)
    bindings, absent = tracing.find_bindings(layers.TARGETS, program.modules)
    assert absent == []
    pi_sites = next(sites for t, _, sites in bindings if t.name == "order_stats.pi_bound")
    assert {getattr(holder, "__name__", "") for holder, _ in pi_sites} >= {
        "cxorder.order_stats", "cxorder.testing"}
    testing = program.mod("testing")
    exp = program.mod("distributions").Exponential()
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracing.installed(tracer, layers.TARGETS, program.modules):
            for target, original, sites in bindings:
                assert all(getattr(h, a) is not original for h, a in sites), target.name
            testing.pi_bound(exp, 1, 3)
            raise RuntimeError("the block fails; wrappers must still come off")
    for target, original, sites in bindings:
        for holder, attr in sites:
            assert getattr(holder, attr) is original, (target.name, holder, attr)
    assert "order_stats.pi_bound" in np.array(tracer.names)[tracer.spans()["name"]]


def test_reference_weights_and_bounds():
    w = reference.weight_matrix(50, 8)
    np.testing.assert_allclose(w.sum(axis=1), 1.0, rtol=0, atol=1e-13)
    pis = reference.logistic_bounds(9)
    np.testing.assert_allclose(pis + pis[::-1], 1.0, rtol=0, atol=1e-15)
    assert reference.logistic_bounds(1)[0] == 0.5
    # One of one exponential: pi = 1 - exp(-1).
    assert reference.exponential_bounds(1)[0] == pytest.approx(1.0 - np.exp(-1.0), rel=1e-15)



def test_spans_scale_by_the_probe_interpolated_at_their_midpoint():
    log = speed.Log.__new__(speed.Log)
    log.at, log.probes = [10.0, 20.0], [speed.REFERENCE_S, 2 * speed.REFERENCE_S]
    # Midpoints 5 (before the first probe), 15 (halfway) and 25 (after the last).
    got = log.scaled([(4.0, 2.0), (14.0, 2.0), (24.0, 2.0)])
    np.testing.assert_allclose(got, [2.0, 2.0 / 1.5, 1.0], rtol=1e-12)
