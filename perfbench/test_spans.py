"""Self-tests of the span tracer and the layer probe, at tiny sizes.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import sys
import types
from pathlib import Path

import pytest

from spans import SpanTracer

ROOT = Path(__file__).resolve().parent.parent


class FakeClock:
    """A clock that moves only when told to."""

    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


def _classes(clock: FakeClock):
    class Inner:
        def work(self):
            clock.advance(2.0)
            return "inner"

    class Outer:
        def work(self):
            clock.advance(1.0)
            Inner().work()
            clock.advance(3.0)
            return "outer"

    return Inner, Outer


def test_nested_spans_get_exclusive_time():
    clock = FakeClock()
    Inner, Outer = _classes(clock)
    tracer = SpanTracer(clock)
    tracer.wrap_method(Outer, "work", "outer")
    tracer.wrap_method(Inner, "work", "inner")
    with tracer.region():
        clock.advance(0.5)
        assert Outer().work() == "outer"
        clock.advance(0.25)
        Inner().work()
    tracer.uninstall()
    assert dict(tracer.self_s) == {"outer": 4.0, "inner": 4.0}
    assert dict(tracer.calls) == {"outer": 1, "inner": 2}
    assert tracer.unattributed_s == 0.75
    assert tracer.wall_s == 8.75
    assert tracer.reconciliation_error() == 0.0


def test_same_layer_nesting_is_timed_but_entered_once():
    clock = FakeClock()
    seen = []

    class Base:
        def handle(self, x):
            clock.advance(1.0)
            return x + 1

    class Child(Base):
        def handle(self, x):
            clock.advance(0.5)
            return super().handle(x) * 10

    tracer = SpanTracer(clock)
    hook = lambda args, kwargs, result: seen.append((args[1], result))  # noqa: E731
    assert tracer.wrap_method(Base, "handle", "proto", hook)
    assert tracer.wrap_method(Child, "handle", "proto", hook)
    with tracer.region():
        assert Child().handle(1) == 20
        assert Base().handle(5) == 6
    tracer.uninstall()
    assert tracer.calls["proto"] == 2
    assert seen == [(1, 20), (5, 6)]
    assert tracer.self_s["proto"] == 2.5
    assert tracer.reconciliation_error() == 0.0


def test_inherited_methods_are_not_wrapped():
    class Base:
        def f(self):
            return 1

    class Child(Base):
        pass

    tracer = SpanTracer(FakeClock())
    assert not tracer.wrap_method(Child, "f", "layer")
    assert not tracer.wrap_method(Child, "missing", "layer")
    assert tracer.wrapped == []


def test_double_wrap_is_refused():
    class A:
        def f(self):
            return 1

    tracer = SpanTracer(FakeClock())
    tracer.wrap_method(A, "f", "layer")
    with pytest.raises(ValueError):
        tracer.wrap_method(A, "f", "layer")
    tracer.uninstall()


def test_uninstall_restores_methods_and_every_module_binding():
    clock = FakeClock()
    Inner, Outer = _classes(clock)
    originals = (vars(Inner)["work"], vars(Outer)["work"])

    def helper(x):
        clock.advance(1.0)
        return 2 * x

    pkg = types.ModuleType("spanpkg")
    sub = types.ModuleType("spanpkg.sub")
    pkg.helper = helper
    sub.helper = helper
    sub.alias = helper
    sys.modules.update({"spanpkg": pkg, "spanpkg.sub": sub})
    try:
        tracer = SpanTracer(clock)
        tracer.wrap_method(Outer, "work", "outer")
        tracer.wrap_method(Inner, "work", "inner")
        assert tracer.wrap_function(helper, "helper", package="spanpkg") == 3
        assert pkg.helper is not helper and sub.alias is sub.helper
        with tracer.region():
            assert pkg.helper(2) == 4 and sub.alias(3) == 6
        assert tracer.calls["helper"] == 2
        assert tracer.self_s["helper"] == 2.0
        assert sorted(tracer.unrestored()) == sorted(tracer.wrapped)
        tracer.uninstall()
        assert tracer.unrestored() == []
        assert (vars(Inner)["work"], vars(Outer)["work"]) == originals
        assert pkg.helper is helper and sub.helper is helper
        assert sub.alias is helper
    finally:
        del sys.modules["spanpkg"], sys.modules["spanpkg.sub"]


def test_a_raising_call_closes_its_span():
    clock = FakeClock()

    class A:
        def boom(self):
            clock.advance(1.5)
            raise KeyError("x")

    tracer = SpanTracer(clock)
    tracer.wrap_method(A, "boom", "a")
    with tracer.region():
        with pytest.raises(KeyError):
            A().boom()
        clock.advance(1.0)
    tracer.uninstall()
    assert tracer.self_s["a"] == 1.5
    assert tracer.calls["a"] == 1
    assert tracer.unattributed_s == 1.0
    assert tracer.reconciliation_error() == 0.0


def test_layer_probe_on_a_tiny_simulation_is_passive_and_restored():
    sys.path.insert(0, str(ROOT / "src"))
    from layers import LayerProbe, per_layer_names
    from workloads import OneShot, traffic_totals

    workload = OneShot(
        name="tiny", strategy="bf", devices=9, cardinality=300, dimensions=2,
        distribution="independent", distance=400.0, sim_time=120.0,
        queries_per_device=(1, 1), scenarios=2,
    )
    inputs = workload.setup(3)
    plain = workload.run(inputs)
    tracer = SpanTracer()
    probe = LayerProbe(tracer)
    try:
        probe.install()
        with tracer.region():
            traced = workload.run(inputs)
    finally:
        tracer.uninstall()
    assert tracer.unrestored() == []
    assert len(tracer.wrapped) > 30
    assert workload.digest(traced) == workload.digest(plain)
    assert tracer.reconciliation_error() < 1e-9
    assert all(v >= 0 for v in tracer.self_s.values())
    values = probe.metrics(traffic_totals(traced), 0, tracer.wall_s)
    assert list(values) == [name for name, _ in per_layer_names()]
    assert values["core.local.calls"] > 0
    assert values["net.engine.events"] == sum(r.events for r in traced)
    assert values["net.world.transmissions"] == sum(
        r.traffic.transmissions for r in traced)
    received = (values["net.aodv.rreq_frames"] + values["net.aodv.rrep_frames"]
                + values["net.aodv.rerr_frames"])
    assert received <= traffic_totals(traced)["deliveries"]
