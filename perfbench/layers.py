"""Which program functions belong to which layer, and the per-layer metrics.

Every layer is timed at the public entry points other layers call; the
world's three delivery callbacks are wrapped too because they are what
the event engine invokes, and without them the world's per-receiver
bookkeeping would be charged to the engine. A target that a later
version of the program no longer defines is skipped, not an error: its
layer then reads zero, which the per-layer report makes visible.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Tuple

from spans import SpanTracer

__all__ = ["LAYERS", "LayerProbe", "per_layer_names"]

#: Layer names, in report order.
LAYERS = (
    "core.local",
    "core.assembly",
    "protocol.device",
    "continuous",
    "faults.updates",
    "net.aodv",
    "net.world",
    "net.spatial_index",
    "net.mobility",
    "net.engine",
)

#: Per-layer metrics beyond ``<layer>.calls`` / ``<layer>.self_s``:
#: ``(name, unit)``, in report order.
_EXTRA = {
    "core.local": (("rows_in", "count"), ("rows_out", "count"),
                   ("cache_hit_ratio", "ratio")),
    "core.assembly": (("rows_in", "count"), ("rows_kept", "count")),
    "protocol.device": (("reissues", "count"),),
    "continuous": (("silenced_ratio", "ratio"),),
    "faults.updates": (),
    "net.aodv": (("rreq_frames", "count"), ("rrep_frames", "count"),
                 ("rerr_frames", "count"), ("control_per_data", "ratio"),
                 ("rerr_max_receipts", "count")),
    "net.world": (("transmissions", "count"), ("deliveries", "count"),
                  ("drops", "count"), ("bytes_sent", "bytes")),
    "net.spatial_index": (("rebuilds", "count"),),
    "net.mobility": (),
    "net.engine": (("events", "count"), ("events_per_s", "1/s")),
}

_TRACE = (("trace.unattributed_s", "s"), ("trace.overhead_ratio", "ratio"))


def per_layer_names() -> List[Tuple[str, str]]:
    """Every per-layer metric as ``(name, unit)``, in report order."""
    out: List[Tuple[str, str]] = []
    for layer in LAYERS:
        if layer != "net.engine":
            out.append((f"{layer}.calls", "count"))
        out.append((f"{layer}.self_s", "s"))
        out.extend((f"{layer}.{name}", unit) for name, unit in _EXTRA[layer])
    out.extend(_TRACE)
    return out


class LayerProbe:
    """Wraps the program's layer entry points into a :class:`SpanTracer`
    and gathers the counters its hooks see."""

    def __init__(self, tracer: SpanTracer) -> None:
        self.tracer = tracer
        self.counts: Counter = Counter()
        #: id(RERR payload) -> [payload, receipts]; the payload is held
        #: so its id cannot be reused by a later payload.
        self._rerr: Dict[int, list] = {}
        self._devices: Dict[int, object] = {}
        self._indexes: Dict[int, object] = {}
        self._sims: Dict[int, object] = {}

    # -- hooks ------------------------------------------------------------------

    def _on_local(self, args, kwargs, result) -> None:
        device = args[0]
        self._devices[id(device)] = device
        self.counts["local_rows_in"] += device.relation.cardinality
        self.counts["local_rows_out"] += result.skyline.cardinality

    def _on_add(self, args, kwargs, result) -> None:
        self.counts["asm_rows_in"] += args[1].cardinality

    def _on_add_batch(self, args, kwargs, result) -> None:
        batch = args[1]
        if isinstance(batch, (list, tuple)):
            self.counts["asm_rows_in"] += sum(r.cardinality for r in batch)

    def _on_result(self, args, kwargs, result) -> None:
        self.counts["asm_rows_kept"] += result.cardinality

    def _on_merge(self, args, kwargs, result) -> None:
        self.counts["asm_rows_in"] += args[0].cardinality + args[1].cardinality
        self.counts["asm_rows_kept"] += result.cardinality

    def _on_silence(self, args, kwargs, result) -> None:
        self.counts["silence_checks"] += 1
        if result is not None:
            self.counts["silenced"] += 1

    def _on_frame(self, args, kwargs, result) -> None:
        frame = args[1]
        self.counts[f"aodv_rx_{frame.kind}"] += 1
        if frame.kind == "rerr":
            entry = self._rerr.setdefault(id(frame.payload), [frame.payload, 0])
            entry[1] += 1

    def _on_index(self, args, kwargs, result) -> None:
        self._indexes[id(args[0])] = args[0]

    def _on_run(self, args, kwargs, result) -> None:
        self._sims[id(args[0])] = args[0]

    # -- installation -----------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer's entry points (idempotent imports first, so
        every module binding a wrapped function is already loaded)."""
        import repro.continuous  # noqa: F401  (binds the continuous layer)
        import repro.protocol  # noqa: F401
        from repro.continuous.device import ContinuousDevice
        from repro.continuous.safe_region import SafeRegion
        from repro.continuous.subscription import SubscriptionRecord
        from repro.core import assembly
        from repro.net import mobility
        from repro.net.aodv import AodvRouter
        from repro.net.engine import Simulator
        from repro.net.spatial_index import NeighborIndex
        from repro.net.world import World
        from repro.protocol.device import BFDevice, DFDevice, SkylineDevice

        t = self.tracer
        t.wrap_method(SkylineDevice, "compute_local", "core.local",
                      self._on_local)
        asm = assembly.SkylineAssembler
        t.wrap_method(asm, "add", "core.assembly", self._on_add)
        t.wrap_method(asm, "add_batch", "core.assembly", self._on_add_batch)
        t.wrap_method(asm, "result", "core.assembly", self._on_result)
        t.wrap_function(assembly.merge_skylines, "core.assembly",
                        self._on_merge)
        for cls in (BFDevice, DFDevice, ContinuousDevice):
            for name in ("on_protocol_frame", "on_data", "issue_query"):
                t.wrap_method(cls, name, "protocol.device")
        t.wrap_method(SubscriptionRecord, "accept_delta", "continuous")
        t.wrap_method(SubscriptionRecord, "close_epoch", "continuous")
        t.wrap_method(SafeRegion, "silence_reason", "continuous",
                      self._on_silence)
        t.wrap_method(SkylineDevice, "apply_update", "faults.updates")
        t.wrap_method(AodvRouter, "handle_frame", "net.aodv", self._on_frame)
        for name in ("send_data", "learn_route", "has_route", "reset"):
            t.wrap_method(AodvRouter, name, "net.aodv")
        for name in ("send", "broadcast", "neighbors", "neighbor_map",
                     "in_range", "can_communicate", "reachable_from",
                     "connectivity_snapshot", "position", "positions",
                     "distance", "node_is_up",
                     "_deliver", "_deliver_wave", "_deliver_broadcast"):
            t.wrap_method(World, name, "net.world")
        for name in ("neighbors", "geometric_neighbors", "reachable_from",
                     "edges", "positions", "position", "invalidate"):
            t.wrap_method(NeighborIndex, name, "net.spatial_index",
                          self._on_index)
        for cls in vars(mobility).values():
            if isinstance(cls, type) and issubclass(cls, mobility.MobilityModel):
                for name in ("position", "positions", "advance"):
                    t.wrap_method(cls, name, "net.mobility")
        t.wrap_method(Simulator, "run", "net.engine", self._on_run)

    # -- results ------------------------------------------------------------------

    def metrics(self, traffic: Dict[str, int], reissues: int,
                untraced_wall_s: float) -> Dict[str, float]:
        """Per-layer values of one traced run, keyed as
        :func:`per_layer_names` lists them; ``traffic`` holds the run's
        summed radio counters."""
        t, c = self.tracer, self.counts
        hits = misses = 0
        for device in self._devices.values():
            cache = getattr(device, "local_cache", None)
            if cache is not None:
                hits += cache.hits
                misses += cache.misses
        data_rx = c["aodv_rx_data"]
        control_rx = c["aodv_rx_rreq"] + c["aodv_rx_rrep"] + c["aodv_rx_rerr"]
        events = sum(sim.events_fired for sim in self._sims.values())
        extra = {
            "core.local.rows_in": c["local_rows_in"],
            "core.local.rows_out": c["local_rows_out"],
            "core.local.cache_hit_ratio": _ratio(hits, hits + misses),
            "core.assembly.rows_in": c["asm_rows_in"],
            "core.assembly.rows_kept": c["asm_rows_kept"],
            "protocol.device.reissues": reissues,
            "continuous.silenced_ratio": _ratio(
                c["silenced"], c["silence_checks"]),
            "net.aodv.rreq_frames": c["aodv_rx_rreq"],
            "net.aodv.rrep_frames": c["aodv_rx_rrep"],
            "net.aodv.rerr_frames": c["aodv_rx_rerr"],
            "net.aodv.control_per_data": _ratio(control_rx, data_rx),
            "net.aodv.rerr_max_receipts": max(
                (n for _, n in self._rerr.values()), default=0),
            "net.world.transmissions": traffic["transmissions"],
            "net.world.deliveries": traffic["deliveries"],
            "net.world.drops": traffic["drops"],
            "net.world.bytes_sent": traffic["bytes_sent"],
            "net.spatial_index.rebuilds": sum(
                index.rebuilds for index in self._indexes.values()),
            "net.engine.events": events,
            "net.engine.events_per_s": events / untraced_wall_s,
            "trace.unattributed_s": t.unattributed_s,
            "trace.overhead_ratio": t.wall_s / untraced_wall_s,
        }
        out: Dict[str, float] = {}
        for name, _unit in per_layer_names():
            layer, _, metric = name.rpartition(".")
            if metric == "calls":
                out[name] = t.calls[layer]
            elif metric == "self_s":
                out[name] = t.self_s[layer]
            else:
                out[name] = extra[name]
        return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
