#!/usr/bin/env python
"""Benchmark for the world's connectivity and delivery hot paths.

Three sections, one JSON document (``BENCH_world.json``):

* ``micro`` — ``neighbors``, ``reachable_from``, and ``broadcast``
  throughput at m ∈ {20, 50, 100, 200} nodes under RandomWaypoint
  mobility: the production ``World`` (epoch-cached neighbor index)
  versus the scalar O(m²) oracle ``repro.net.reference.ScalarWorld``.
* ``end_to_end`` — full BF and DF query runs at m = 25 (wall-clock
  ``World`` vs ``ScalarWorld``, best-of-k, plus mean in-simulation
  response latency).
* ``scale`` — large-m BF flood runs: m = 2,025 on the production
  ``World`` (vectorised index build + wave delivery) versus
  ``repro.net.reference.ReferenceWorld`` (Python-loop index build +
  one event per receiver, the pre-scale-out hot loop), and a
  production-only m = 10,000 point. Nearly all of the m = 2,025
  speedup comes from the index build: at 10 s simulated, wave versus
  per-receiver delivery over the same vectorised index measured within
  about 10% of each other, while the loop build alone cost ~20x.

Usage::

    PYTHONPATH=src python benchmarks/bench_world.py            # full run
    PYTHONPATH=src python benchmarks/bench_world.py --smoke    # CI smoke
    PYTHONPATH=src python benchmarks/bench_world.py --profile profile.json
    PYTHONPATH=src python benchmarks/bench_world.py \
        --check BENCH_world.json [--baseline BENCH_world.json]

``--check`` validates an output file against the ``bench_world/v2``
schema and applies the perf gates — end-to-end cached speedup >= 1.0
and scale speedup over ``ReferenceWorld`` >= 5.0 — exiting non-zero
on any violation.
With ``--baseline`` it additionally fails when a speedup regressed to
less than half the baseline's (speedups are mode-relative ratios, so a
smoke run stays comparable against the committed full-run baseline).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Dict, List

SCHEMA_VERSION = "bench_world/v2"
SIZES = (20, 50, 100, 200)
MICRO_OPS = ("neighbors", "reachable_from", "broadcast")
#: Scale points; the ``ReferenceWorld`` run only happens at sizes
#: <= SCALE_REFERENCE_MAX — beyond that only the production path is
#: feasible.
SCALE_SIZES = (2025, 10000)
SCALE_SIZES_SMOKE = (2025,)
SCALE_REFERENCE_MAX = 2025
#: Perf gates applied by --check.
MIN_E2E_SPEEDUP = 1.0
MIN_SCALE_SPEEDUP = 5.0
#: Relative speedup tolerance for --check --baseline.
BASELINE_SPEEDUP_RATIO = 0.5


# -- world construction -----------------------------------------------------


class _SilentNode:
    """Attachable node that drops every delivered frame."""

    def __init__(self, node_id: int) -> None:
        self.node_id = node_id

    def on_frame(self, frame, sender) -> None:  # pragma: no cover - noop
        pass


def _build_world(m: int, seed: int, extent_side: float, world_cls):
    from repro.net import RadioConfig, RandomWaypoint, Simulator

    sim = Simulator()
    mobility = RandomWaypoint(
        node_count=m,
        extent=(0.0, 0.0, extent_side, extent_side),
        holding_time=30.0,
        seed=seed,
    )
    world = world_cls(sim, mobility, RadioConfig(radio_range=250.0),
                      seed=seed)
    for i in range(m):
        world.attach(_SilentNode(i))
    return sim, world


def _extent_side(m: int) -> float:
    # Density matters more than area: keep ~m/8 nodes per radio disk by
    # scaling the arena with sqrt(m), the regime the paper simulates.
    return 1000.0 * (m / 50.0) ** 0.5


# -- micro measurements -----------------------------------------------------


def _measure(fn, times, min_ops: int) -> Dict[str, float]:
    """Run ``fn(t)`` over the time grid until >= min_ops ops, timed."""
    ops = 0
    start = time.perf_counter()
    while ops < min_ops:
        for t in times:
            ops += fn(t)
            if ops >= min_ops:
                break
    elapsed = time.perf_counter() - start
    return {"ops": ops, "seconds": elapsed, "ops_per_s": ops / elapsed}


def bench_micro(m: int, smoke: bool) -> Dict[str, Dict[str, float]]:
    """One size point: cached vs uncached throughput for each operation."""
    from repro.net import Frame, FrameKind, World
    from repro.net.reference import ScalarWorld

    extent_side = _extent_side(m)
    n_times = 10 if smoke else 40
    budget = {
        "neighbors": (4 * m if smoke else 40 * m, 2 * m if smoke else 10 * m),
        "reachable_from": (8 if smoke else 60, 4 if smoke else 20),
        "broadcast": (2 * m if smoke else 20 * m, m if smoke else 5 * m),
    }
    times = [round(5.0 + 7.3 * k, 3) for k in range(n_times)]
    out: Dict[str, Dict[str, float]] = {}

    for op in MICRO_OPS:
        cached_ops, uncached_ops = budget[op]
        results = {}
        for label, min_ops, world_cls in (
            ("cached", cached_ops, World),
            ("uncached", uncached_ops, ScalarWorld),
        ):
            sim, world = _build_world(m, seed=1234, extent_side=extent_side,
                                      world_cls=world_cls)

            if op == "neighbors":
                def fn(t, sim=sim, world=world, m=m):
                    if sim.now < t:
                        sim.run(until=t)
                    for i in range(m):
                        world.neighbors(i)
                    return m
            elif op == "reachable_from":
                def fn(t, sim=sim, world=world, m=m):
                    if sim.now < t:
                        sim.run(until=t)
                    world.reachable_from(0)
                    world.reachable_from(m // 2)
                    return 2
            else:  # broadcast
                def fn(t, sim=sim, world=world, m=m):
                    if sim.now < t:
                        sim.run(until=t)
                    for src in range(0, m, 4):
                        world.broadcast(
                            Frame(kind=FrameKind.QUERY, src=src, dst=None,
                                  payload=None, size_bytes=32)
                        )
                    # Drain deliveries so the heap stays bounded.
                    sim.run()
                    return (m + 3) // 4

            results[label] = _measure(fn, times, min_ops)
        out[op] = {
            "cached_ops_per_s": results["cached"]["ops_per_s"],
            "uncached_ops_per_s": results["uncached"]["ops_per_s"],
            "speedup": (
                results["cached"]["ops_per_s"]
                / results["uncached"]["ops_per_s"]
            ),
        }
    return out


# -- end-to-end measurements ------------------------------------------------


def bench_end_to_end(smoke: bool) -> Dict[str, Dict[str, float]]:
    """Full BF/DF runs: wall time ``World`` (cached) vs ``ScalarWorld``
    (uncached), plus sim latency.

    Wall times are the best of ``reps`` repeats per mode — the runs are
    seed-deterministic, so the minimum isolates machine noise and keeps
    the cached/uncached ratio stable enough to gate on.
    """
    from repro.data import make_global_dataset, generate_workload
    from repro.net import World
    from repro.net.reference import ScalarWorld
    from repro.protocol import SimulationConfig, run_manet_simulation

    devices = 9 if smoke else 25
    cardinality = 600 if smoke else 2000
    sim_time = 150.0 if smoke else 400.0
    reps = 2 if smoke else 3
    dataset = make_global_dataset(
        cardinality, 2, devices, "independent", seed=7, value_step=1.0
    )
    workload = generate_workload(
        devices=devices, sim_time=sim_time, distance=500.0,
        queries_per_device=(1, 1) if smoke else (1, 2), seed=8,
    )
    # Throwaway warmup so import/JIT costs don't bias whichever mode
    # happens to run first.
    warm_ds = make_global_dataset(200, 2, 4, "independent", seed=1,
                                  value_step=1.0)
    warm_wl = generate_workload(devices=4, sim_time=30.0, distance=400.0,
                                queries_per_device=(1, 1), seed=2)
    run_manet_simulation(
        warm_ds, warm_wl, SimulationConfig(strategy="bf", sim_time=30.0, seed=3)
    )

    out: Dict[str, Dict[str, float]] = {}
    for strategy in ("bf", "df"):
        base = SimulationConfig(strategy=strategy, sim_time=sim_time, seed=9)
        entry: Dict[str, float] = {"reps": float(reps)}
        latencies: List[float] = []
        for cached, world_cls in ((True, World), (False, ScalarWorld)):
            wall = float("inf")
            for _ in range(reps):
                start = time.perf_counter()
                result = run_manet_simulation(dataset, workload, base,
                                              world_cls=world_cls)
                wall = min(wall, time.perf_counter() - start)
            entry["wall_s_cached" if cached else "wall_s_uncached"] = wall
            if cached:
                latencies = [
                    r.completion_time - r.issue_time
                    for r in result.completed
                ]
                entry["queries_completed"] = float(len(latencies))
        entry["wall_speedup"] = entry["wall_s_uncached"] / entry["wall_s_cached"]
        entry["mean_response_s"] = (
            sum(latencies) / len(latencies) if latencies else 0.0
        )
        out[strategy] = entry
    return out


# -- scale measurements ------------------------------------------------------


def _scale_config(sim_time: float):
    from repro.protocol import SimulationConfig
    from repro.protocol.device import ProtocolConfig

    # Result ACKs route originator -> replier and would trigger a
    # network-wide AODV discovery flood per distant replier; at these
    # sizes that measures routing pathology, not delivery throughput.
    # The quorum is lowered so the flood's reachable set completes the
    # query even when the geometric graph is not fully connected.
    return SimulationConfig(
        strategy="bf", sim_time=sim_time, drain_time=sim_time,
        seed=9,
        protocol=ProtocolConfig(result_ack=False, completion_quorum=0.45),
    )


def bench_scale(m: int, smoke: bool, profiler=None) -> Dict[str, float]:
    """One large-m BF flood: the production world, and the
    ``ReferenceWorld`` oracle when the size still permits it."""
    from contextlib import nullcontext

    from repro.data import QueryRequest, make_global_dataset
    from repro.net import World
    from repro.net.reference import ReferenceWorld
    from repro.protocol import run_manet_simulation
    from repro.storage.schema import uniform_schema

    def phase(name):
        return profiler.phase(name) if profiler is not None else nullcontext()

    side = _extent_side(m)
    sim_time = 10.0 if smoke else 30.0
    with phase(f"scale.dataset.m{m}"):
        schema = uniform_schema(2, spatial_extent=(0.0, 0.0, side, side))
        dataset = make_global_dataset(
            2 * m, 2, m, "independent", schema=schema, seed=7, value_step=1.0
        )
    workload = [QueryRequest(device=0, time=1.0, distance=2 * side)]

    entry: Dict[str, float] = {"sim_time": sim_time}
    runs = [("wave", World)]
    if m <= SCALE_REFERENCE_MAX:
        runs.append(("reference", ReferenceWorld))
    parity = {}
    config = _scale_config(sim_time)
    for label, world_cls in runs:
        with phase(f"scale.{label}.m{m}"):
            start = time.perf_counter()
            result = run_manet_simulation(dataset, workload, config,
                                          world_cls=world_cls)
            wall = time.perf_counter() - start
        entry[f"wall_s_{label}"] = wall
        entry[f"events_{label}"] = float(result.events)
        parity[label] = (
            result.traffic.transmissions,
            result.traffic.deliveries,
            result.traffic.drops,
        )
        if label == "wave":
            entry["transmissions"] = float(result.traffic.transmissions)
            entry["deliveries"] = float(result.traffic.deliveries)
            entry["contributions"] = float(
                len(result.records[0].contributions) if result.records else 0
            )
            entry["queries_completed"] = float(len(result.completed))
    if "wall_s_reference" in entry:
        if parity["wave"] != parity["reference"]:  # pragma: no cover
            raise AssertionError(
                f"wave/reference traffic diverged at m={m}: {parity}"
            )
        entry["speedup"] = entry["wall_s_reference"] / entry["wall_s_wave"]
    return entry


# -- schema -----------------------------------------------------------------


def _scale_sizes(smoke: bool):
    return SCALE_SIZES_SMOKE if smoke else SCALE_SIZES


def validate(doc: dict) -> List[str]:
    """Schema check; returns a list of violations (empty == valid)."""
    errors: List[str] = []

    def num(x) -> bool:
        return isinstance(x, (int, float)) and not isinstance(x, bool)

    if doc.get("schema") != SCHEMA_VERSION:
        errors.append(f"schema must be {SCHEMA_VERSION!r}")
    if not isinstance(doc.get("smoke"), bool):
        errors.append("smoke must be a bool")
        return errors
    if doc.get("sizes") != list(SIZES):
        errors.append(f"sizes must be {list(SIZES)}")
    micro = doc.get("micro")
    if not isinstance(micro, dict):
        errors.append("micro must be an object")
        micro = {}
    for op in MICRO_OPS:
        per_op = micro.get(op)
        if not isinstance(per_op, dict):
            errors.append(f"micro.{op} missing")
            continue
        for m in SIZES:
            point = per_op.get(str(m))
            if not isinstance(point, dict):
                errors.append(f"micro.{op}.{m} missing")
                continue
            for field in ("cached_ops_per_s", "uncached_ops_per_s", "speedup"):
                if not num(point.get(field)) or point.get(field) <= 0:
                    errors.append(f"micro.{op}.{m}.{field} must be > 0")
    e2e = doc.get("end_to_end")
    if not isinstance(e2e, dict):
        errors.append("end_to_end must be an object")
        e2e = {}
    for strategy in ("bf", "df"):
        entry = e2e.get(strategy)
        if not isinstance(entry, dict):
            errors.append(f"end_to_end.{strategy} missing")
            continue
        for field in ("wall_s_cached", "wall_s_uncached", "wall_speedup",
                      "mean_response_s", "queries_completed", "reps"):
            if not num(entry.get(field)):
                errors.append(f"end_to_end.{strategy}.{field} must be numeric")
    expected_scale = [str(m) for m in _scale_sizes(doc.get("smoke", False))]
    scale = doc.get("scale")
    if not isinstance(scale, dict):
        errors.append("scale must be an object")
        scale = {}
    if sorted(scale) != sorted(expected_scale):
        errors.append(f"scale must have exactly the points {expected_scale}")
    for key in expected_scale:
        point = scale.get(key)
        if not isinstance(point, dict):
            continue
        for field in ("sim_time", "wall_s_wave", "events_wave",
                      "transmissions", "deliveries"):
            if not num(point.get(field)) or point.get(field) <= 0:
                errors.append(f"scale.{key}.{field} must be > 0")
        if int(key) <= SCALE_REFERENCE_MAX:
            for field in ("wall_s_reference", "events_reference", "speedup"):
                if not num(point.get(field)) or point.get(field) <= 0:
                    errors.append(f"scale.{key}.{field} must be > 0")
    return errors


def gate(doc: dict) -> List[str]:
    """Perf gates on a schema-valid document (the CI regression check).

    The end-to-end speedup gate applies to full runs only: a smoke
    run's e2e section finishes in tens of milliseconds, where fixed
    index-setup costs swamp the cached/uncached ratio.
    """
    errors: List[str] = []
    if not doc.get("smoke", False):
        for strategy in ("bf", "df"):
            speedup = doc["end_to_end"].get(strategy, {}).get("wall_speedup")
            if isinstance(speedup, (int, float)) and speedup < MIN_E2E_SPEEDUP:
                errors.append(
                    f"end_to_end.{strategy}.wall_speedup {speedup:.2f} < "
                    f"{MIN_E2E_SPEEDUP} (cached path slower than uncached)"
                )
    for key, point in doc.get("scale", {}).items():
        speedup = point.get("speedup")
        if isinstance(speedup, (int, float)) and speedup < MIN_SCALE_SPEEDUP:
            errors.append(
                f"scale.{key}.speedup {speedup:.2f} < {MIN_SCALE_SPEEDUP} "
                f"(vectorised index build + wave delivery lost its edge "
                f"over the loop-built index + per-receiver delivery)"
            )
    return errors


def compare_baseline(doc: dict, baseline: dict) -> List[str]:
    """Speedup-ratio regression check against a baseline document.

    Speedups are relative (cached/uncached, wave/reference) so a smoke
    run remains comparable to the committed full-run baseline even
    though absolute wall times differ.
    """
    errors: List[str] = []

    def check(label: str, new, old) -> None:
        if not isinstance(new, (int, float)) or not isinstance(old, (int, float)):
            return
        if new < old * BASELINE_SPEEDUP_RATIO:
            errors.append(
                f"{label} speedup {new:.2f} < {BASELINE_SPEEDUP_RATIO} x "
                f"baseline {old:.2f}"
            )

    # Only the largest micro size carries enough signal to compare — a
    # smoke run's small-m points are single-digit-millisecond samples.
    m = SIZES[-1]
    for op in MICRO_OPS:
        check(
            f"micro.{op}.{m}",
            doc["micro"].get(op, {}).get(str(m), {}).get("speedup"),
            baseline["micro"].get(op, {}).get(str(m), {}).get("speedup"),
        )
    for key in doc.get("scale", {}):
        check(
            f"scale.{key}",
            doc["scale"][key].get("speedup"),
            baseline.get("scale", {}).get(key, {}).get("speedup"),
        )
    return errors


# -- entry point ------------------------------------------------------------


def run(smoke: bool, profiler=None) -> dict:
    from contextlib import nullcontext

    def phase(name):
        return profiler.phase(name) if profiler is not None else nullcontext()

    doc = {
        "schema": SCHEMA_VERSION,
        "smoke": smoke,
        "radio_range": 250.0,
        "sizes": list(SIZES),
        "scale_sizes": list(_scale_sizes(smoke)),
        "micro": {op: {} for op in MICRO_OPS},
        "end_to_end": {},
        "scale": {},
    }
    for m in SIZES:
        print(f"micro m={m} ...", file=sys.stderr)
        with phase(f"micro.m{m}"):
            point = bench_micro(m, smoke)
        for op in MICRO_OPS:
            doc["micro"][op][str(m)] = point[op]
    print("end-to-end bf/df ...", file=sys.stderr)
    with phase("end_to_end"):
        doc["end_to_end"] = bench_end_to_end(smoke)
    for m in _scale_sizes(smoke):
        print(f"scale m={m} ...", file=sys.stderr)
        doc["scale"][str(m)] = bench_scale(m, smoke, profiler=profiler)
    return doc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="small, fast CI variant (same schema; the "
                             "scale section keeps m=2025 at reduced "
                             "duration and skips m=10000)")
    parser.add_argument("--out", default="BENCH_world.json",
                        help="output path (default: BENCH_world.json)")
    parser.add_argument("--check", metavar="FILE",
                        help="validate an existing output file, apply the "
                             "perf gates, and exit")
    parser.add_argument("--baseline", metavar="FILE",
                        help="with --check: also fail when a speedup "
                             "regressed below half the baseline's")
    parser.add_argument("--profile", metavar="FILE",
                        help="write a phase-profile JSON of the run "
                             "(CI artifact)")
    args = parser.parse_args(argv)

    if args.check:
        with open(args.check) as fh:
            doc = json.load(fh)
        errors = validate(doc)
        if not errors:
            errors += gate(doc)
            if args.baseline:
                with open(args.baseline) as fh:
                    base = json.load(fh)
                errors += [f"schema violation in baseline: {e}"
                           for e in validate(base)]
                if not errors:
                    errors += compare_baseline(doc, base)
        if errors:
            for err in errors:
                print(f"bench gate violation: {err}", file=sys.stderr)
            return 1
        r200 = doc["micro"]["reachable_from"]["200"]["speedup"]
        scale_bits = ", ".join(
            f"m={key}: {point['wall_s_wave']:.1f}s wave"
            + (f" ({point['speedup']:.1f}x)" if "speedup" in point else "")
            for key, point in sorted(doc["scale"].items(), key=lambda kv: int(kv[0]))
        )
        print(f"{args.check}: valid ({SCHEMA_VERSION}); "
              f"reachable_from speedup at m=200: {r200:.1f}x; "
              f"scale: {scale_bits}"
              + ("; baseline within tolerance" if args.baseline else ""))
        return 0

    profiler = None
    if args.profile:
        from repro.obs import PhaseProfiler

        profiler = PhaseProfiler()
    doc = run(smoke=args.smoke, profiler=profiler)
    errors = validate(doc)
    if errors:  # pragma: no cover - self-check
        for err in errors:
            print(f"internal schema violation: {err}", file=sys.stderr)
        return 1
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if args.profile:
        with open(args.profile, "w") as fh:
            json.dump(profiler.to_bench_json(smoke=args.smoke), fh, indent=2,
                      sort_keys=True)
            fh.write("\n")
        print(profiler.render(), file=sys.stderr)
    for op in MICRO_OPS:
        speedups = ", ".join(
            f"m={m}: {doc['micro'][op][str(m)]['speedup']:.1f}x"
            for m in SIZES
        )
        print(f"{op:>15}: {speedups}")
    for strategy in ("bf", "df"):
        entry = doc["end_to_end"][strategy]
        print(f"{strategy:>15}: wall {entry['wall_s_cached']:.2f}s cached vs "
              f"{entry['wall_s_uncached']:.2f}s uncached "
              f"({entry['wall_speedup']:.1f}x), "
              f"mean response {entry['mean_response_s']:.3f}s over "
              f"{int(entry['queries_completed'])} queries")
    for key, point in sorted(doc["scale"].items(), key=lambda kv: int(kv[0])):
        line = (f"{'scale m=' + key:>15}: wave {point['wall_s_wave']:.2f}s, "
                f"{int(point['transmissions'])} tx, "
                f"{int(point['deliveries'])} deliveries")
        if "speedup" in point:
            line += (f"; reference {point['wall_s_reference']:.2f}s "
                     f"({point['speedup']:.1f}x)")
        print(line)
    gates = gate(doc)
    if gates:
        for err in gates:
            print(f"bench gate violation: {err}", file=sys.stderr)
        return 1
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
