#!/usr/bin/env python
"""Microbenchmark for result assembly and the device-side result cache.

Measures two layers:

* ``assembler`` — the incremental
  :class:`~repro.core.assembly.SkylineAssembler` against the ``legacy``
  oracle, fed identical per-device skyline partials (anti-correlated,
  d=4, >= 5k accumulated rows). ``legacy`` rebuilds the whole running
  skyline on every merge (the linear accumulate-and-merge the paper's
  originator performs — every incoming row is compared against the
  entire running result); ``incremental`` keeps running arrays and
  avoids the rebuild. The headline ``speedup_vs_legacy`` gate holds
  incremental >= 3x over legacy. Both modes are asserted bit-identical.

* ``cache`` — the per-device skyline-diagram cache
  (:class:`~repro.core.local.LocalResultCache`):

  - micro: repeated ``compute_local`` on one device, cache hit vs the
    uncached recompute (``lookup_speedup`` gate);
  - end-to-end: a re-flood continuous run, where every epoch re-issues
    the same query signature — the committed ``hit_rate`` must be > 0.

Emits ``BENCH_merge.json``.

Usage::

    PYTHONPATH=src python benchmarks/bench_merge.py            # full run
    PYTHONPATH=src python benchmarks/bench_merge.py --smoke    # CI smoke
    PYTHONPATH=src python benchmarks/bench_merge.py --check BENCH_merge.json
    PYTHONPATH=src python benchmarks/bench_merge.py \
        --check new.json --baseline BENCH_merge.json

``--check`` validates an output file against the schema — including
the speedup and hit-rate gates — and exits non-zero on any violation.
With ``--baseline``, it additionally fails when the new ``small``-scale
assembler wall times regress more than 2x against the baseline file
(the CI job's perf gate: the ``small`` scale is identical in smoke and
full runs, so a committed full-run baseline is comparable with a CI
smoke run).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Dict, List

SCHEMA_VERSION = "bench_merge/v2"
SCALES = ("small", "large")
#: (cardinality, devices) per scale; devices must be a perfect square.
SCALE_SHAPES = {"small": (20000, 36), "large": (120000, 64)}
ASSEMBLER_FIELDS = (
    "accumulated_rows", "final_rows", "wall_s_legacy",
    "wall_s_incremental", "speedup_vs_legacy",
)
#: Headline gate: incremental vs the legacy linear accumulate-and-merge.
SPEEDUP_GATE = 3.0
#: The assembler scales must accumulate at least this many partial rows.
MIN_ACCUMULATED_ROWS = 5000
#: Cache micro gate: a hit must beat the uncached recompute by >= 2x.
LOOKUP_GATE = 2.0
#: Wall-time regression tolerance for --check --baseline.
REGRESSION_FACTOR = 2.0


# -- fixtures ----------------------------------------------------------------


def _partials(scale: str):
    """Per-device local skylines over an anti-correlated d=4 dataset.

    This is exactly what the originator assembles in a full run: each
    device reduces its partition to a local skyline and ships it; the
    accumulated rows across partials are what the assembler must merge.
    """
    from repro.core.skyline import skyline_of_relation
    from repro.data import make_global_dataset

    cardinality, devices = SCALE_SHAPES[scale]
    dataset = make_global_dataset(
        cardinality, 4, devices, "anticorrelated", seed=29, value_step=0.01
    )
    partials = [skyline_of_relation(dataset.local(i)) for i in range(devices)]
    return dataset.schema, partials


def _rows(relation):
    """Canonical row tuples for bit-identity assertions."""
    return [
        (tuple(xy), tuple(vals), int(sid))
        for xy, vals, sid in zip(
            relation.xy.tolist(),
            relation.values.tolist(),
            relation.site_ids.tolist(),
        )
    ]


# -- assembler ---------------------------------------------------------------


def bench_assembler(scale: str) -> Dict[str, float]:
    """Stream the partials through both modes; assert identity."""
    from repro.core.assembly import SkylineAssembler

    schema, partials = _partials(scale)
    accumulated = sum(p.cardinality for p in partials)

    def stream(mode: str):
        asm = SkylineAssembler(schema, mode=mode)
        start = time.perf_counter()
        for partial in partials:
            asm.add(partial)
        wall = time.perf_counter() - start
        return asm.result(), wall

    stream("incremental")  # warmup: touches every partial once off-clock
    results = {}
    entry: Dict[str, float] = {
        "accumulated_rows": float(accumulated),
    }
    for mode in ("legacy", "incremental"):
        results[mode], entry[f"wall_s_{mode}"] = stream(mode)

    if _rows(results["incremental"]) != _rows(results["legacy"]):
        raise AssertionError(  # pragma: no cover - self-check
            "incremental assembler is not bit-identical to legacy"
        )
    entry["final_rows"] = float(results["legacy"].cardinality)
    entry["speedup_vs_legacy"] = (
        entry["wall_s_legacy"] / entry["wall_s_incremental"]
    )
    return entry


# -- cache -------------------------------------------------------------------


def _cache_device(local_cache: bool):
    """One hybrid-storage device in a tiny world, plus an in-range query."""
    from repro.core.query import SkylineQuery
    from repro.data import make_global_dataset
    from repro.protocol import ProtocolConfig, SimulationConfig
    from repro.protocol.coordinator import build_network

    dataset = make_global_dataset(
        9000, 4, 9, "anticorrelated", seed=31, value_step=1.0
    )
    config = SimulationConfig(
        strategy="bf", sim_time=10.0, seed=5,
        protocol=ProtocolConfig(
            processor="hybrid", local_cache=local_cache,
        ),
    )
    _sim, _world, devices = build_network(dataset, config)
    query = SkylineQuery(origin=0, cnt=0, pos=(500.0, 500.0), d=1.0e12)
    return devices[0], query


def _throughput(fn, min_ops: int) -> float:
    """ops/s of ``fn()`` repeated until >= min_ops calls."""
    fn()  # warmup
    ops = 0
    start = time.perf_counter()
    while ops < min_ops:
        fn()
        ops += 1
    return ops / (time.perf_counter() - start)


def bench_cache_micro(smoke: bool) -> Dict[str, float]:
    """Cache hit vs uncached recompute on a repeated identical query."""
    min_ops = 5 if smoke else 20
    device_off, query = _cache_device(local_cache=False)
    miss_ops = _throughput(
        lambda: device_off.compute_local(query, None), min_ops
    )
    device_on, query = _cache_device(local_cache=True)
    device_on.compute_local(query, None)  # populate the cache
    hit_ops = _throughput(
        lambda: device_on.compute_local(query, None), max(min_ops, 200)
    )
    return {
        "uncached_ops_per_s": miss_ops,
        "hit_ops_per_s": hit_ops,
        "lookup_speedup": hit_ops / miss_ops,
        "hits": float(device_on.local_cache.hits),
    }


def bench_cache_e2e() -> Dict[str, float]:
    """Re-flood continuous run: every epoch repeats the query signature."""
    from repro.continuous import ContinuousConfig, run_continuous_simulation

    config = ContinuousConfig(mode="reflood", epochs=6, data_updates=4, seed=7)
    start = time.perf_counter()
    result = run_continuous_simulation(config, keep_network=True)
    wall = time.perf_counter() - start
    stats = result.local_cache_stats
    return {
        "wall_s": wall,
        "hits": float(stats["hits"]),
        "misses": float(stats["misses"]),
        "invalidations": float(stats["invalidations"]),
        "hit_rate": stats["hit_rate"],
    }


# -- schema ------------------------------------------------------------------


def validate(doc: dict) -> List[str]:
    """Schema + gate check; returns a list of violations (empty == valid)."""
    errors: List[str] = []

    def num(x) -> bool:
        return isinstance(x, (int, float)) and not isinstance(x, bool)

    if doc.get("schema") != SCHEMA_VERSION:
        errors.append(f"schema must be {SCHEMA_VERSION!r}")
    smoke = doc.get("smoke")
    if not isinstance(smoke, bool):
        errors.append("smoke must be a bool")
        smoke = True
    required_scales = ("small",) if smoke else SCALES
    assembler = doc.get("assembler")
    if not isinstance(assembler, dict):
        errors.append("assembler must be an object")
        assembler = {}
    for scale in required_scales:
        entry = assembler.get(scale)
        if not isinstance(entry, dict):
            errors.append(f"assembler.{scale} missing")
            continue
        for field in ASSEMBLER_FIELDS:
            if not num(entry.get(field)) or entry.get(field) <= 0:
                errors.append(f"assembler.{scale}.{field} must be > 0")
        if not all(num(entry.get(f)) for f in ASSEMBLER_FIELDS):
            continue
        if entry["accumulated_rows"] < MIN_ACCUMULATED_ROWS:
            errors.append(
                f"assembler.{scale}.accumulated_rows "
                f"{entry['accumulated_rows']:.0f} < {MIN_ACCUMULATED_ROWS}"
            )
        if entry["speedup_vs_legacy"] < SPEEDUP_GATE:
            errors.append(
                f"assembler.{scale}.speedup_vs_legacy "
                f"{entry['speedup_vs_legacy']:.2f}x < {SPEEDUP_GATE:.0f}x gate"
            )
    cache = doc.get("cache")
    if not isinstance(cache, dict):
        errors.append("cache must be an object")
        cache = {}
    micro = cache.get("micro")
    if not isinstance(micro, dict):
        errors.append("cache.micro missing")
    else:
        for field in ("uncached_ops_per_s", "hit_ops_per_s",
                      "lookup_speedup", "hits"):
            if not num(micro.get(field)) or micro.get(field) <= 0:
                errors.append(f"cache.micro.{field} must be > 0")
        speedup = micro.get("lookup_speedup")
        if num(speedup) and speedup < LOOKUP_GATE:
            errors.append(
                f"cache.micro.lookup_speedup {speedup:.2f}x < "
                f"{LOOKUP_GATE:.0f}x gate"
            )
    e2e = cache.get("end_to_end")
    if not isinstance(e2e, dict):
        errors.append("cache.end_to_end missing")
    else:
        for field in ("wall_s", "hits", "misses", "invalidations",
                      "hit_rate"):
            if not num(e2e.get(field)):
                errors.append(f"cache.end_to_end.{field} must be numeric")
        hit_rate = e2e.get("hit_rate")
        if num(hit_rate) and hit_rate <= 0.0:
            errors.append(
                "cache.end_to_end.hit_rate must be > 0 on the repeated-"
                "query re-flood workload"
            )
    return errors


def compare_baseline(doc: dict, baseline: dict) -> List[str]:
    """Perf-gate comparison on the shared ``small`` assembler scale."""
    field = "wall_s_incremental"
    try:
        new = doc["assembler"]["small"][field]
        old = baseline["assembler"]["small"][field]
    except (KeyError, TypeError):
        return [f"assembler.small.{field} missing on one side"]
    if new > REGRESSION_FACTOR * old:
        return [
            f"assembler.small.{field}: {new:.2f}s vs baseline "
            f"{old:.2f}s (> {REGRESSION_FACTOR:.0f}x regression)"
        ]
    return []


# -- entry point -------------------------------------------------------------


def run(smoke: bool) -> dict:
    doc = {
        "schema": SCHEMA_VERSION,
        "smoke": smoke,
        "assembler": {},
        "cache": {},
    }
    for scale in ("small",) if smoke else SCALES:
        print(f"assembler {scale} ...", file=sys.stderr)
        doc["assembler"][scale] = bench_assembler(scale)
    print("cache micro ...", file=sys.stderr)
    doc["cache"]["micro"] = bench_cache_micro(smoke)
    print("cache end-to-end ...", file=sys.stderr)
    doc["cache"]["end_to_end"] = bench_cache_e2e()
    return doc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="small, fast CI variant (same schema)")
    parser.add_argument("--out", default="BENCH_merge.json",
                        help="output path (default: BENCH_merge.json)")
    parser.add_argument("--check", metavar="FILE",
                        help="validate an existing output file and exit")
    parser.add_argument("--baseline", metavar="FILE",
                        help=("with --check: fail if small-scale assembler "
                              f"wall times regress > {REGRESSION_FACTOR:.0f}x "
                              "vs this file"))
    args = parser.parse_args(argv)

    if args.check:
        with open(args.check) as fh:
            doc = json.load(fh)
        errors = validate(doc)
        if args.baseline:
            with open(args.baseline) as fh:
                base = json.load(fh)
            errors += [f"schema violation in baseline: {e}"
                       for e in validate(base)]
            if not errors:
                errors += compare_baseline(doc, base)
        if errors:
            for err in errors:
                print(f"check failure: {err}", file=sys.stderr)
            return 1
        gate_scale = "small" if doc.get("smoke") else "large"
        speedup = doc["assembler"][gate_scale]["speedup_vs_legacy"]
        hit_rate = doc["cache"]["end_to_end"]["hit_rate"]
        print(f"{args.check}: valid ({SCHEMA_VERSION}); incremental vs "
              f"legacy at {gate_scale} scale: {speedup:.1f}x; continuous "
              f"cache hit rate: {hit_rate:.2f}"
              + ("; baseline wall times within tolerance"
                 if args.baseline else ""))
        return 0

    doc = run(smoke=args.smoke)
    errors = validate(doc)
    if errors:  # pragma: no cover - self-check
        for err in errors:
            print(f"internal schema violation: {err}", file=sys.stderr)
        return 1
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for scale, entry in doc["assembler"].items():
        print(f"assembler {scale}: {entry['accumulated_rows']:.0f} rows "
              f"accumulated -> {entry['final_rows']:.0f}; incremental "
              f"{entry['wall_s_incremental']:.3f}s vs legacy "
              f"{entry['wall_s_legacy']:.3f}s "
              f"({entry['speedup_vs_legacy']:.1f}x)")
    micro = doc["cache"]["micro"]
    e2e = doc["cache"]["end_to_end"]
    print(f"cache micro: hit {micro['hit_ops_per_s']:.0f} ops/s vs uncached "
          f"{micro['uncached_ops_per_s']:.0f} ops/s "
          f"({micro['lookup_speedup']:.0f}x)")
    print(f"cache e2e: hit rate {e2e['hit_rate']:.2f} "
          f"({e2e['hits']:.0f} hits / {e2e['misses']:.0f} misses, "
          f"{e2e['invalidations']:.0f} invalidations)")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
