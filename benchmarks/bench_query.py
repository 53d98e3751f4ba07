#!/usr/bin/env python
"""Microbenchmark for the query hot path.

Measures the fast query-path pieces against their pre-optimisation
reference behaviour:

* ``normalized_values`` — cached read-only view vs the per-call
  copy-and-negate loop it replaced;
* ``local_skyline`` — :func:`local_skyline_vectorized` on a reused
  relation (cached normalization/bounds) vs a fresh relation per call
  (every derived quantity recomputed);
* ``assembler`` — the incremental segment-based
  :class:`~repro.core.assembly.SkylineAssembler` vs the legacy
  rebuild-per-contribution mode, fed the same device partials;

plus end-to-end BF and DF simulation runs (incremental vs legacy
assembler) at two scales on anti-correlated data, where result assembly
is a dominant cost. Emits ``BENCH_query.json``.

Usage::

    PYTHONPATH=src python benchmarks/bench_query.py            # full run
    PYTHONPATH=src python benchmarks/bench_query.py --smoke    # CI smoke
    PYTHONPATH=src python benchmarks/bench_query.py --check BENCH_query.json
    PYTHONPATH=src python benchmarks/bench_query.py \
        --check new.json --baseline BENCH_query.json

``--check`` validates an output file against the schema and exits
non-zero on any violation. With ``--baseline``, it additionally fails
when the new end-to-end ``small``-scale wall times regress more than
2x against the baseline file (the CI job's perf gate: the ``small``
scale is identical in smoke and full runs, so a committed full-run
baseline is comparable with a CI smoke run).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Dict, List

SCHEMA_VERSION = "bench_query/v1"
SIZES = (500, 2000, 8000)
MICRO_OPS = ("normalized_values", "local_skyline", "assembler")
MICRO_FIELDS = ("fast_ops_per_s", "baseline_ops_per_s", "speedup")
E2E_SCALES = ("small", "large")
#: Wall-time regression tolerance for --check --baseline.
REGRESSION_FACTOR = 2.0

_DEVICES = 64  # partials per assembly round in the assembler micro


# -- fixtures ----------------------------------------------------------------


def _mixed_relation(n: int, seed: int):
    """Anti-correlated relation with a mixed MIN/MAX schema.

    A MAX attribute forces ``normalized_values`` off its all-MIN
    shortcut, so the micro measures the negation path that was
    rewritten.
    """
    import numpy as np

    from repro.storage.relation import Relation
    from repro.storage.schema import AttributeSpec, Preference, RelationSchema

    rng = np.random.default_rng(seed)
    base = rng.uniform(0.0, 100.0, size=n)
    values = np.column_stack([
        base + rng.normal(0.0, 8.0, size=n),
        100.0 - base + rng.normal(0.0, 8.0, size=n),
    ])
    schema = RelationSchema(
        attributes=(
            AttributeSpec("price", -100.0, 300.0, Preference.MIN),
            AttributeSpec("rating", -100.0, 300.0, Preference.MAX),
        )
    )
    xy = rng.uniform(0.0, 1000.0, size=(n, 2))
    site_ids = np.arange(n, dtype=np.int64)
    return Relation(schema, xy, values, site_ids)


def _partials(n: int, seed: int):
    """Overlapping filtered contributions drawn from one Pareto front.

    The regime result assembly actually faces: filtering keeps each
    device's transmitted ``SK'_i`` small, partials from neighbouring
    devices overlap (shared sites must be eliminated by exact location,
    Section 4.3), and on anti-correlated data the accumulated skyline on
    the originator grows large. A strict 2-D front (first attribute
    increasing, second decreasing) means no tuple ever dominates
    another, so the running result reaches its worst-case size.
    """
    import numpy as np

    from repro.storage.relation import Relation
    from repro.storage.schema import AttributeSpec, RelationSchema

    rng = np.random.default_rng(seed)
    firsts = np.cumsum(rng.uniform(0.01, 1.0, size=n))
    seconds = np.cumsum(rng.uniform(0.01, 1.0, size=n))[::-1].copy()
    values = np.column_stack([firsts, seconds])
    xy = rng.uniform(0.0, 1000.0, size=(n, 2))
    site_ids = np.arange(n, dtype=np.int64)
    high = float(max(firsts[-1], seconds[0])) + 1.0
    schema = RelationSchema(
        attributes=(
            AttributeSpec("p1", 0.0, high),
            AttributeSpec("p2", 0.0, high),
        )
    )
    size = max(8, n // 500)
    partials = []
    for _ in range(_DEVICES):
        idx = np.sort(rng.choice(n, size=size, replace=False))
        partials.append(Relation(schema, xy[idx], values[idx], site_ids[idx]))
    return schema, partials


# -- micro measurements ------------------------------------------------------


def _throughput(fn, min_ops: int) -> float:
    """ops/s of ``fn() -> ops`` repeated until >= min_ops total ops."""
    fn()  # warmup: fills caches / touches memory once outside the clock
    ops = 0
    start = time.perf_counter()
    while ops < min_ops:
        ops += fn()
    return ops / (time.perf_counter() - start)


def _baseline_normalized(rel):
    """The pre-cache implementation: copy, then negate MAX columns one
    at a time, on every call."""
    from repro.storage.schema import Preference

    vals = rel.values.copy()
    for j, attr in enumerate(rel.schema.attributes):
        if attr.preference is Preference.MAX:
            vals[:, j] = -vals[:, j]
    return vals


def bench_normalized_values(n: int, smoke: bool) -> Dict[str, float]:
    import numpy as np

    rel = _mixed_relation(n, seed=42)
    if not np.array_equal(rel.normalized_values(), _baseline_normalized(rel)):
        raise AssertionError(  # pragma: no cover - self-check
            "normalized_values parity failure"
        )

    def fast():
        rel.normalized_values()
        return 1

    def baseline():
        _baseline_normalized(rel)
        return 1

    fast_ops = _throughput(fast, 200 if smoke else 5000)
    base_ops = _throughput(baseline, 50 if smoke else 1000)
    return _micro_entry(fast_ops, base_ops)


def bench_local_skyline(n: int, smoke: bool) -> Dict[str, float]:
    from repro.core.local import local_skyline_vectorized
    from repro.core.query import SkylineQuery
    from repro.storage.relation import Relation

    rel = _mixed_relation(n, seed=43)
    query = SkylineQuery(origin=0, cnt=0, pos=(500.0, 500.0), d=1.0e12)

    def fast():
        local_skyline_vectorized(rel, query, None)
        return 1

    def baseline():
        # A fresh Relation per query discards every derived cache, the
        # pre-optimisation behaviour of repeated queries on one device.
        fresh = Relation(rel.schema, rel.xy, rel.values, rel.site_ids)
        local_skyline_vectorized(fresh, query, None)
        return 1

    min_ops = (20, 10) if smoke else (400, 200)
    return _micro_entry(
        _throughput(fast, min_ops[0]), _throughput(baseline, min_ops[1])
    )


def bench_assembler(n: int, smoke: bool) -> Dict[str, float]:
    import numpy as np

    from repro.core.assembly import SkylineAssembler

    schema, partials = _partials(n, seed=44)

    def assemble(mode: str):
        asm = SkylineAssembler(schema, mode=mode)
        for sky in partials:
            asm.add(sky)
        return asm.result()

    fast_result = assemble("incremental")
    base_result = assemble("legacy")
    same = (
        np.array_equal(fast_result.xy, base_result.xy)
        and np.array_equal(fast_result.values, base_result.values)
        and np.array_equal(fast_result.site_ids, base_result.site_ids)
    )
    if not same:  # pragma: no cover - self-check
        raise AssertionError("assembler parity failure")

    min_ops = (2 * _DEVICES, _DEVICES) if smoke else (40 * _DEVICES, 5 * _DEVICES)
    fast_ops = _throughput(lambda: (assemble("incremental"), _DEVICES)[1], min_ops[0])
    base_ops = _throughput(lambda: (assemble("legacy"), _DEVICES)[1], min_ops[1])
    return _micro_entry(fast_ops, base_ops)


def _micro_entry(fast_ops: float, base_ops: float) -> Dict[str, float]:
    return {
        "fast_ops_per_s": fast_ops,
        "baseline_ops_per_s": base_ops,
        "speedup": fast_ops / base_ops,
    }


# -- end-to-end measurements -------------------------------------------------


def bench_end_to_end(scale: str, smoke: bool) -> Dict[str, Dict[str, float]]:
    """Full BF/DF runs: incremental vs legacy assembler wall time.

    The ``small`` scale is deliberately identical in smoke and full
    runs so a committed full-run baseline stays comparable with a CI
    smoke run (see ``--baseline``).
    """
    from repro.data import make_global_dataset, generate_workload
    from repro.protocol import (
        ProtocolConfig, SimulationConfig, run_manet_simulation,
    )

    if scale == "small":
        devices, cardinality, sim_time = 16, 2000, 200.0
    else:
        devices, cardinality, sim_time = 25, 4000, 300.0
    # 4-D anti-correlated data keeps local skylines (and therefore the
    # assembly work on the originator) large — the regime the fast path
    # targets.
    dataset = make_global_dataset(
        cardinality, 4, devices, "anticorrelated", seed=17, value_step=1.0
    )
    workload = generate_workload(
        devices=devices, sim_time=sim_time, distance=250.0,
        queries_per_device=(1, 2), seed=18,
    )
    # Throwaway warmup so import costs don't bias whichever mode runs
    # first.
    warm_ds = make_global_dataset(200, 2, 4, "anticorrelated", seed=1,
                                  value_step=1.0)
    warm_wl = generate_workload(devices=4, sim_time=30.0, distance=400.0,
                                queries_per_device=(1, 1), seed=2)
    run_manet_simulation(
        warm_ds, warm_wl, SimulationConfig(strategy="bf", sim_time=30.0, seed=3)
    )

    out: Dict[str, Dict[str, float]] = {}
    for strategy in ("bf", "df"):
        entry: Dict[str, float] = {}
        for mode in ("incremental", "legacy"):
            config = SimulationConfig(
                strategy=strategy, sim_time=sim_time, seed=19,
                protocol=ProtocolConfig(assembler=mode),
            )
            start = time.perf_counter()
            result = run_manet_simulation(dataset, workload, config)
            entry[f"wall_s_{mode}"] = time.perf_counter() - start
            if mode == "incremental":
                entry["queries_completed"] = float(len(result.completed))
        entry["wall_speedup"] = (
            entry["wall_s_legacy"] / entry["wall_s_incremental"]
        )
        out[strategy] = entry
    return out


# -- schema ------------------------------------------------------------------


def validate(doc: dict) -> List[str]:
    """Schema check; returns a list of violations (empty == valid)."""
    errors: List[str] = []

    def num(x) -> bool:
        return isinstance(x, (int, float)) and not isinstance(x, bool)

    if doc.get("schema") != SCHEMA_VERSION:
        errors.append(f"schema must be {SCHEMA_VERSION!r}")
    smoke = doc.get("smoke")
    if not isinstance(smoke, bool):
        errors.append("smoke must be a bool")
        smoke = True
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
        for n in SIZES:
            point = per_op.get(str(n))
            if not isinstance(point, dict):
                errors.append(f"micro.{op}.{n} missing")
                continue
            for field in MICRO_FIELDS:
                if not num(point.get(field)) or point.get(field) <= 0:
                    errors.append(f"micro.{op}.{n}.{field} must be > 0")
    e2e = doc.get("end_to_end")
    if not isinstance(e2e, dict):
        errors.append("end_to_end must be an object")
        e2e = {}
    required_scales = ("small",) if smoke else E2E_SCALES
    for scale in required_scales:
        per_scale = e2e.get(scale)
        if not isinstance(per_scale, dict):
            errors.append(f"end_to_end.{scale} missing")
            continue
        for strategy in ("bf", "df"):
            entry = per_scale.get(strategy)
            if not isinstance(entry, dict):
                errors.append(f"end_to_end.{scale}.{strategy} missing")
                continue
            for field in ("wall_s_incremental", "wall_s_legacy",
                          "wall_speedup", "queries_completed"):
                if not num(entry.get(field)):
                    errors.append(
                        f"end_to_end.{scale}.{strategy}.{field} "
                        "must be numeric"
                    )
    return errors


def compare_baseline(doc: dict, baseline: dict) -> List[str]:
    """Perf-gate comparison on the shared ``small`` end-to-end scale."""
    errors: List[str] = []
    for strategy in ("bf", "df"):
        try:
            new = doc["end_to_end"]["small"][strategy]["wall_s_incremental"]
            old = baseline["end_to_end"]["small"][strategy][
                "wall_s_incremental"
            ]
        except (KeyError, TypeError):
            errors.append(f"end_to_end.small.{strategy} missing on one side")
            continue
        if new > REGRESSION_FACTOR * old:
            errors.append(
                f"end_to_end.small.{strategy}: {new:.2f}s vs baseline "
                f"{old:.2f}s (> {REGRESSION_FACTOR:.0f}x regression)"
            )
    return errors


# -- entry point -------------------------------------------------------------


_MICRO_FNS = {
    "normalized_values": bench_normalized_values,
    "local_skyline": bench_local_skyline,
    "assembler": bench_assembler,
}


def run(smoke: bool) -> dict:
    doc = {
        "schema": SCHEMA_VERSION,
        "smoke": smoke,
        "sizes": list(SIZES),
        "micro": {op: {} for op in MICRO_OPS},
        "end_to_end": {},
    }
    for n in SIZES:
        print(f"micro n={n} ...", file=sys.stderr)
        for op in MICRO_OPS:
            doc["micro"][op][str(n)] = _MICRO_FNS[op](n, smoke)
    for scale in ("small",) if smoke else E2E_SCALES:
        print(f"end-to-end {scale} bf/df ...", file=sys.stderr)
        doc["end_to_end"][scale] = bench_end_to_end(scale, smoke)
    return doc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="small, fast CI variant (same schema)")
    parser.add_argument("--out", default="BENCH_query.json",
                        help="output path (default: BENCH_query.json)")
    parser.add_argument("--check", metavar="FILE",
                        help="validate an existing output file and exit")
    parser.add_argument("--baseline", metavar="FILE",
                        help=("with --check: fail if end-to-end small-scale "
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
        asm = doc["micro"]["assembler"][str(SIZES[-1])]["speedup"]
        print(f"{args.check}: valid ({SCHEMA_VERSION}); assembler speedup "
              f"at n={SIZES[-1]}: {asm:.1f}x"
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
    for op in MICRO_OPS:
        speedups = ", ".join(
            f"n={n}: {doc['micro'][op][str(n)]['speedup']:.1f}x"
            for n in SIZES
        )
        print(f"{op:>18}: {speedups}")
    for scale, per_scale in doc["end_to_end"].items():
        for strategy in ("bf", "df"):
            entry = per_scale[strategy]
            print(f"{scale + ' ' + strategy:>18}: "
                  f"wall {entry['wall_s_incremental']:.2f}s incremental vs "
                  f"{entry['wall_s_legacy']:.2f}s legacy "
                  f"({entry['wall_speedup']:.2f}x), "
                  f"{int(entry['queries_completed'])} queries")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
