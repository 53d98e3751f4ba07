#!/usr/bin/env python3
"""Repository benchmark: end-to-end and per-layer metrics per workload.

Usage (from the repository root)::

    python3 perfbench/run.py --workload df_anticorr --seed 1 --seconds 10 --trace 0

A run builds the workload's inputs from ``--seed`` (several times, to
time set-up), warms up on tiny simulations, then repeats the timed call
(the workload's simulations) until ``--seconds`` of them have been timed,
at least twice, and reports medians. Host times are reported in
reference seconds: ``calibrate.py``, timed in a child process before the
set-up and before every timed call, measures how fast the host is right
now (see that file). Every repeat must reproduce the same simulated
outcome digest. With ``--trace 1`` it adds one run with span wrappers
installed on the program's layer entry points and reports the per-layer
split instead of the end-to-end metrics; that run's digest must equal the
untraced one. The answers are checked outside the clock, once per run.

Human-readable report lines go first; the last line of standard output
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
Every run is appended to ``.perfbench/runs.jsonl`` under the root.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Set-up builds per run; set-up time is their median.
SETUP_REPEATS = 7
#: Timed repeats per run at least, whatever ``--seconds`` says.
MIN_REPEATS = 2
#: Allowed ``|sum(self_s) + unattributed_s - traced wall|``, seconds.
RECONCILE_TOLERANCE = 1e-6

#: End-to-end metrics gated by BENCHMARK.json, with units.
END_TO_END = (
    ("ops_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
#: Printed alongside them, not gated (see README.md for why).
REPORTED = (
    ("fail_frac", "ratio"),
    ("sim_response_p50_s", "s"),
    ("sim_response_p90_s", "s"),
    ("sim_response_samples", "count"),
    ("frames_per_op", "frames/op"),
    ("drr", "ratio"),
    ("refused", "count"),
    ("unfinished", "count"),
    ("ops_per_host_s", "1/s"),
    ("setup_host_s", "s"),
    ("calibration_s", "s"),
)


def _load_program():
    """Import the program from this checkout's ``src``, or exit non-zero."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program at {src / 'repro'}")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {src}")


def _calibrate() -> float:
    """Seconds the calibration loop takes on the host right now."""
    done = subprocess.run(
        [sys.executable, str(HERE / "calibrate.py")],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(done.stdout.split()[-1])


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def measure(workload, seed: int, seconds: float, trace: bool) -> dict:
    from calibrate import REFERENCE_S
    from layers import LayerProbe, per_layer_names
    from spans import SpanTracer
    from workloads import traffic_totals, warm_up

    problems = []
    warm_up()

    calibrations = [_calibrate()]
    setup_times, input_digests = [], set()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        inputs = workload.setup(seed)
        setup_times.append(time.perf_counter() - t0)
        input_digests.add(workload.input_digest(inputs))
    if len(input_digests) != 1:
        problems.append("one seed built different inputs")

    walls, digests, result = [], set(), None
    while len(walls) < MIN_REPEATS or sum(walls) < seconds:
        result = None  # free the previous outcome: peak RSS holds one
        calibrations.append(_calibrate())
        gc.collect()
        t0 = time.perf_counter()
        result = workload.run(inputs)
        walls.append(time.perf_counter() - t0)
        digests.add(workload.digest(result))
    peak_rss = _peak_rss_mb()
    if len(digests) != 1:
        problems.append("repeats of one run produced different outcomes")
    wall = statistics.median(walls)

    layer_values = None
    if trace:
        tracer = SpanTracer()
        probe = LayerProbe(tracer)
        gc.collect()
        try:
            probe.install()
            with tracer.region():
                traced = workload.run(inputs)
        finally:
            tracer.uninstall()
        if tracer.unrestored():
            problems.append(f"wrappers left installed: {tracer.unrestored()}")
        if workload.digest(traced) not in digests:
            problems.append("traced run diverged from the untraced runs")
        if tracer.reconciliation_error() > RECONCILE_TOLERANCE:
            problems.append(
                f"layer self times + unattributed miss the traced wall by "
                f"{tracer.reconciliation_error():.3g} s")
        negative = [k for k, v in tracer.self_s.items() if v < 0]
        if negative:
            problems.append(f"negative self time in {negative}")
        layer_values = probe.metrics(traffic_totals(traced),
                                     workload.reissues(traced), wall)
        del traced

    evaluation = workload.evaluate(inputs, result)
    problems.extend(evaluation.notes)
    calibration = statistics.median(calibrations)
    host_ops = statistics.median(evaluation.ops / w for w in walls)
    host_setup = statistics.median(setup_times)
    # One host second is worth REFERENCE_S / calibration reference seconds.
    to_reference = REFERENCE_S / calibration
    e2e = {
        "ops_per_s": host_ops / to_reference,
        "setup_s": host_setup * to_reference,
        "peak_rss_mb": peak_rss,
        "ops_per_host_s": host_ops,
        "setup_host_s": host_setup,
        "calibration_s": calibration,
    }
    e2e.update(evaluation.metrics)
    return {
        "correct": not problems and evaluation.incorrect == 0,
        "attempted": evaluation.attempted * len(walls),
        "failed": evaluation.incorrect * len(walls),
        "e2e": e2e,
        "layers": layer_values,
        "layer_units": dict(per_layer_names()),
        "walls": walls,
        "digest": digests.pop() if len(digests) == 1 else sorted(digests),
        "problems": problems,
    }


def report(name: str, seed: int, out: dict) -> None:
    print(f"workload {name} seed {seed}: {len(out['walls'])} timed runs, "
          f"walls {', '.join(f'{w:.3f}' for w in out['walls'])} s, "
          f"digest {out['digest']}")
    for metric, unit in END_TO_END + REPORTED:
        print(f"  {metric:<22} {_fmt(out['e2e'][metric]):>14} {unit}")
    for problem in out["problems"]:
        print(f"  PROBLEM: {problem}")
    layers = out["layers"]
    if layers is None:
        return
    wall = layers["trace.overhead_ratio"] * statistics.median(out["walls"])
    print(f"  per-layer split of the traced run ({wall:.3f} s wall):")
    for metric, unit in out["layer_units"].items():
        value = layers[metric]
        share = ""
        if metric.endswith("self_s") or metric == "trace.unattributed_s":
            share = f"  {100.0 * value / wall:5.1f}%"
        print(f"  {metric:<34} {_fmt(value):>14} {unit}{share}")


def main(argv=None) -> int:
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    _load_program()
    out = measure(WORKLOADS[args.workload], args.seed, args.seconds,
                  bool(args.trace))
    report(args.workload, args.seed, out)

    if args.trace:
        chosen = out["layers"]
        units = out["layer_units"]
    else:
        chosen = {m: out["e2e"][m] for m, _ in END_TO_END}
        units = dict(END_TO_END)
    line = {
        "correct": out["correct"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in chosen.items()},
    }
    log = ROOT / ".perfbench" / "runs.jsonl"
    log.parent.mkdir(exist_ok=True)
    with log.open("a") as fh:
        fh.write(json.dumps({
            "time": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "walls": out["walls"], "digest": out["digest"],
            "e2e": out["e2e"], "problems": out["problems"], "result": line,
        }) + "\n")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
