"""The three workloads: inputs from a seed, the timed call, digests and checks.

A workload's timed call runs one or more batch simulations (independent
scenarios drawn from the seed) through a public runner
(``run_manet_simulation`` or ``run_continuous_simulation``), never
through the experiment drivers, whose on-disk run cache could serve a
memoised result. ``run`` returns one result per scenario. README.md in
this directory says why each workload exists.
"""

from __future__ import annotations

import dataclasses
import hashlib
import statistics
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

__all__ = ["WORKLOADS", "Evaluation", "traffic_totals", "warm_up"]


@dataclass
class Evaluation:
    """Simulated outcome of one run, judged outside the clock.

    ``attempted`` counts workload entries (one-shot) or epochs
    (continuous); ``ops`` the completed and correct ones; ``incorrect``
    the completed ones whose answer failed its check.
    """

    attempted: int
    ops: int
    incorrect: int
    metrics: Dict[str, Optional[float]]
    notes: List[str]


def _sha(parts) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:20]


def _relation_key(rel) -> Tuple:
    return (rel.xy.tobytes(), rel.values.tobytes(), rel.site_ids.tobytes())


def _dataset_digest(dataset) -> str:
    return _sha([_relation_key(dataset.local(i)) for i in range(dataset.devices)])


def _traffic_key(traffic) -> Tuple:
    return (traffic.transmissions, traffic.deliveries, traffic.drops,
            traffic.duplicates, traffic.bytes_sent,
            tuple(sorted(traffic.by_kind.items())))


def traffic_totals(results) -> Dict[str, int]:
    """Radio counters summed over a run's scenarios."""
    fields = ("transmissions", "deliveries", "drops", "bytes_sent")
    return {f: sum(getattr(r.traffic, f) for r in results) for f in fields}


def _percentile(values: List[float], which: str) -> Optional[float]:
    """Median or 90th percentile; None below two samples."""
    if len(values) < 2:
        return None
    if which == "p50":
        return statistics.median(values)
    return statistics.quantiles(values, n=10)[8]


@dataclass(frozen=True)
class OneShotInputs:
    dataset: object
    workload: list
    config: object


@dataclass(frozen=True)
class OneShot:
    """Batches of one-shot queries on open-loop simulated schedules.

    ``scenarios`` independent simulations (own dataset, schedule and
    mobility) make up one timed call. Scenario ``i`` of seed ``s`` draws
    its dataset from ``1000 s + 10 i``, its schedule from the next seed
    and mobility and radio loss from the one after.
    """

    name: str
    strategy: str
    devices: int
    cardinality: int
    dimensions: int
    distribution: str
    distance: float
    sim_time: float
    queries_per_device: Tuple[int, int]
    scenarios: int = 1

    def setup(self, seed: int) -> Tuple[OneShotInputs, ...]:
        return tuple(self._scenario(1000 * seed + 10 * i)
                     for i in range(self.scenarios))

    def _scenario(self, seed: int) -> OneShotInputs:
        from repro.data import generate_workload, make_global_dataset
        from repro.protocol import SimulationConfig

        dataset = make_global_dataset(
            self.cardinality, self.dimensions, self.devices,
            self.distribution, seed=seed, value_step=1.0,
        )
        workload = generate_workload(
            devices=self.devices, sim_time=self.sim_time,
            distance=self.distance,
            queries_per_device=self.queries_per_device, seed=seed + 1,
        )
        config = SimulationConfig(
            strategy=self.strategy, sim_time=self.sim_time, seed=seed + 2,
        )
        return OneShotInputs(dataset, workload, config)

    def input_digest(self, inputs: Tuple[OneShotInputs, ...]) -> str:
        return _sha([(_dataset_digest(i.dataset), i.workload, i.config)
                     for i in inputs])

    def run(self, inputs: Tuple[OneShotInputs, ...]) -> tuple:
        from repro.protocol import run_manet_simulation

        return tuple(run_manet_simulation(i.dataset, i.workload, i.config)
                     for i in inputs)

    def digest(self, results) -> str:
        return _sha([self._digest_one(r) for r in results])

    def _digest_one(self, result) -> str:
        records = []
        for r in result.records:
            contributions = tuple(
                (c.device, c.unreduced_size, c.reduced_size, c.skipped,
                 c.processing_time, c.arrival_time)
                for _, c in sorted(r.contributions.items())
            )
            records.append((
                r.key, r.issue_time, r.completion_time, r.closed, r.closed_at,
                r.reissues, r.failovers, r.local_unreduced, r.local_reduced,
                contributions, _relation_key(r.result),
            ))
        return _sha((records, _traffic_key(result.traffic), result.issued,
                     result.suppressed, result.events))

    def evaluate(self, inputs: Tuple[OneShotInputs, ...], results) -> Evaluation:
        """Pooled over the scenarios: every completed query's answer is
        checked against its scenario's data."""
        from repro.metrics.drr import data_reduction_rate
        from repro.metrics.response import bf_response_time, df_response_time
        from repro.resilience.invariants import check_result_soundness

        notes: List[str] = []
        completed, times, incorrect = 0, [], 0
        for scenario, result in zip(inputs, results):
            quorum = scenario.config.protocol.completion_quorum
            for record in result.records:
                if record.completion_time is None:
                    continue
                completed += 1
                violations = check_result_soundness([record], scenario.dataset)
                if violations:
                    incorrect += 1
                    notes.extend(violations[:1])
                times.append(
                    bf_response_time(record, self.devices, quorum)
                    if self.strategy == "bf" else df_response_time(record))
        times = sorted(t for t in times if t is not None)
        attempted = sum(len(scenario.workload) for scenario in inputs)
        ops = completed - incorrect
        metrics = {
            "fail_frac": (attempted - ops) / attempted,
            "sim_response_p50_s": _percentile(times, "p50"),
            "sim_response_p90_s": _percentile(times, "p90"),
            "sim_response_samples": len(times),
            "frames_per_op": traffic_totals(results)["transmissions"] / attempted,
            "drr": data_reduction_rate(
                [record for result in results for record in result.records]),
            "refused": sum(result.suppressed for result in results),
            "unfinished": sum(result.issued for result in results) - completed,
        }
        return Evaluation(attempted, ops, incorrect, metrics, notes)

    def reissues(self, results) -> int:
        return sum(r.reissues for result in results for r in result.records)


@dataclass(frozen=True)
class ContinuousInputs:
    config: object
    dataset: object


@dataclass(frozen=True)
class Continuous:
    """One delta-mode subscription on the static connected grid."""

    name: str
    devices: int
    cardinality: int
    dimensions: int
    distribution: str
    distance: float
    originator: int
    epochs: int
    interval: float
    data_updates: int

    def setup(self, seed: int) -> ContinuousInputs:
        from repro.continuous.runner import ContinuousConfig
        from repro.data import make_global_dataset

        config = ContinuousConfig(
            mode="delta", devices=self.devices, cardinality=self.cardinality,
            dimensions=self.dimensions, distribution=self.distribution,
            d=self.distance, originator=self.originator, epochs=self.epochs,
            interval=self.interval, data_updates=self.data_updates,
            seed=seed, static_grid=True, capture_reference=False,
        )
        # The runner derives its dataset from the config; building it
        # here too lets the check confirm the run consumed these inputs.
        dataset = make_global_dataset(
            self.cardinality, self.dimensions, self.devices,
            self.distribution, seed=seed, value_step=1.0,
        )
        return ContinuousInputs(config, dataset)

    def input_digest(self, inputs: ContinuousInputs) -> str:
        return _sha((_dataset_digest(inputs.dataset), inputs.config))

    def run(self, inputs: ContinuousInputs) -> tuple:
        from repro.continuous.runner import run_continuous_simulation

        return (run_continuous_simulation(inputs.config),)

    def digest(self, results) -> str:
        (result,) = results
        record = result.record
        epochs = [
            (e.epoch, e.tick_time, e.closed_at, tuple(sorted(e.result_rows)),
             tuple(sorted(e.reporters)),
             e.report.outcome if e.report is not None else None, e.messages)
            for e in record.epochs
        ]
        return _sha((record.status, epochs, _traffic_key(result.traffic),
                     result.update_events))

    def evaluate(self, inputs: ContinuousInputs, results) -> Evaluation:
        """Re-run with reference capture on (a twin: capture only reads
        device data at each tick) and verify every epoch against the
        centralized answer."""
        from repro.continuous.runner import (
            run_continuous_simulation,
            verify_continuous_run,
        )

        (result,) = results
        notes: List[str] = []
        twin = run_continuous_simulation(
            dataclasses.replace(inputs.config, capture_reference=True),
            keep_network=True,
        )
        violations = verify_continuous_run(twin)
        notes.extend(violations[:3])
        attempted = inputs.config.epochs + 1
        bad = {
            e.epoch for e in twin.record.epochs
            if e.divergence != 0.0 or e.report is None
            or e.report.outcome != "completed"
        }
        if self.digest((twin,)) != self.digest(results):
            notes.append("capture-on twin diverged from the timed run")
            bad = set(range(attempted))
        if _dataset_digest(result.dataset) != _dataset_digest(inputs.dataset):
            notes.append("runner built a different dataset than the setup")
            bad = set(range(attempted))
        if violations and not bad:
            bad = set(range(attempted))
        closed = {e.epoch for e in result.record.epochs}
        ops = len(closed - bad)
        metrics = {
            "fail_frac": (attempted - ops) / attempted,
            "sim_response_p50_s": None,
            "sim_response_p90_s": None,
            "sim_response_samples": 0,
            "frames_per_op": result.traffic.transmissions / attempted,
            "drr": None,
            "refused": 0,
            "unfinished": attempted - len(closed),
        }
        return Evaluation(attempted, ops, len(bad & closed), metrics, notes)

    def reissues(self, results) -> int:
        return 0


WORKLOADS = {
    w.name: w
    for w in (
        OneShot(
            name="df_anticorr", strategy="df", devices=25, cardinality=4000,
            dimensions=4, distribution="anticorrelated", distance=250.0,
            sim_time=600.0, queries_per_device=(1, 1), scenarios=4,
        ),
        OneShot(
            name="bf_mobile", strategy="bf", devices=25, cardinality=20000,
            dimensions=2, distribution="independent", distance=250.0,
            sim_time=3600.0, queries_per_device=(6, 10),
        ),
        Continuous(
            name="continuous_delta", devices=49, cardinality=19600,
            dimensions=3, distribution="anticorrelated", distance=800.0,
            originator=24, epochs=60, interval=20.0, data_updates=200,
        ),
    )
}


def warm_up() -> None:
    """Tiny BF, DF and continuous runs: imports, first-call paths and
    allocator growth happen here, outside every clock."""
    from repro.continuous.runner import (
        ContinuousConfig,
        run_continuous_simulation,
    )
    from repro.data import generate_workload, make_global_dataset
    from repro.protocol import SimulationConfig, run_manet_simulation

    dataset = make_global_dataset(400, 3, 9, "anticorrelated", seed=1,
                                  value_step=1.0)
    workload = generate_workload(devices=9, sim_time=60.0, distance=400.0,
                                 queries_per_device=(1, 1), seed=2)
    for strategy in ("bf", "df"):
        run_manet_simulation(dataset, workload, SimulationConfig(
            strategy=strategy, sim_time=60.0, seed=3))
    run_continuous_simulation(ContinuousConfig(
        devices=9, cardinality=400, epochs=2, data_updates=2,
        static_grid=True, capture_reference=False, seed=4))
