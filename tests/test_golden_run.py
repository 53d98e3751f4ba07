"""Golden-run digest: the simulation output pinned beside ``CACHE_SCHEMA``.

The persistent run cache keys every stored point on
:data:`repro.experiments.executor.CACHE_SCHEMA`, so a change that moves
any simulation output must bump that string, or the cache serves results
computed under the old semantics. This test makes the rule checkable: it
runs one BF and one DF anti-correlated smoke point, digests the
:class:`~repro.metrics.collector.RunMetrics` (integer counters exact,
floats rounded to 9 significant digits) and compares the digest with the
one pinned for the current schema.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

from repro.experiments import SMOKE
from repro.experiments.executor import CACHE_SCHEMA
from repro.experiments.manet_common import ManetPoint, compute_manet_point

#: Digest of the two golden runs, keyed by the schema it was pinned under.
GOLDEN = {
    "manet-run/v2": "ee56cac31d1bfaf51090fc4a5d33cc344b54a7cd376630210247fe551bd740de",
}


def _canonical(value):
    if isinstance(value, float):
        return format(value, ".9g")
    if isinstance(value, dict):
        return {key: _canonical(item) for key, item in value.items()}
    return value


def _run_digest(strategy: str) -> dict:
    point = ManetPoint(
        strategy=strategy, distance=500.0, cardinality=1_600, dimensions=3,
        devices=16, distribution="anticorrelated", scale_name=SMOKE.name,
        seed=7,
    )
    return _canonical(dataclasses.asdict(compute_manet_point(point, SMOKE)))


def test_golden_run_digest_matches_cache_schema():
    runs = {strategy: _run_digest(strategy) for strategy in ("bf", "df")}
    digest = hashlib.sha256(
        json.dumps(runs, sort_keys=True).encode()
    ).hexdigest()
    assert CACHE_SCHEMA in GOLDEN, (
        f"no golden digest pinned for CACHE_SCHEMA {CACHE_SCHEMA!r}; "
        f"pin {digest!r} for it"
    )
    assert digest == GOLDEN[CACHE_SCHEMA], (
        f"the golden runs moved (got {digest}, metrics {runs}). A change "
        f"that alters simulation output must bump CACHE_SCHEMA in "
        f"repro/experiments/executor.py and re-pin GOLDEN here, together."
    )
