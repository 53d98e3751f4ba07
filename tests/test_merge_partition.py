"""Assembly of partial skylines, merge kernels, and the device result cache.

Companion to ``test_fast_path_parity.py``: that suite pins the fast
paths through full simulations; this one pins the pieces at unit
level —

* the **incremental** :class:`~repro.core.assembly.SkylineAssembler`
  against the **legacy** oracle and the centralized skyline, across
  dimensionalities and mixed MIN/MAX schemas;
* the ``_dominated_by`` / ``_duplicate_mask`` kernel edge cases: d=1,
  single-row inputs, all-duplicate batches, block sizes of 1 and
  larger than the input, and ``block=None`` vs tiled invariance;
* the configuration surface: ``ProtocolConfig`` / assembler-mode
  validation, and the configured mode reaching the device's assembler;
* :class:`~repro.core.local.LocalResultCache` bookkeeping (LRU
  eviction, counters, invalidation).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.assembly import (
    ASSEMBLERS,
    SkylineAssembler,
    _dominated_by,
    _duplicate_mask,
)
from repro.core.local import LocalResultCache
from repro.core.query import SkylineQuery
from repro.core.skyline import skyline_of_relation
from repro.data import make_global_dataset
from repro.net import RadioConfig, Simulator, StaticPlacement, World
from repro.protocol import BFDevice
from repro.protocol.device import ProtocolConfig
from repro.storage import Relation
from repro.storage.schema import AttributeSpec, Preference, RelationSchema


# ---------------------------------------------------------------------------
# Fixtures
# ---------------------------------------------------------------------------


def _mixed_schema(d):
    """Alternating MIN/MAX attributes (exercises normalization signs)."""
    return RelationSchema(
        attributes=tuple(
            AttributeSpec(
                f"a{i}", 0.0, 64.0,
                Preference.MIN if i % 2 == 0 else Preference.MAX,
            )
            for i in range(d)
        ),
        spatial_extent=(0.0, 0.0, 1000.0, 1000.0),
    )


def _partials(seed, d=2, parts=6, pool_n=48, schema=None):
    """Overlapping partial skylines from one shared site pool."""
    rng = np.random.default_rng(seed)
    schema = schema or _mixed_schema(d)
    pool_xy = rng.uniform(0.0, 1000.0, size=(pool_n, 2))
    pool_values = rng.integers(0, 64, size=(pool_n, d)).astype(float)
    out = []
    for _ in range(parts):
        n = int(rng.integers(1, pool_n // 2 + 1))
        pick = rng.choice(pool_n, size=n, replace=False)
        rel = Relation(schema, pool_xy[pick], pool_values[pick], pick)
        out.append(skyline_of_relation(rel))
    return schema, out


def _assert_bit_identical(a, b):
    assert np.array_equal(a.xy, b.xy)
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.site_ids, b.site_ids)


# ---------------------------------------------------------------------------
# Incremental assembler vs the legacy oracle
# ---------------------------------------------------------------------------


class TestIncrementalAssembler:
    @pytest.mark.parametrize("d", [1, 2, 4])
    def test_stream_matches_references_across_dims(self, d):
        """Every prefix of the stream matches the legacy oracle bit for
        bit, and the final result is the centralized skyline."""
        for seed in range(8):
            schema, parts = _partials(seed, d=d)
            asms = {
                mode: SkylineAssembler(schema, mode=mode)
                for mode in ASSEMBLERS
            }
            for part in parts:
                for asm in asms.values():
                    asm.add(part)
                _assert_bit_identical(
                    asms["incremental"].result(), asms["legacy"].result()
                )
            assert len({a.merges for a in asms.values()}) == 1
            union = Relation(
                schema,
                np.vstack([p.xy for p in parts]),
                np.vstack([p.values for p in parts]),
                np.concatenate([p.site_ids for p in parts]),
            )
            got = asms["incremental"].result()
            want = skyline_of_relation(union)
            assert sorted(got.site_ids.tolist()) == sorted(
                set(want.site_ids.tolist())
            )

    def test_seeded_initial_matches_add(self):
        schema, parts = _partials(13, d=2)
        for mode in ASSEMBLERS:
            seeded = SkylineAssembler(schema, parts[0], mode=mode)
            grown = SkylineAssembler(schema, mode=mode)
            grown.add(parts[0])
            _assert_bit_identical(seeded.result(), grown.result())

    def test_mode_property(self):
        schema = _mixed_schema(2)
        assert SkylineAssembler(schema).mode == "incremental"
        assert SkylineAssembler(schema, mode="legacy").mode == "legacy"


# ---------------------------------------------------------------------------
# Kernel edge cases
# ---------------------------------------------------------------------------


class TestDominatedByEdges:
    def test_d1_strict_dominance(self):
        by = np.array([[2.0]])
        targets = np.array([[1.0], [2.0], [3.0]])
        for block in (None, 1, 2, 512):
            assert _dominated_by(by, targets, block).tolist() == [
                False, False, True,
            ]

    def test_single_row_both_sides(self):
        a = np.array([[1.0, 2.0]])
        b = np.array([[2.0, 3.0]])
        for block in (None, 1, 512):
            assert _dominated_by(a, b, block).tolist() == [True]
            assert _dominated_by(b, a, block).tolist() == [False]
            # Equal rows never dominate themselves (strict somewhere).
            assert _dominated_by(a, a, block).tolist() == [False]

    def test_empty_inputs(self):
        empty = np.empty((0, 2))
        rows = np.array([[1.0, 1.0]])
        for block in (None, 1):
            assert _dominated_by(empty, rows, block).tolist() == [False]
            assert _dominated_by(rows, empty, block).shape == (0,)

    @pytest.mark.parametrize("block", [1, 3, 7, 512])
    def test_tiled_matches_unbounded(self, block):
        """Any tile size — including 1 and larger than either input —
        reproduces the unbounded broadcast bit for bit."""
        rng = np.random.default_rng(17)
        for _ in range(10):
            by = rng.integers(0, 6, size=(rng.integers(1, 40), 3)).astype(float)
            targets = rng.integers(0, 6, size=(rng.integers(1, 40), 3)).astype(
                float
            )
            reference = _dominated_by(by, targets, None)
            assert np.array_equal(_dominated_by(by, targets, block), reference)


class TestDuplicateMaskEdges:
    def test_all_duplicates(self):
        xy = np.array([[1.0, 2.0], [3.0, 4.0], [1.0, 2.0]])
        assert _duplicate_mask(xy, xy).all()

    def test_no_duplicates_and_empty(self):
        xy = np.array([[1.0, 2.0]])
        other = np.array([[9.0, 9.0]])
        assert not _duplicate_mask(xy, other).any()
        assert _duplicate_mask(np.empty((0, 2)), xy).shape == (0,)
        assert not _duplicate_mask(xy, np.empty((0, 2))).any()

    def test_all_duplicate_batch_merges_to_first_copy(self):
        """An incoming partial that duplicates every location leaves the
        running result untouched (first copy wins), in every mode."""
        schema, parts = _partials(7, d=2, parts=1)
        for mode in ASSEMBLERS:
            asm = SkylineAssembler(schema, parts[0], mode=mode)
            before = asm.result()
            asm.add(parts[0])
            _assert_bit_identical(asm.result(), before)


# ---------------------------------------------------------------------------
# Configuration surface
# ---------------------------------------------------------------------------


class TestConfigValidation:
    def test_protocol_config_accepts_known_assemblers(self):
        for mode in ASSEMBLERS:
            assert ProtocolConfig(assembler=mode).assembler == mode
        assert ProtocolConfig().assembler == "incremental"

    def test_protocol_config_rejects_bad_values(self):
        for bad in ("quantum", "partitioned", None):
            with pytest.raises(ValueError):
                ProtocolConfig(assembler=bad)
        with pytest.raises(ValueError):
            ProtocolConfig(local_cache_size=0)

    def test_assembler_invalid_is_loud(self):
        schema = _mixed_schema(2)
        for bad in ("quantum", "partitioned", None):
            with pytest.raises(ValueError):
                SkylineAssembler(schema, mode=bad)
        for block in (0, -3):
            with pytest.raises(ValueError):
                SkylineAssembler(schema, block=block)

    def test_assembler_config_reaches_assembler(self, monkeypatch):
        """The device builds its assembler from ``ProtocolConfig`` alone;
        the retired ``REPRO_ASSEMBLER`` variable is ignored."""
        monkeypatch.setenv("REPRO_ASSEMBLER", "legacy")
        dataset = make_global_dataset(
            40, 2, 4, "independent", seed=3, value_step=1.0
        )
        cases = [
            (ProtocolConfig(assembler="incremental"), "incremental"),
            (ProtocolConfig(assembler="legacy"), "legacy"),
            (ProtocolConfig(), "incremental"),
        ]
        world = World(
            Simulator(), StaticPlacement([(0.0, 0.0)] * len(cases)),
            RadioConfig(),
        )
        for i, (config, want) in enumerate(cases):
            device = BFDevice(world, i, dataset.local(0), config)
            assert device._make_assembler(None).mode == want


# ---------------------------------------------------------------------------
# LocalResultCache bookkeeping
# ---------------------------------------------------------------------------


class TestLocalResultCache:
    def _key(self, epoch=0, cnt=0, d=250.0):
        query = SkylineQuery(origin=1, cnt=cnt, pos=(10.0, 20.0), d=d)
        return LocalResultCache.signature(epoch, query, None)

    def test_hit_returns_same_objects(self):
        cache = LocalResultCache(4)
        key = self._key()
        assert cache.get(key) is None
        cache.put(key, "result", "delta")
        assert cache.get(key) == ("result", "delta")
        assert cache.hits == 1 and cache.misses == 1
        assert cache.hit_rate == 0.5

    def test_signature_distinguishes_epoch_and_scope(self):
        cache = LocalResultCache(4)
        cache.put(self._key(epoch=0), "r", None)
        assert cache.get(self._key(epoch=1)) is None
        assert cache.get(self._key(d=300.0)) is None
        # The key deliberately ignores the query identity: a different
        # query with the same (pos, d) scope shares the cached slice.
        assert cache.get(self._key(cnt=1)) is not None

    def test_lru_eviction_order(self):
        cache = LocalResultCache(2)
        a, b, c = self._key(d=100.0), self._key(d=200.0), self._key(d=300.0)
        cache.put(a, "a", None)
        cache.put(b, "b", None)
        cache.get(a)  # refresh a: b becomes least recent
        cache.put(c, "c", None)
        assert len(cache) == 2
        assert cache.get(b) is None
        assert cache.get(a) is not None
        assert cache.get(c) is not None

    def test_invalidate_clears_and_counts(self):
        cache = LocalResultCache(4)
        cache.put(self._key(), "r", None)
        cache.invalidate()
        assert len(cache) == 0
        assert cache.invalidations == 1
        assert cache.get(self._key()) is None

    def test_empty_hit_rate(self):
        assert LocalResultCache(4).hit_rate == 0.0
