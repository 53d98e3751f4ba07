"""Differential tests for the block dominance kernels.

:func:`~repro.core.dominance.no_worse_matrix`,
:func:`~repro.core.dominance.dominance_matrix`,
:func:`~repro.core.dominance.dominated_mask`,
:func:`~repro.core.dominance.dominated_both_ways` and
:func:`~repro.core.dominance.undominated_in_block` carry every production
dominance test; here they, and the engines and merges built on them, are
compared against the oracles that do not use them: the scalar
:func:`~repro.core.dominance.dominates_values` /
:func:`~repro.core.dominance.dominates_or_equal`, the assembler's
``block=None`` broadcast, :func:`~repro.core.skyline.skyline_bruteforce`
and the ``block=None`` merge with its ``np.unique`` + location-set
duplicate pass.

Values are adversarial on purpose: integer-grid ties, exact duplicate
rows, mixed ``-0.0`` / ``0.0``, ``±1e300`` and subnormals. Tile edges are
drawn from 1–8, so small inputs already run many tiles, the lopsided
tile stretch of ``dominated_mask`` / ``dominated_both_ways`` (short side
either way round) and multi-block ``skyline_numpy`` scans.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.assembly import (
    SkylineAssembler,
    _dedup_within,
    _dominated_by,
    _duplicate_mask,
    _new_locations,
    merge_skylines,
)
from repro.core.dominance import (
    DEFAULT_BLOCK,
    dominance_matrix,
    dominated_both_ways,
    dominated_mask,
    dominates_or_equal,
    dominates_values,
    no_worse_matrix,
    undominated_in_block,
)
from repro.core.filtering import FilteringTuple, filter_prune_mask
from repro.core.skyline import (
    skyline_bruteforce,
    skyline_divide_conquer,
    skyline_numpy,
    skyline_of_relation,
)
from repro.storage import Relation, SiteTuple
from repro.storage.schema import AttributeSpec, Preference, RelationSchema

ADVERSARIAL = (0.0, -0.0, 1.0, 2.0, 3.0, 1e300, -1e300, 5e-324, -5e-324, 1e-310)

values = st.sampled_from(ADVERSARIAL) | st.integers(0, 3).map(float)
blocks = st.integers(min_value=1, max_value=8)


@st.composite
def row_sets(draw, dims, max_rows=40):
    """Rows drawn (with repeats) from a small pool: exact duplicates are
    the common case, not the exception."""
    pool = draw(
        st.lists(st.lists(values, min_size=dims, max_size=dims),
                 min_size=1, max_size=12)
    )
    picks = draw(st.lists(st.integers(0, len(pool) - 1), max_size=max_rows))
    return np.array([pool[i] for i in picks], dtype=np.float64).reshape(-1, dims)


@st.composite
def two_sides(draw):
    dims = draw(st.integers(min_value=1, max_value=4))
    return draw(row_sets(dims)), draw(row_sets(dims))


@st.composite
def lopsided_sides(draw):
    """A short side (1–3 rows) and a long one, in either order."""
    dims = draw(st.integers(min_value=1, max_value=4))
    short = draw(row_sets(dims, max_rows=3).filter(len))
    long = draw(row_sets(dims, max_rows=40))
    return (short, long) if draw(st.booleans()) else (long, short)


@st.composite
def matrices(draw):
    return draw(row_sets(draw(st.integers(min_value=1, max_value=4)), max_rows=60))


#: Coordinates for location keys: signed zeros, huge and subnormal.
COORDS = (0.0, -0.0, 1.0, 2.0, 1e300, 5e-324)


@st.composite
def locations(draw, max_rows=30):
    """``(N, 2)`` locations from a tiny pool, so repeats are common."""
    pairs = draw(
        st.lists(st.tuples(st.sampled_from(COORDS), st.sampled_from(COORDS)),
                 max_size=max_rows)
    )
    return np.array(pairs, dtype=np.float64).reshape(-1, 2)


def _scalar_dominated(by: np.ndarray, targets: np.ndarray) -> list:
    return [any(dominates_values(b, t) for b in by) for t in targets]


# The unit edge cases of the assembler's ``_dominated_by``, one input each.
EDGE_CASES = {
    "d1": (np.array([[2.0]]), np.array([[1.0], [2.0], [3.0]])),
    "single-dominates": (np.array([[1.0, 2.0]]), np.array([[2.0, 3.0]])),
    "single-dominated": (np.array([[2.0, 3.0]]), np.array([[1.0, 2.0]])),
    "equal-rows": (np.array([[1.0, 2.0]]), np.array([[1.0, 2.0]])),
    "empty-by": (np.empty((0, 2)), np.array([[1.0, 1.0]])),
    "empty-targets": (np.array([[1.0, 1.0]]), np.empty((0, 2))),
    "lopsided-by": (
        np.arange(60, dtype=np.float64).reshape(30, 2),
        np.array([[10.0, 12.0], [59.0, 60.0]]),
    ),
    "lopsided-targets": (
        np.array([[3.0, 4.0], [0.5, 70.0]]),
        np.arange(60, dtype=np.float64).reshape(30, 2),
    ),
}


class TestDominatedMask:
    @pytest.mark.parametrize("block", [1, 2, 3, 8, DEFAULT_BLOCK])
    @pytest.mark.parametrize("case", sorted(EDGE_CASES))
    def test_edge_cases(self, case, block):
        by, targets = EDGE_CASES[case]
        got = dominated_mask(by, targets, block)
        assert got.shape == (targets.shape[0],)
        assert got.tolist() == _scalar_dominated(by, targets)
        assert np.array_equal(got, _dominated_by(by, targets, None))

    @given(two_sides(), blocks)
    @settings(max_examples=150, deadline=None)
    def test_matches_broadcast_and_scalar(self, sides, block):
        by, targets = sides
        got = dominated_mask(by, targets, block)
        assert np.array_equal(got, _dominated_by(by, targets, None))
        assert got.tolist() == _scalar_dominated(by, targets)


class TestNoWorseMatrix:
    @given(two_sides())
    @settings(max_examples=100, deadline=None)
    def test_matches_scalar(self, sides):
        a, b = sides
        got = no_worse_matrix(a, b)
        assert got.shape == (a.shape[0], b.shape[0])
        for i in range(a.shape[0]):
            for j in range(b.shape[0]):
                assert got[i, j] == dominates_or_equal(a[i], b[j])

    @given(two_sides())
    @settings(max_examples=100, deadline=None)
    def test_identity_gives_dominance(self, sides):
        """``a`` dominates ``b`` iff ``NW(a, b)`` and not ``NW(b, a)``."""
        a, b = sides
        nw = no_worse_matrix(a, b) & ~no_worse_matrix(b, a).T
        assert np.array_equal(nw, dominance_matrix(a, b))

    def test_identity_holds_on_nan(self):
        rows = np.array([[np.nan, 1.0], [0.0, 0.0], [1.0, 1.0], [np.nan, 2.0]])
        nw = no_worse_matrix(rows, rows)
        assert np.array_equal(nw & ~nw.T, dominance_matrix(rows, rows))


class TestDominatedBothWays:
    @staticmethod
    def _check(a, b, block):
        a_dom, b_dom = dominated_both_ways(a, b, block)
        assert a_dom.shape == (a.shape[0],) and b_dom.shape == (b.shape[0],)
        assert np.array_equal(a_dom, _dominated_by(b, a, None))
        assert np.array_equal(b_dom, _dominated_by(a, b, None))

    @pytest.mark.parametrize("block", [1, 2, 3, 8, DEFAULT_BLOCK])
    @pytest.mark.parametrize("case", sorted(EDGE_CASES))
    def test_edge_cases(self, case, block):
        self._check(*EDGE_CASES[case], block)

    @given(two_sides(), blocks)
    @settings(max_examples=150, deadline=None)
    def test_matches_two_broadcasts(self, sides, block):
        self._check(*sides, block)

    @given(lopsided_sides(), blocks)
    @settings(max_examples=150, deadline=None)
    def test_lopsided_matches_two_broadcasts(self, sides, block):
        self._check(*sides, block)


class TestDominanceMatrix:
    @given(two_sides())
    @settings(max_examples=100, deadline=None)
    def test_matches_scalar(self, sides):
        a, b = sides
        got = dominance_matrix(a, b)
        assert got.shape == (a.shape[0], b.shape[0])
        for i in range(a.shape[0]):
            for j in range(b.shape[0]):
                assert got[i, j] == dominates_values(a[i], b[j])

    @given(matrices())
    @settings(max_examples=100, deadline=None)
    def test_undominated_in_block_is_the_skyline(self, rows):
        keep = undominated_in_block(rows)
        assert np.nonzero(keep)[0].tolist() == skyline_bruteforce(rows).tolist()


class TestEngines:
    @given(matrices(), blocks)
    @settings(max_examples=150, deadline=None)
    def test_skyline_numpy_any_block(self, rows, block):
        expected = skyline_bruteforce(rows)
        assert np.array_equal(skyline_numpy(rows, block=block), expected)

    @given(matrices(), blocks)
    @settings(max_examples=100, deadline=None)
    def test_divide_conquer_any_threshold(self, rows, threshold):
        expected = skyline_bruteforce(rows)
        got = skyline_divide_conquer(rows, threshold=threshold)
        assert np.array_equal(got, expected)


class TestFilterPruneMask:
    @given(matrices(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_matches_scalar(self, rows, data):
        dims = rows.shape[1]
        point = data.draw(st.lists(values, min_size=dims, max_size=dims))
        # Sites on a 2x2 grid, so the filter's site recurs among the rows.
        xy = np.array(
            [[i % 2, (i // 2) % 2] for i in range(rows.shape[0])], dtype=np.float64
        ).reshape(-1, 2)
        flt = FilteringTuple(
            site=SiteTuple(site_id=0, x=1.0, y=0.0, values=tuple(point)), vdr=0.0
        )
        got = filter_prune_mask(flt, point, rows, xy)
        expected = [
            dominates_values(point, row) or (x == 1.0 and y == 0.0)
            for row, (x, y) in zip(rows, xy)
        ]
        assert got.tolist() == expected


def _mixed_schema(dims):
    """Alternating MIN/MAX attributes: normalization yields ``-0.0``."""
    return RelationSchema(
        attributes=tuple(
            AttributeSpec(
                f"a{i}", 0.0, 4.0, Preference.MIN if i % 2 == 0 else Preference.MAX
            )
            for i in range(dims)
        ),
        spatial_extent=(0.0, 0.0, 4.0, 4.0),
    )


@st.composite
def skyline_partials(draw, parts=3):
    """Skyline partials over one site pool whose locations repeat.

    A pool row picked by two partials is a shared location with equal
    values; two pool rows at one location are a same-location pair with
    different values, within one partial or across two.
    """
    dims = draw(st.integers(min_value=1, max_value=3))
    schema = _mixed_schema(dims)
    xy = draw(locations(max_rows=24).filter(len))
    values = draw(row_sets(dims, max_rows=xy.shape[0]).filter(
        lambda v: v.shape[0] == xy.shape[0]))
    out = []
    for _ in range(parts):
        pick = draw(st.lists(st.integers(0, xy.shape[0] - 1), max_size=12))
        rel = Relation(schema, xy[pick], values[pick], np.asarray(pick))
        out.append(skyline_of_relation(rel))
    return schema, out


def _assert_bit_identical(a: Relation, b: Relation):
    assert np.array_equal(a.xy, b.xy)
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.site_ids, b.site_ids)


class TestMergeAgainstOracle:
    @given(skyline_partials(), blocks)
    @settings(max_examples=150, deadline=None)
    def test_merge_skylines_matches_block_none(self, partials, block):
        """A depth-first walk: each hop merges the next partial into the
        carried result, production against the ``block=None`` oracle."""
        _, parts = partials
        fast = slow = parts[0]
        for part in parts[1:]:
            fast = merge_skylines(fast, part, block=block)
            slow = merge_skylines(slow, part, block=None)
            _assert_bit_identical(fast, slow)

    @given(skyline_partials(), blocks)
    @settings(max_examples=100, deadline=None)
    def test_assembler_matches_legacy(self, partials, block):
        schema, parts = partials
        fast = SkylineAssembler(schema, parts[0], block=block)
        slow = SkylineAssembler(schema, parts[0], mode="legacy")
        for part in parts[1:]:
            fast.add(part)
            slow.add(part)
            _assert_bit_identical(fast.result(), slow.result())

    def test_same_location_row_never_evicts(self):
        """An incoming row at a current location is a duplicate even when
        its values would dominate other current rows."""
        schema = _mixed_schema(2)
        current = Relation(
            schema, [[0.0, 0.0], [1.0, 1.0]], [[2.0, 2.0], [3.0, 3.0]], [0, 1]
        )
        incoming = Relation(
            schema, [[-0.0, 0.0], [2.0, 2.0]], [[0.0, 4.0], [3.0, 3.0]], [9, 2]
        )
        for block in (1, 2, DEFAULT_BLOCK, None):
            merged = merge_skylines(current, incoming, block=block)
            assert merged.site_ids.tolist() == [0, 1, 2]
            asm = SkylineAssembler(schema, current, block=block or DEFAULT_BLOCK)
            asm.add(incoming)
            assert asm.result().site_ids.tolist() == [0, 1, 2]


class TestDuplicatePass:
    @given(locations(), locations())
    @settings(max_examples=200, deadline=None)
    def test_matches_unique_and_set(self, seen, xy):
        """The sort-based pass against the oracle pair: ``np.unique``
        within ``xy``, the location set against ``seen``."""
        schema = _mixed_schema(1)
        rel = Relation(schema, xy, np.zeros((xy.shape[0], 1)))
        first = np.zeros(xy.shape[0], dtype=bool)
        first[_dedup_within(rel).site_ids] = True
        expected = first & ~_duplicate_mask(xy, seen)
        assert np.array_equal(_new_locations(seen, xy), expected)

    def test_signed_zeros_are_one_location(self):
        seen = np.array([[0.0, -0.0]])
        xy = np.array([[-0.0, 0.0], [1.0, -0.0], [1.0, 0.0], [0.0, 1.0]])
        assert _new_locations(seen, xy).tolist() == [False, True, False, True]
