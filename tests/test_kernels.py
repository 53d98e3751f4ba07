"""Differential tests for the block dominance kernels.

:func:`~repro.core.dominance.dominance_matrix`,
:func:`~repro.core.dominance.dominated_mask` and
:func:`~repro.core.dominance.undominated_in_block` carry every production
dominance test; here they, and the engines built on them, are compared
against the oracles that do not use them: the scalar
:func:`~repro.core.dominance.dominates_values`, the assembler's
``block=None`` broadcast and :func:`~repro.core.skyline.skyline_bruteforce`.

Values are adversarial on purpose: integer-grid ties, exact duplicate
rows, mixed ``-0.0`` / ``0.0``, ``±1e300`` and subnormals. Tile edges are
drawn from 1–8, so small inputs already run many tiles, the lopsided
tile stretch of ``dominated_mask`` and multi-block ``skyline_numpy``
scans.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.assembly import _dominated_by
from repro.core.dominance import (
    DEFAULT_BLOCK,
    dominance_matrix,
    dominated_mask,
    dominates_values,
    undominated_in_block,
)
from repro.core.filtering import FilteringTuple, filter_prune_mask
from repro.core.skyline import (
    skyline_bruteforce,
    skyline_divide_conquer,
    skyline_numpy,
)
from repro.storage import SiteTuple

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
def matrices(draw):
    return draw(row_sets(draw(st.integers(min_value=1, max_value=4)), max_rows=60))


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
