"""Dominance predicates — the primitive underlying every skyline algorithm.

A tuple ``a`` *dominates* ``b`` iff ``a`` is no worse than ``b`` in every
dimension and strictly better in at least one (Section 1). The paper assumes
smaller-is-better; the scalar predicates here accept per-attribute
preference directions so mixed-direction skylines work too.

The block kernels are the one production dominance test, in
minimization space on value or integer-ID rows alike. The scalar
predicates stay independent of them, as oracles.

* :func:`no_worse_matrix` is the primitive of the two-sided kernels:
  ``NW(a, b)[i, j]`` holds iff ``a[i] <= b[j]`` in every attribute. Since
  no-worse in both directions means the rows are equal, ``a[i]``
  dominates ``b[j]`` iff ``NW(a, b)[i, j] and not NW(b, a)[j, i]`` — one
  ``<=`` matrix per side answers both directions, on value rows, ID
  rows, ``-0.0``/``0.0`` and NaN alike.
* :func:`undominated_in_block` (a block against itself) and
  :func:`dominated_both_ways` (two blocks against each other) are built
  on it.
* :func:`dominance_matrix` and :func:`dominated_mask` serve the
  one-directional callers, where only ``a`` dominating ``b`` is asked.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from ..storage.schema import Preference, SiteTuple

__all__ = [
    "DEFAULT_BLOCK",
    "dominates",
    "dominates_values",
    "dominates_or_equal",
    "dominance_mask",
    "dominance_matrix",
    "dominated_mask",
    "dominated_both_ways",
    "no_worse_matrix",
    "undominated_in_block",
    "incomparable",
]

#: Default tile edge of the block kernels. 512 keeps every intermediate
#: dominance matrix under ~256 KiB of bools while leaving enough rows per
#: tile to amortize numpy dispatch.
DEFAULT_BLOCK = 512


def dominates_values(
    a: Sequence[float],
    b: Sequence[float],
    preferences: Optional[Sequence[Preference]] = None,
) -> bool:
    """Return True iff value vector ``a`` dominates ``b``.

    With ``preferences`` omitted, every attribute is minimized (the
    paper's convention).
    """
    if len(a) != len(b):
        raise ValueError(f"arity mismatch: {len(a)} vs {len(b)}")
    if preferences is None:
        no_worse_everywhere = all(x <= y for x, y in zip(a, b))
        better_somewhere = any(x < y for x, y in zip(a, b))
        return no_worse_everywhere and better_somewhere
    if len(preferences) != len(a):
        raise ValueError("preferences arity mismatch")
    no_worse_everywhere = all(
        p.better_or_equal(x, y) for p, x, y in zip(preferences, a, b)
    )
    better_somewhere = any(p.better(x, y) for p, x, y in zip(preferences, a, b))
    return no_worse_everywhere and better_somewhere


def dominates(
    a: SiteTuple,
    b: SiteTuple,
    preferences: Optional[Sequence[Preference]] = None,
) -> bool:
    """Return True iff site ``a`` dominates site ``b`` on non-spatial values.

    Location plays no role in dominance — within the query region the
    paper treats all sites as spatially equivalent (Section 2).
    """
    return dominates_values(a.values, b.values, preferences)


def dominates_or_equal(
    a: Sequence[float],
    b: Sequence[float],
    preferences: Optional[Sequence[Preference]] = None,
) -> bool:
    """True iff ``a`` dominates ``b`` or the two vectors are equal.

    This is the elimination test used when duplicates should also be
    swallowed (e.g. by a filtering tuple that equals a local tuple).
    """
    if len(a) != len(b):
        raise ValueError(f"arity mismatch: {len(a)} vs {len(b)}")
    if preferences is None:
        return all(x <= y for x, y in zip(a, b))
    return all(p.better_or_equal(x, y) for p, x, y in zip(preferences, a, b))


def dominance_mask(point: np.ndarray, block: np.ndarray) -> np.ndarray:
    """Vectorised: which rows of ``block`` does ``point`` dominate?

    Both arguments must already be in minimization space. Returns a boolean
    array of shape ``(len(block),)``.
    """
    point = np.asarray(point, dtype=np.float64)
    block = np.asarray(block, dtype=np.float64)
    if block.ndim != 2 or point.shape != (block.shape[1],):
        raise ValueError(
            f"shape mismatch: point {point.shape} vs block {block.shape}"
        )
    return dominance_matrix(point[None, :], block)[0]


def _columns(rows: np.ndarray) -> np.ndarray:
    """``rows`` as contiguous attribute columns: every broadcast then
    reads unit-stride memory, which measures 10–20% faster on square
    tiles and about 3x on a short-by-long one."""
    return np.ascontiguousarray(rows.T)


def dominance_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``out[i, j]`` — row ``a[i]`` dominates row ``b[j]``.

    Compared attribute at a time with 2-D broadcasts: the equivalent
    ``(A, B, d)`` broadcast forces numpy onto a strided inner loop that
    is an order of magnitude slower for the paper's 2–5 attribute
    schemas. Works on integer ID rows and raw value rows alike.
    """
    no_worse = np.ones((a.shape[0], b.shape[0]), dtype=bool)
    better = np.zeros((a.shape[0], b.shape[0]), dtype=bool)
    for col_a, col_b in zip(_columns(a), _columns(b)):
        col_a = col_a[:, None]
        no_worse &= col_a <= col_b
        better |= col_a < col_b
    return no_worse & better


def no_worse_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``out[i, j]`` — row ``a[i]`` is no worse than ``b[j]`` everywhere.

    One ``<=`` broadcast per attribute, ANDed in place. ``a[i]``
    dominates ``b[j]`` iff ``out[i, j]`` and not ``NW(b, a)[j, i]``.
    """
    out = np.ones((a.shape[0], b.shape[0]), dtype=bool)
    for col_a, col_b in zip(_columns(a), _columns(b)):
        out &= col_a[:, None] <= col_b
    return out


def dominated_mask(
    by: np.ndarray, targets: np.ndarray, block: int = DEFAULT_BLOCK
) -> np.ndarray:
    """Mask over ``targets`` rows strictly dominated by some ``by`` row.

    Runs :func:`dominance_matrix` in tiles of ``block`` target rows, so
    peak memory is bounded regardless of either side's size. When one
    side is short, the other side's tile grows to keep ``block²``
    elements per attribute: a lopsided comparison (a handful of incoming
    rows against a big running skyline) still runs in one numpy pass
    instead of many tiny tiles.
    """
    n_targets = targets.shape[0]
    out = np.zeros(n_targets, dtype=bool)
    for j in range(0, n_targets, block):
        tgt = targets[j : j + block]
        rows = max(block, (block * block) // tgt.shape[0])
        for i in range(0, by.shape[0], rows):
            out[j : j + block] |= dominance_matrix(by[i : i + rows], tgt).any(axis=0)
    return out


def dominated_both_ways(
    a: np.ndarray, b: np.ndarray, block: int = DEFAULT_BLOCK
) -> Tuple[np.ndarray, np.ndarray]:
    """``(a_dominated, b_dominated)``: the rows of ``a`` that some ``b``
    row dominates, and the rows of ``b`` that some ``a`` row dominates.

    Each tile computes ``NW(a_t, b_t)`` and ``NW(b_t, a_t).T`` — one
    ``<=`` matrix per side — and reads both directions off the pair.
    The transposed one is built directly, as ``a_t >= b_t`` per
    attribute, so both matrices keep the longer side on the inner axis
    (a short inner axis costs one numpy inner loop per outer row).
    Tiles are ``block`` rows on the shorter side; the longer side's tile
    stretches to keep ``block²`` elements per attribute, so a big
    running skyline against a handful of incoming rows is one tile.
    """
    if a.shape[0] > b.shape[0]:
        b_out, a_out = dominated_both_ways(b, a, block)
        return a_out, b_out
    n_a, n_b = a.shape[0], b.shape[0]
    a_out = np.zeros(n_a, dtype=bool)
    b_out = np.zeros(n_b, dtype=bool)
    if n_a == 0:
        return a_out, b_out
    rows_b = max(block, (block * block) // min(n_a, block))
    a_cols, b_cols = _columns(a), _columns(b)
    for i in range(0, n_a, block):
        for j in range(0, n_b, rows_b):
            tile_a = a_cols[:, i : i + block]
            tile_b = b_cols[:, j : j + rows_b]
            shape = (tile_a.shape[1], tile_b.shape[1])
            nw_ab = np.ones(shape, dtype=bool)
            nw_ba_t = np.ones(shape, dtype=bool)
            for col_a, col_b in zip(tile_a, tile_b):
                col_a = col_a[:, None]
                nw_ab &= col_a <= col_b
                nw_ba_t &= col_a >= col_b
            b_out[j : j + rows_b] |= (nw_ab & ~nw_ba_t).any(axis=0)
            a_out[i : i + block] |= (nw_ba_t & ~nw_ab).any(axis=1)
    return a_out, b_out


def undominated_in_block(rows: np.ndarray) -> np.ndarray:
    """Mask over ``rows`` of those no other row of the block dominates.

    Exact in any row order: dominance is irreflexive and transitive, so
    every dominated row has an undominated dominator, and this one matrix
    decides what a sequential window scan over the block would keep. A
    single :func:`no_worse_matrix` serves both directions.
    """
    nw = no_worse_matrix(rows, rows)
    return ~(nw & ~nw.T).any(axis=0)


def incomparable(
    a: Sequence[float],
    b: Sequence[float],
    preferences: Optional[Sequence[Preference]] = None,
) -> bool:
    """True iff neither vector dominates the other and they differ."""
    return (
        tuple(a) != tuple(b)
        and not dominates_values(a, b, preferences)
        and not dominates_values(b, a, preferences)
    )


class ComparisonCounter:
    """Counts dominance comparisons, split by operand representation.

    The paper's hybrid storage argument (Section 4.2) is that comparing
    small integer IDs is cheaper than comparing raw float values. The
    counter records both kinds so the device cost model can convert
    operation counts into simulated PDA time.
    """

    __slots__ = ("id_comparisons", "value_comparisons", "distance_checks")

    def __init__(self) -> None:
        self.id_comparisons = 0
        self.value_comparisons = 0
        self.distance_checks = 0

    def count_id(self, n: int = 1) -> None:
        """Record ``n`` integer-ID comparisons."""
        self.id_comparisons += n

    def count_value(self, n: int = 1) -> None:
        """Record ``n`` raw-value comparisons."""
        self.value_comparisons += n

    def count_distance(self, n: int = 1) -> None:
        """Record ``n`` Euclidean distance checks."""
        self.distance_checks += n

    @property
    def total(self) -> int:
        """All comparisons of any kind."""
        return self.id_comparisons + self.value_comparisons + self.distance_checks

    def merge(self, other: "ComparisonCounter") -> None:
        """Accumulate another counter into this one."""
        self.id_comparisons += other.id_comparisons
        self.value_comparisons += other.value_comparisons
        self.distance_checks += other.distance_checks

    def as_tuple(self) -> Tuple[int, int, int]:
        """``(id_comparisons, value_comparisons, distance_checks)``."""
        return (self.id_comparisons, self.value_comparisons, self.distance_checks)

    def __repr__(self) -> str:
        return (
            f"ComparisonCounter(id={self.id_comparisons}, "
            f"value={self.value_comparisons}, dist={self.distance_checks})"
        )
