"""Result assembly on the query originator (Section 4.3).

The originator merges each incoming reduced local skyline ``SK'_i`` into
its running result ``SK_org``: duplicates are identified by location only
(no two distinct sites share an ``(x, y)``), and dominance is resolved in
both directions so non-qualifying tuples from either side are removed.
The paper does this "within a simple nested loop"; the implementation
below mirrors those semantics and is also used by intermediate devices in
depth-first forwarding, which merge results en route.

Two execution paths produce bit-identical results:

* the **incremental** path (the default, and the only production path)
  maintains a running ``(xy, values, site_ids)`` array triple plus its
  normalization, eliminates duplicates against a persistent location
  set (one hash lookup per incoming row instead of rebuilding the set
  per merge), and resolves dominance in both directions with one call
  to the tiled :func:`~repro.core.dominance.dominated_both_ways` kernel
  per contribution, so peak memory is bounded regardless of skyline
  size. :func:`merge_skylines` (the depth-first per-hop merge) does the
  same with one sort-based duplicate pass instead of the location set;
* the **legacy** path (:func:`merge_skylines` with ``block=None`` and
  :class:`SkylineAssembler` in ``mode="legacy"``) rebuilds a
  :class:`~repro.storage.relation.Relation` per contribution with one
  unbounded ``(C, I, d)`` broadcast. It is the oracle the differential
  tests and the ``bench_query`` / ``bench_merge`` ratio gates compare
  against, selected only by explicit argument.

``tests/test_fast_path_parity.py``, ``tests/test_merge_partition.py``
and ``tests/test_kernels.py`` pin the two paths to each other bit for
bit.
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

from ..storage.relation import Relation
from ..storage.schema import RelationSchema
from .dominance import DEFAULT_BLOCK, dominated_both_ways, dominated_mask

__all__ = [
    "merge_skylines",
    "SkylineAssembler",
    "ASSEMBLERS",
]

#: Recognized assembler modes: the production path and its oracle.
ASSEMBLERS = ("incremental", "legacy")


def _dominated_by(
    by: np.ndarray, targets: np.ndarray, block: Optional[int]
) -> np.ndarray:
    """Mask over ``targets`` rows strictly dominated by some ``by`` row.

    Both inputs are in minimization space. ``block=None`` runs one
    unbounded broadcast (the legacy reference); an integer runs the
    production kernel :func:`~repro.core.dominance.dominated_mask` —
    identical output, bounded peak memory.
    """
    if block is not None:
        return dominated_mask(by, targets, block)
    n_targets = targets.shape[0]
    if by.shape[0] == 0 or n_targets == 0:
        return np.zeros(n_targets, dtype=bool)
    no_worse = (by[:, None, :] <= targets[None, :, :]).all(axis=2)
    better = (by[:, None, :] < targets[None, :, :]).any(axis=2)
    return (no_worse & better).any(axis=0)


def merge_skylines(
    current: Relation,
    incoming: Relation,
    block: Optional[int] = DEFAULT_BLOCK,
) -> Relation:
    """Merge an incoming partial skyline into the current one.

    Args:
        current: The running merged skyline. Precondition: it is
            dominance-free. The production path lets every new incoming
            row evict ``current`` rows, which is exact only because an
            incoming row that ``current`` dominates cannot dominate a
            ``current`` row (transitivity).
        incoming: A reduced local skyline ``SK'_i``. Its rows at
            locations already seen (in ``current`` or earlier in
            ``incoming``) are removed before any dominance test, so a
            same-location row with different values never evicts.
        block: Chunk edge for the blocked dominance pass; ``None`` runs
            the legacy reference path (one unbounded broadcast per
            direction, ``np.unique`` and a location set). Output is
            bit-identical either way.

    Returns:
        The updated skyline: duplicates dropped (first copy wins),
        dominated tuples from either side removed.
    """
    if current.schema != incoming.schema:
        raise ValueError("cannot merge skylines over different schemas")
    if incoming.cardinality == 0:
        return current
    if block is None:
        return _merge_reference(current, incoming)
    if current.cardinality == 0:
        return _first_copies(incoming)
    keep_incoming = _new_locations(current.xy, incoming.xy)

    cur_dominated, inc_dominated = dominated_both_ways(
        current.normalized_values(),
        incoming.normalized_values()[keep_incoming],
        block,
    )
    keep_incoming[keep_incoming] = ~inc_dominated
    keep_current = ~cur_dominated
    return _stack(current, keep_current, incoming, keep_incoming)


def _merge_reference(current: Relation, incoming: Relation) -> Relation:
    """The legacy merge: the oracle :func:`merge_skylines` is tested
    against, selected by ``block=None``."""
    if current.cardinality == 0:
        return _dedup_within(incoming)
    incoming = _dedup_within(incoming)

    cur_vals = current.normalized_values()
    inc_vals = incoming.normalized_values()

    # Duplicate detection by (x, y) only (Section 4.3).
    dup_incoming = _duplicate_mask(incoming.xy, current.xy)

    # a dominates b: a <= b everywhere, a < b somewhere (minimization
    # space). Incoming tuples are tested against the *pre-merge* current
    # set and vice versa, exactly as the nested loop of the paper does.
    inc_dominated = _dominated_by(cur_vals, inc_vals, None)
    keep_incoming = ~(inc_dominated | dup_incoming)
    # Only non-duplicate incoming survivors may evict current members —
    # a duplicate carries no new information, and a dominated incoming
    # tuple cannot dominate anything the current set keeps.
    cur_dominated = _dominated_by(inc_vals[keep_incoming], cur_vals, None)
    return _stack(current, ~cur_dominated, incoming, keep_incoming)


def _stack(
    current: Relation,
    keep_current: np.ndarray,
    incoming: Relation,
    keep_incoming: np.ndarray,
) -> Relation:
    """The kept ``current`` rows followed by the kept ``incoming`` rows."""
    return Relation._wrap(
        current.schema,
        np.vstack([current.xy[keep_current], incoming.xy[keep_incoming]]),
        np.vstack([current.values[keep_current], incoming.values[keep_incoming]]),
        np.concatenate(
            [current.site_ids[keep_current], incoming.site_ids[keep_incoming]]
        ),
    )


def _new_locations(seen: np.ndarray, xy: np.ndarray) -> np.ndarray:
    """Mask over ``xy`` rows whose exact location appears neither in
    ``seen`` nor earlier in ``xy`` — first copy wins.

    One stable sort of both coordinate sets puts equal locations next
    to each other in input order, so a row is a copy iff it equals its
    predecessor. Each ``(x, y)`` row is viewed as one complex number,
    whose sort order is ``x`` then ``y``: a single sort key instead of a
    two-key lexsort. Float comparison equates ``-0.0`` and ``0.0``,
    exactly as the reference's location set does.
    """
    both = np.concatenate([seen, xy])
    keys = both.view(np.complex128)[:, 0]
    order = np.argsort(keys, kind="stable")
    ranked = keys[order]
    copy = np.empty(keys.shape[0], dtype=bool)
    copy[order[:1]] = False
    copy[order[1:]] = ranked[1:] == ranked[:-1]
    return ~copy[seen.shape[0]:]


def _first_copies(relation: Relation) -> Relation:
    """``relation`` without its same-location duplicates (first copy
    wins); ``relation`` itself when it has none."""
    keep = _new_locations(relation.xy[:0], relation.xy)
    if keep.all():
        return relation
    return relation.take(np.flatnonzero(keep))


def _duplicate_mask(xy: np.ndarray, against: np.ndarray) -> np.ndarray:
    """Rows of ``xy`` whose exact location appears in ``against``."""
    if against.shape[0] == 0 or xy.shape[0] == 0:
        return np.zeros(xy.shape[0], dtype=bool)
    seen = set(map(tuple, against.tolist()))
    return np.fromiter(
        (key in seen for key in map(tuple, xy.tolist())),
        dtype=bool,
        count=xy.shape[0],
    )


def _dedup_within(relation: Relation) -> Relation:
    """Drop same-location duplicates inside one partial result."""
    if relation.cardinality <= 1:
        return relation
    _, first = np.unique(relation.xy, axis=0, return_index=True)
    if first.shape[0] == relation.cardinality:
        return relation
    return relation.take(np.sort(first))


class SkylineAssembler:
    """Stateful assembler living on the query originator.

    Seed it with the originator's own local skyline, feed it each
    arriving ``SK'_i`` with :meth:`add`, and read the final (or current
    partial) answer from :meth:`result`. Merging is incremental, exactly
    as the paper describes.

    Args:
        schema: The shared relation schema.
        initial: The originator's own local skyline (optional seed).
            Precondition: dominance-free, as every skyline is; the
            incremental merge relies on it (see :meth:`_add_incremental`).
        mode: ``"incremental"`` (default) or ``"legacy"`` (the oracle);
            both produce bit-identical results.
        block: Chunk edge for the blocked dominance pass. Ignored in
            legacy mode (which always uses the unbounded broadcast).
    """

    def __init__(
        self,
        schema: RelationSchema,
        initial: Optional[Relation] = None,
        *,
        mode: str = "incremental",
        block: int = DEFAULT_BLOCK,
    ):
        if mode not in ASSEMBLERS:
            raise ValueError(
                f"unknown assembler {mode!r}; expected one of {ASSEMBLERS}"
            )
        if block < 1:
            raise ValueError("merge block must be >= 1")
        self._mode = mode
        self._block = block
        self._schema = schema
        self._merges = 0
        if initial is None:
            initial = Relation.empty(schema)
        if mode == "legacy":
            self._current = _dedup_within(initial)
            return
        seed = _first_copies(initial)
        self._coords: set = set(map(tuple, seed.xy.tolist()))
        self._result_cache: Optional[Relation] = seed
        self._xy = seed.xy
        self._values = seed.values
        self._site_ids = seed.site_ids
        self._norm = (
            seed.normalized_values()
            if seed.cardinality
            else np.empty((0, schema.dimensions), dtype=np.float64)
        )

    @property
    def merges(self) -> int:
        """How many partial results have been merged in."""
        return self._merges

    @property
    def mode(self) -> str:
        """The assembler mode."""
        return self._mode

    def _add_incremental(self, incoming: Relation) -> None:
        """Merge one contribution into the running arrays.

        Precondition: the running result is dominance-free (the seed is
        a skyline, and every merge keeps it one). Duplicates are dropped
        first, then one two-way dominance pass over the new rows decides
        both sides: a new row the running result dominates cannot
        dominate a running row, so every new row may evict.
        """
        inc_xy = incoming.xy
        # Duplicate elimination in one pass: against the persistent
        # location set (O(1) lookups instead of rebuilding the set per
        # merge) and within the contribution itself (first copy wins).
        coords = self._coords
        keys = list(map(tuple, inc_xy.tolist()))
        fresh = []
        within: set = set()
        for i, key in enumerate(keys):
            if key not in coords and key not in within:
                fresh.append(i)
                within.add(key)
        if not fresh:
            return
        kept = np.asarray(fresh, dtype=np.int64)
        kept_norm = incoming.normalized_values()[kept]

        cur_dominated, inc_dominated = dominated_both_ways(
            self._norm, kept_norm, self._block
        )
        if inc_dominated.all():
            return
        kept = kept[~inc_dominated]
        kept_norm = kept_norm[~inc_dominated]
        if cur_dominated.any():
            keep = ~cur_dominated
            coords.difference_update(
                map(tuple, self._xy[cur_dominated].tolist())
            )
            self._xy = self._xy[keep]
            self._values = self._values[keep]
            self._site_ids = self._site_ids[keep]
            self._norm = self._norm[keep]

        self._xy = np.vstack([self._xy, inc_xy[kept]])
        self._values = np.vstack([self._values, incoming.values[kept]])
        self._site_ids = np.concatenate(
            [self._site_ids, incoming.site_ids[kept]]
        )
        self._norm = np.vstack([self._norm, kept_norm])
        coords.update(keys[i] for i in kept.tolist())

    def add(self, incoming: Relation) -> None:
        """Merge one incoming partial skyline."""
        if self._mode == "legacy":
            self._current = merge_skylines(self._current, incoming, block=None)
            self._merges += 1
            return
        if incoming.schema != self._schema:
            raise ValueError("cannot merge skylines over different schemas")
        self._merges += 1
        if incoming.cardinality == 0:
            return
        self._result_cache = None
        self._add_incremental(incoming)

    def add_all(self, results: Iterable[Relation]) -> None:
        """Merge a batch of partial skylines."""
        for rel in results:
            self.add(rel)

    def result(self) -> Relation:
        """The current merged skyline ``SK_org``."""
        if self._mode == "legacy":
            return self._current
        if self._result_cache is None:
            if self._xy.shape[0] == 0:
                self._result_cache = Relation.empty(self._schema)
            else:
                self._result_cache = Relation._wrap(
                    self._schema, self._xy, self._values, self._site_ids
                )
        return self._result_cache
