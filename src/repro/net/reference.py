"""Net-layer oracles: the worlds the production path is tested against.

The production :class:`~repro.net.world.World` answers connectivity from
the vectorised :class:`~repro.net.spatial_index.NeighborIndex` and
delivers broadcasts as waves. The two subclasses here each swap in the
original implementation of what they replace, and nothing else:

* :class:`ScalarWorld` — connectivity from scalar per-pair unit-disk
  tests against the mobility model (the pre-index O(m²) path); no
  position memo, no adjacency cache. Delivery is the production wave.
* :class:`ReferenceWorld` — one engine event per broadcast receiver,
  and an index whose adjacency comes from the Python-loop grid build
  instead of the vectorised one.

Both replay production runs bit for bit in every result-bearing
quantity; only the engine's raw event tally differs under
:class:`ReferenceWorld`. No production module imports this one. Tests
and ``benchmarks/bench_world.py`` pick an oracle with the keyword-only
``world_cls=`` of :func:`~repro.protocol.coordinator.build_network`,
:func:`~repro.protocol.coordinator.run_manet_simulation` and
:func:`~repro.continuous.runner.run_continuous_simulation`, or construct
one directly with the same arguments as :class:`World`.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Tuple

import numpy as np

from .messages import Frame
from .spatial_index import _HALF_NEIGHBORHOOD, NeighborIndex
from .world import World

__all__ = ["ScalarWorld", "ReferenceWorld"]


def _bfs(start: int, neighbors: Callable[[int], List[int]]) -> set:
    """Python-loop breadth-first closure of ``start`` (included)."""
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for current in frontier:
            for other in neighbors(current):
                if other not in seen:
                    seen.add(other)
                    nxt.append(other)
        frontier = nxt
    return seen


class ScalarWorld(World):
    """:class:`World` with scalar O(m²) connectivity.

    Every position is a fresh scalar mobility lookup and every neighbor
    list probes each attached node in turn, bypassing the index.
    """

    def position(self, node: int) -> tuple:
        return self.mobility.position(node, self.sim.now)

    def neighbors(self, node: int) -> List[int]:
        return [
            other
            for other in sorted(self._nodes)
            if self._scalar_can_communicate(node, other)
        ]

    def reachable_from(self, node: int) -> set:
        if node not in self._nodes:
            raise ValueError(f"unknown node {node}")
        return _bfs(node, self.neighbors)

    def connectivity_snapshot(self):
        import networkx as nx

        g = nx.Graph()
        ids = self.node_ids
        g.add_nodes_from(ids)
        for i in ids:
            for j in self.neighbors(i):
                if i < j:
                    g.add_edge(i, j)
        return g

    def _scalar_can_communicate(self, a: int, b: int) -> bool:
        if a == b or a in self._down or b in self._down:
            return False
        if frozenset((a, b)) in self._blackouts:
            return False
        pa = self.position(a)
        pb = self.position(b)
        dx = pa[0] - pb[0]
        dy = pa[1] - pb[1]
        r = self.radio.radio_range
        if dx * dx + dy * dy > r * r:
            return False
        return not self._partitions or self._same_partition_side(pa, pb)


class ReferenceWorld(World):
    """:class:`World` with one delivery event per broadcast receiver and
    a Python-loop index build."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._index = _LoopBuiltIndex(self)

    def _fan_out(self, frame: Frame, delay: float) -> List[int]:
        receivers = []
        for other in self.neighbors(frame.src):
            if self._lossy():
                self.stats.drops += 1
                if self.obs.enabled:
                    self.obs.frame_dropped(frame, "loss")
                continue
            receivers.append(other)
            self.sim.schedule(
                self._jittered(delay), self._deliver_broadcast, other, frame
            )
            if self._duplicated():
                self.stats.duplicates += 1
                if self.obs.enabled:
                    self.obs.frame_duplicated(frame)
                self.sim.schedule(
                    self._jittered(delay), self._deliver_broadcast, other, frame
                )
        return receivers

    def _deliver_broadcast(self, node: int, frame: Frame) -> None:
        # Fault re-check only (no mobility re-check, matching the
        # original broadcast semantics): a receiver that crashed or lost
        # its link mid-flight hears nothing.
        if (
            node in self._down
            or frozenset((frame.src, node)) in self._blackouts
        ):
            self.stats.drops += 1
            if self.obs.enabled:
                self.obs.frame_dropped(frame, "fault")
            return
        self._deliver_to(node, frame)


class _LoopBuiltIndex(NeighborIndex):
    """The original Python-loop build (cells dict, per-pair appends,
    per-node fault filtering) answering from per-node lists, always
    through a full build."""

    def neighbors(self, node: int) -> List[int]:
        if node not in self._world._nodes:
            return super().neighbors(node)
        self._ensure()
        return self._eff[node]

    def reachable_from(self, node: int) -> set:
        self._ensure()
        return _bfs(node, self._eff.__getitem__)

    def edges(self) -> List[Tuple[int, int]]:
        self._ensure()
        return [(i, j) for i, lst in self._eff.items() for j in lst if i < j]

    def _build(self, key: Tuple[float, int, float]) -> None:
        world = self._world
        pos = self.positions()
        ids = sorted(world._nodes)
        r = world.radio.radio_range
        r2 = r * r
        geom: Dict[int, List[int]] = {i: [] for i in ids}

        # Spatial hash: cell side = radio range, so candidates live in
        # the 3x3 neighborhood of a node's cell.
        cells: Dict[Tuple[int, int], List[int]] = {}
        for i in ids:
            cell = (
                int(math.floor(pos[i, 0] / r)),
                int(math.floor(pos[i, 1] / r)),
            )
            cells.setdefault(cell, []).append(i)

        cand_a: List[int] = []
        cand_b: List[int] = []
        for (cx, cy), members in cells.items():
            for idx, u in enumerate(members):
                for v in members[idx + 1:]:
                    cand_a.append(u)
                    cand_b.append(v)
            for ox, oy in _HALF_NEIGHBORHOOD:
                other = cells.get((cx + ox, cy + oy))
                if not other:
                    continue
                for u in members:
                    for v in other:
                        cand_a.append(u)
                        cand_b.append(v)
        if cand_a:
            a = np.asarray(cand_a, dtype=np.int64)
            b = np.asarray(cand_b, dtype=np.int64)
            dx = pos[a, 0] - pos[b, 0]
            dy = pos[a, 1] - pos[b, 1]
            hits = (dx * dx + dy * dy) <= r2
            for u, v in zip(a[hits], b[hits]):
                geom[int(u)].append(int(v))
                geom[int(v)].append(int(u))

        down = world._down
        blackouts = world._blackouts
        partitions = world._partitions
        # Partition cuts assign every node a side signature; two nodes
        # communicate only when their signatures match.
        side: Dict[int, Tuple[bool, ...]] = {}
        if partitions:
            for i in ids:
                side[i] = tuple(
                    bool(pos[i, 0 if axis == "x" else 1] >= coord)
                    for axis, coord in partitions
                )
        eff: Dict[int, List[int]] = {}
        for i in ids:
            geom[i].sort()
            if i in down:
                eff[i] = []
            elif blackouts or partitions:
                eff[i] = [
                    j
                    for j in geom[i]
                    if j not in down
                    and frozenset((i, j)) not in blackouts
                    and (not partitions or side[j] == side[i])
                ]
            elif down:
                eff[i] = [j for j in geom[i] if j not in down]
            else:
                eff[i] = geom[i][:]
        self._eff = eff
        self._adj_key = key
        self._rebuilds += 1
