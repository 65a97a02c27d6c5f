"""Shortest-path-first computation (Dijkstra) with full ECMP support.

The result of an SPF run from a source router contains, for every reachable
router, the distance, the complete set of first-hop neighbors over which an
equal-cost shortest path exists (the ECMP set), and the shortest-path DAG
predecessors.  SPF runs over routers and edges only: a lie's fake node is a
leaf that route resolution (:mod:`repro.igp.rib`) reaches through its
anchor, so installing or withdrawing a lie never calls :func:`update_spf`.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.igp.graph import ComputationGraph, EdgeDelta
from repro.util.errors import RoutingError

__all__ = ["ShortestPaths", "compute_spf", "update_spf", "cost_tolerance", "costs_equal"]

#: Relative tolerance when comparing path costs for equality (ECMP detection).
#: IGP costs are small integers in practice, but the optimizer can emit
#: fractional costs, so exact float equality would be fragile.  The tolerance
#: is *relative* to the magnitude of the compared costs (with an absolute
#: floor of ``_COST_EPSILON`` for sub-unit costs), so that equal-cost paths
#: are still detected when accumulated float rounding grows with the path
#: cost itself — see :func:`cost_tolerance`.
_COST_EPSILON = 1e-9


def cost_tolerance(scale: float) -> float:
    """The comparison tolerance appropriate for path costs of size ``scale``."""
    return _COST_EPSILON * max(1.0, abs(scale))


def costs_equal(first: float, second: float) -> bool:
    """Whether two path costs are equal within the (relative) SPF tolerance."""
    return abs(first - second) <= cost_tolerance(max(abs(first), abs(second)))


@dataclass
class ShortestPaths:
    """Outcome of one SPF run from ``source``.

    Attributes
    ----------
    source:
        The router the computation was run from.
    distance:
        Mapping from node name to its shortest distance from ``source``.
        Unreachable nodes are absent.
    next_hops:
        Mapping from node name to the frozen set of *first-hop neighbors of
        the source* usable to reach that node along some shortest path.  The
        source itself maps to an empty set.
    predecessors:
        Mapping from node name to the set of its predecessors on the
        shortest-path DAG rooted at ``source``.
    """

    source: str
    distance: Dict[str, float] = field(default_factory=dict)
    next_hops: Dict[str, FrozenSet[str]] = field(default_factory=dict)
    predecessors: Dict[str, FrozenSet[str]] = field(default_factory=dict)

    def reachable(self, node: str) -> bool:
        """Whether ``node`` is reachable from the source."""
        return node in self.distance

    def distance_to(self, node: str) -> float:
        """Shortest distance to ``node``; raises :class:`RoutingError` if unreachable."""
        try:
            return self.distance[node]
        except KeyError:
            raise RoutingError(f"{node!r} is unreachable from {self.source!r}") from None

    def next_hops_to(self, node: str) -> FrozenSet[str]:
        """ECMP set of first hops toward ``node``; raises if unreachable."""
        if node not in self.distance:
            raise RoutingError(f"{node!r} is unreachable from {self.source!r}")
        return self.next_hops.get(node, frozenset())

    def __contains__(self, node: str) -> bool:
        return node in self.distance


def compute_spf(graph: ComputationGraph, source: str) -> ShortestPaths:
    """Run Dijkstra from ``source`` over ``graph`` and return :class:`ShortestPaths`.

    The implementation keeps, for every settled node, the *set* of
    predecessors whose relaxation achieved the minimal distance (within
    ``_COST_EPSILON``); the ECMP next-hop sets are then derived by walking
    those predecessor sets back to the source's own neighbors.  Tied paths
    can differ in the last ulp of their float sums; the distance kept is the
    smallest sum, whichever path relaxed the node first, and
    :func:`update_spf` keeps the same one.
    """
    if not graph.has_node(source):
        raise RoutingError(f"SPF source {source!r} is not in the computation graph")

    distance: Dict[str, float] = {source: 0.0}
    predecessors: Dict[str, Set[str]] = {source: set()}
    settled: Set[str] = set()
    # Heap entries are (distance, node); stale entries are skipped when popped.
    heap: List[Tuple[float, str]] = [(0.0, source)]

    while heap:
        dist, node = heapq.heappop(heap)
        if node in settled:
            continue
        if dist > distance.get(node, float("inf")) + cost_tolerance(dist):
            continue
        settled.add(node)
        for neighbor, cost in graph.successors(node).items():
            candidate = dist + cost
            current = distance.get(neighbor)
            if current is None or candidate < current - cost_tolerance(current):
                distance[neighbor] = candidate
                predecessors[neighbor] = {node}
                heapq.heappush(heap, (candidate, neighbor))
            elif costs_equal(candidate, current):
                predecessors[neighbor].add(node)
                if candidate < current and neighbor not in settled:
                    distance[neighbor] = candidate
                    heapq.heappush(heap, (candidate, neighbor))

    next_hops = _derive_next_hops(source, distance, predecessors)
    return ShortestPaths(
        source=source,
        distance=distance,
        next_hops={node: frozenset(hops) for node, hops in next_hops.items()},
        predecessors={node: frozenset(preds) for node, preds in predecessors.items()},
    )


def update_spf(
    prev: ShortestPaths,
    graph: ComputationGraph,
    deltas: Iterable[EdgeDelta],
    counters: Optional[object] = None,
) -> ShortestPaths:
    """Incrementally repair ``prev`` after the edge changes in ``deltas``.

    This is the classic incremental-Dijkstra (Ramalingam–Reps) approach:

    1. every node whose previous shortest-path DAG ran over a removed or
       cost-increased edge is *invalidated* (the affected subtree);
    2. the remaining distances are exact and serve as the trusted frontier: a
       bounded Dijkstra re-relaxes only the invalidated region plus whatever
       the inserted/cheapened edges can improve;
    3. ECMP predecessor sets and first-hop sets are re-derived for the nodes
       whose distance or incident costs changed, and first-hop changes are
       propagated down the (new) shortest-path DAG in distance order.

    The repair runs however large the invalidated region is — up to every
    node but the source, which has no predecessor because edge costs are
    positive.  The returned object is ``prev`` itself when the deltas turn
    out not to affect this source at all — callers must treat
    :class:`ShortestPaths` as immutable.

    ``counters``, when given, must expose a mutable ``incremental_updates``
    attribute (see :class:`repro.igp.spf_cache.SpfCounters`), incremented
    once per call.
    """
    source = prev.source
    if not graph.has_node(source):
        raise RoutingError(f"SPF source {source!r} is not in the computation graph")

    # Collapse repeated changes of the same directed edge: the oldest
    # ``old_cost`` and the graph's current state are what matters.
    collapsed: Dict[Tuple[str, str], float | None] = {}
    for delta in deltas:
        key = (delta.source, delta.target)
        if key not in collapsed:
            collapsed[key] = delta.old_cost
    effective: List[EdgeDelta] = []
    for (u, v), old_cost in collapsed.items():
        new_cost = graph.successors(u).get(v) if graph.has_node(u) else None
        if old_cost != new_cost:
            effective.append(EdgeDelta(u, v, old_cost, new_cost))
    if counters is not None:
        counters.incremental_updates += 1
    if not effective:
        return prev

    # ----- 1. invalidate the subtree hanging off worsened DAG edges ------ #
    children: Dict[str, List[str]] = {}
    for node, preds in prev.predecessors.items():
        for pred in preds:
            children.setdefault(pred, []).append(node)
    invalid: Set[str] = set()
    stack: List[str] = []
    for delta in effective:
        worsened = delta.old_cost is not None and (
            delta.new_cost is None or delta.new_cost > delta.old_cost
        )
        if worsened and delta.source in prev.predecessors.get(delta.target, ()):
            stack.append(delta.target)
    while stack:
        node = stack.pop()
        if node in invalid:
            continue
        invalid.add(node)
        stack.extend(children.get(node, ()))

    # ----- 2. bounded Dijkstra over the affected region ------------------ #
    # Distances of non-invalidated, still-present nodes are exact upper
    # bounds that decreases may still improve; invalidated nodes re-enter
    # through their best edge from the trusted region.
    tentative: Dict[str, float] = {
        node: dist
        for node, dist in prev.distance.items()
        if node not in invalid and graph.has_node(node)
    }
    tentative[source] = 0.0
    heap: List[Tuple[float, str]] = []
    for node in invalid:
        if not graph.has_node(node):
            continue
        for neighbor, cost in graph.predecessors_of(node).items():
            base = tentative.get(neighbor)
            if base is not None:
                heapq.heappush(heap, (base + cost, node))
    for delta in effective:
        if delta.new_cost is None or not graph.has_node(delta.target):
            continue
        base = tentative.get(delta.source)
        if base is not None:
            heapq.heappush(heap, (base + delta.new_cost, delta.target))

    settled: Set[str] = set()
    dist_dirty: Set[str] = set(node for node in invalid if graph.has_node(node))
    while heap:
        dist, node = heapq.heappop(heap)
        if node in settled:
            continue
        current = tentative.get(node)
        # Exact comparisons, not tolerant ones: a tied path with a smaller
        # float sum must win here as it does in compute_spf.
        if current is not None and dist >= current:
            settled.add(node)
            continue
        tentative[node] = dist
        settled.add(node)
        dist_dirty.add(node)
        for neighbor, cost in graph.successors(node).items():
            candidate = dist + cost
            known = tentative.get(neighbor)
            if neighbor in invalid and neighbor not in settled:
                heapq.heappush(heap, (candidate, neighbor))
            elif known is None or candidate < known:
                heapq.heappush(heap, (candidate, neighbor))

    # Invalidated nodes that were never re-settled are now unreachable.
    dist_dirty = {node for node in dist_dirty if node in tentative}

    # ----- 3. re-derive ECMP predecessor sets for affected nodes --------- #
    pred_dirty: Set[str] = set(dist_dirty)
    for delta in effective:
        pred_dirty.add(delta.target)
    for node in dist_dirty:
        for neighbor in graph.successors(node):
            pred_dirty.add(neighbor)
    pred_dirty = {node for node in pred_dirty if node in tentative and node != source}

    new_predecessors: Dict[str, FrozenSet[str]] = {}
    for node in pred_dirty:
        dist = tentative[node]
        preds = {
            neighbor
            for neighbor, cost in graph.predecessors_of(node).items()
            if neighbor in tentative and costs_equal(tentative[neighbor] + cost, dist)
        }
        new_predecessors[node] = frozenset(preds)

    def preds_of(node: str) -> FrozenSet[str]:
        if node == source:
            return frozenset()
        got = new_predecessors.get(node)
        if got is not None:
            return got
        return prev.predecessors.get(node, frozenset())

    # ----- 4. propagate first-hop changes down the new DAG --------------- #
    next_hops: Dict[str, FrozenSet[str]] = {
        node: prev.next_hops[node]
        for node in tentative
        if node in prev.next_hops
    }
    next_hops[source] = frozenset()
    hop_heap: List[Tuple[float, str]] = []
    for node in pred_dirty | (dist_dirty - {source}):
        if node in tentative:
            heapq.heappush(hop_heap, (tentative[node], node))
    hop_done: Set[str] = set()
    while hop_heap:
        _, node = heapq.heappop(hop_heap)
        if node in hop_done or node == source:
            hop_done.add(node)
            continue
        hop_done.add(node)
        hops: Set[str] = set()
        for pred in preds_of(node):
            if pred == source:
                hops.add(node)
            else:
                hops.update(next_hops.get(pred, frozenset()))
        new_hops = frozenset(hops)
        old_hops = next_hops.get(node)
        next_hops[node] = new_hops
        if old_hops is None or new_hops != old_hops:
            for neighbor in graph.successors(node):
                if (
                    neighbor in tentative
                    and neighbor not in hop_done
                    and node in preds_of(neighbor)
                ):
                    heapq.heappush(hop_heap, (tentative[neighbor], neighbor))

    predecessors = {
        node: (new_predecessors[node] if node in new_predecessors else preds_of(node))
        for node in tentative
    }
    predecessors[source] = frozenset()
    return ShortestPaths(
        source=source,
        distance=tentative,
        next_hops=next_hops,
        predecessors=predecessors,
    )


def _derive_next_hops(
    source: str,
    distance: Dict[str, float],
    predecessors: Dict[str, Set[str]],
) -> Dict[str, Set[str]]:
    """Propagate first-hop sets down the shortest-path DAG.

    Nodes are processed in order of increasing distance, so every
    predecessor's next-hop set is final before it is consumed.
    """
    next_hops: Dict[str, Set[str]] = {source: set()}
    for node in sorted(distance, key=lambda name: (distance[name], name)):
        if node == source:
            continue
        hops: Set[str] = set()
        for predecessor in predecessors.get(node, set()):
            if predecessor == source:
                hops.add(node)
            else:
                hops.update(next_hops.get(predecessor, set()))
        next_hops[node] = hops
    return next_hops
