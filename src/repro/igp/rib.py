"""Routing information base: per-prefix routes as computed by SPF.

A route to a prefix is the set of *contributions* achieving the minimal total
cost (IGP distance to the announcing node plus the announcement metric).  A
contribution remembers which node announced the prefix and through which
first-hop neighbor the announcer is reached; this is exactly the information
the FIB needs to apply Fibbing's fake-node resolution while preserving
multiplicity ("R1 twice" in the paper's Fig. 1c).

A lie's fake node is not in the SPF result: it is a leaf reached through
its anchor, so its total is ``(dist(anchor) + link_cost) + prefix_cost`` —
the float sums Dijkstra would form with the fake node in the graph — and its
first hops are the anchor's, or the fake node itself at the anchor.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from types import MappingProxyType
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Set, Tuple

from repro.igp.graph import ComputationGraph, GraphChange
from repro.igp.spf import ShortestPaths, compute_spf, costs_equal
from repro.util.errors import RoutingError
from repro.util.prefixes import Prefix

__all__ = [
    "RouteContribution",
    "Route",
    "Rib",
    "compute_rib",
    "update_rib",
    "dirty_prefixes",
    "rib_digest",
]


@dataclass(frozen=True)
class RouteContribution:
    """One equal-cost way of reaching a prefix.

    ``next_hop`` is a first-hop neighbor of the computing router in the
    *computation graph* (so it may be a fake node when the computing router
    is the lie's anchor); ``None`` means the computing router announces the
    prefix itself (local delivery).
    """

    announcer: str
    next_hop: Optional[str]
    announcer_is_fake: bool = False
    next_hop_is_fake: bool = False


@dataclass(frozen=True)
class Route:
    """Best route of one router toward one prefix."""

    prefix: Prefix
    cost: float
    contributions: Tuple[RouteContribution, ...]

    @property
    def is_local(self) -> bool:
        """Whether the prefix is delivered locally by the computing router."""
        return any(contribution.next_hop is None for contribution in self.contributions)

    @property
    def next_hop_nodes(self) -> Tuple[str, ...]:
        """Distinct next-hop nodes (graph-level, fake nodes included), sorted."""
        hops = {
            contribution.next_hop
            for contribution in self.contributions
            if contribution.next_hop is not None
        }
        return tuple(sorted(hops))


class Rib:
    """All best routes of one router, keyed by prefix."""

    def __init__(self, router: str, routes: Dict[Prefix, Route]) -> None:
        self.router = router
        self._routes = dict(routes)

    @property
    def prefixes(self) -> List[Prefix]:
        """Sorted list of prefixes with a route."""
        return sorted(self._routes)

    def route(self, prefix: Prefix) -> Route:
        """The best route toward ``prefix`` (raises :class:`RoutingError` if none)."""
        try:
            return self._routes[prefix]
        except KeyError:
            raise RoutingError(f"router {self.router!r} has no route to {prefix}") from None

    def has_route(self, prefix: Prefix) -> bool:
        """Whether a route toward ``prefix`` exists."""
        return prefix in self._routes

    def __iter__(self) -> Iterator[Route]:
        for prefix in self.prefixes:
            yield self._routes[prefix]

    def __len__(self) -> int:
        return len(self._routes)

    def routes_by_prefix(self) -> Mapping[Prefix, Route]:
        """Read-only view of the underlying ``{prefix: route}`` mapping."""
        return MappingProxyType(self._routes)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"Rib(router={self.router!r}, prefixes={len(self._routes)})"


def _route_for_prefix(
    graph: ComputationGraph,
    router: str,
    spf: ShortestPaths,
    prefix: Prefix,
) -> Optional[Route]:
    """The best route of ``router`` toward ``prefix``, or ``None`` if unroutable."""
    distance = spf.distance
    totals: Dict[str, float] = {}
    for announcer, metric in graph.announcers(prefix).items():
        lie = graph.attachment(announcer)
        dist = distance.get(announcer if lie is None else lie.anchor)
        if dist is not None:
            totals[announcer] = dist + metric if lie is None else (dist + lie.link_cost) + metric
    if not totals:
        return None
    best_cost = min(totals.values())

    contributions: List[RouteContribution] = []
    # Ties are detected with the same symmetric relative tolerance as SPF's
    # ECMP comparison (costs_equal), not with ``best + tolerance(best)``:
    # the asymmetric form under-estimates the tolerance of the larger total
    # and can drop an announcer that SPF itself would consider tied.
    for announcer in sorted(totals):
        total = totals[announcer]
        if total > best_cost and not costs_equal(total, best_cost):
            continue
        lie = graph.attachment(announcer)
        if lie is None and announcer == router:
            contributions.append(RouteContribution(announcer=announcer, next_hop=None))
        elif lie is None:
            contributions.extend(
                RouteContribution(announcer=announcer, next_hop=next_hop)
                for next_hop in sorted(spf.next_hops[announcer])
            )
        elif lie.anchor == router:
            contributions.append(
                RouteContribution(
                    announcer=announcer,
                    next_hop=announcer,
                    announcer_is_fake=True,
                    next_hop_is_fake=True,
                )
            )
        else:
            contributions.extend(
                RouteContribution(announcer=announcer, next_hop=next_hop, announcer_is_fake=True)
                for next_hop in sorted(spf.next_hops[lie.anchor])
            )
    return Route(prefix=prefix, cost=best_cost, contributions=tuple(contributions))


def compute_rib(
    graph: ComputationGraph,
    router: str,
    spf: Optional[ShortestPaths] = None,
) -> Rib:
    """Compute the RIB of ``router`` over ``graph``.

    ``spf`` can be supplied when the caller already ran SPF from ``router``
    (the per-router process reuses one SPF run to build the whole RIB).
    """
    if spf is None:
        spf = compute_spf(graph, router)
    elif spf.source != router:
        raise RoutingError(
            f"provided SPF was computed from {spf.source!r}, not from {router!r}"
        )

    routes: Dict[Prefix, Route] = {}
    for prefix in graph.prefixes:
        route = _route_for_prefix(graph, router, spf, prefix)
        if route is not None:
            routes[prefix] = route
    return Rib(router, routes)


def dirty_prefixes(
    prev: Rib,
    prev_spf: ShortestPaths,
    graph: ComputationGraph,
    spf: ShortestPaths,
    change: GraphChange,
) -> Set[Prefix]:
    """The prefixes whose route may differ from ``prev`` after ``change``.

    A prefix is *dirty* when any input of its route resolution moved:

    * its announcers changed (``change.prefixes``, which also names the
      prefix of every lie installed, withdrawn or altered),
    * the SPF state of any node changed — distance or first-hop ECMP set —
      and that node announces the prefix or anchors a lie for it (an
      announcer appearing, vanishing or moving beyond the ECMP tolerance is
      a distance change).

    Every other prefix resolves from bit-identical inputs, so its previous
    :class:`Route` object is reused wholesale by :func:`update_rib`.  A
    lie-only change leaves the SPF result untouched (``spf is prev_spf``),
    so it dirties the lies' prefixes and nothing else.
    """
    dirty: Set[Prefix] = set(change.prefixes)
    if spf is not prev_spf:
        moved = {
            node
            for node in prev_spf.distance.keys() | spf.distance.keys()
            if prev_spf.distance.get(node) != spf.distance.get(node)
            or prev_spf.next_hops.get(node) != spf.next_hops.get(node)
        }
        for node in moved:
            dirty.update(graph.announcements_of(node))
        dirty.update(lie.prefix for lie in graph.fake_nodes.values() if lie.anchor in moved)
    return dirty


def update_rib(
    prev: Rib,
    graph: ComputationGraph,
    spf: ShortestPaths,
    dirty: Iterable[Prefix],
) -> Rib:
    """Repair ``prev`` by re-resolving only the ``dirty`` prefixes.

    Clean routes are carried over as the same :class:`Route` objects; callers
    must treat :class:`Rib` and :class:`Route` as immutable.  ``dirty`` must
    come from :func:`dirty_prefixes` (or be a superset of it) for the result
    to equal a from-scratch :func:`compute_rib`.
    """
    if spf.source != prev.router:
        raise RoutingError(
            f"provided SPF was computed from {spf.source!r}, not from {prev.router!r}"
        )
    routes = dict(prev.routes_by_prefix())
    for prefix in dirty:
        route = _route_for_prefix(graph, prev.router, spf, prefix)
        if route is None:
            routes.pop(prefix, None)
        else:
            routes[prefix] = route
    return Rib(prev.router, routes)


def rib_digest(rib: Rib) -> str:
    """Stable hex digest of a RIB's externally observable content.

    Covers every prefix, the exact (``repr``-level) route cost, and each
    contribution's announcer, next hop and fake-node flags, in deterministic
    order — the golden regression snapshots pin these per router so that
    route-level regressions fail loudly even when link loads happen to agree.
    """
    hasher = hashlib.sha256()
    for route in rib:
        hasher.update(f"{route.prefix}|{route.cost!r}".encode())
        for contribution in route.contributions:
            hasher.update(
                (
                    f"|{contribution.announcer}>{contribution.next_hop}"
                    f"~{int(contribution.announcer_is_fake)}{int(contribution.next_hop_is_fake)}"
                ).encode()
            )
        hasher.update(b";")
    return hasher.hexdigest()
