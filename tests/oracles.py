"""From-scratch reference implementations the differential suites judge against.

The product ships one path per layer: the incremental data-plane engines
(versioned path cache plus warm-start max-min repair) and the plan-cache
controller.  The from-scratch computations that define what those paths
must produce live here, as subclasses that override the one method where
the fast path starts:

* :class:`FromScratchDataPlaneEngine` / :class:`FromScratchAggregateEngine`
  re-route every flow (re-walk every class) over the current FIBs and
  re-run progressive filling from scratch on every event;
* :class:`ClearAndReplayController` re-plans every requirement of every
  enforce wave through validation, lie synthesis and the registry diff,
  with no plan cache, no skip bookkeeping and no baseline memo;
* :class:`ClearAndReplayBalancer` runs the merger without the controller's
  plan cache, so a reaction never reuses a merged plan.

* :class:`PerMessageFabric` floods one timeline event per LSA-hop, the
  order the product's delivery runs (:mod:`repro.igp.flooding`) must keep
  exactly; :func:`flood_per_message` puts it into a network.

Each oracle leaves the fast path's reuse counters at zero
(``dp_flows_reused``, ``dp_classes_reused``, ``ctl_plan_cache_hits``,
``ctl_merge_cache_hits``); the drivers assert that, so an oracle cannot quietly turn into a second
incremental engine.

Route resolution has a functional oracle: :func:`fake_node_rib` and
:func:`fake_node_fib` run Dijkstra with every lie as an SPF node of its own
(:func:`fake_node_graph`), the resolution that the product's leaf lies
(:mod:`repro.igp.rib`) must reproduce bit for bit.  :func:`paths_to`
enumerates the equal-cost paths of an SPF result, which only tests read.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.controller import FibbingController
from repro.core.loadbalancer import OnDemandLoadBalancer
from repro.dataplane.engine import (
    AggregateDemandEngine,
    DataPlaneEngine,
    _canonical_link_total,
)
from repro.dataplane.fairness import max_min_fair_allocation
from repro.dataplane.forwarding import route_flows_hashed
from repro.igp.fib import DEFAULT_MAX_ECMP, Fib, FibEntry, PrefixFib, _truncate
from repro.igp.flooding import FloodingFabric
from repro.igp.graph import ComputationGraph
from repro.igp.lsa import Lsa
from repro.igp.network import IgpNetwork, compute_static_fibs
from repro.igp.rib import Rib, Route, RouteContribution
from repro.igp.spf import ShortestPaths, compute_spf, costs_equal
from repro.util.errors import RoutingError, TopologyError

__all__ = [
    "ClearAndReplayBalancer",
    "ClearAndReplayController",
    "FromScratchAggregateEngine",
    "FromScratchDataPlaneEngine",
    "PerMessageFabric",
    "fake_node_fib",
    "fake_node_graph",
    "fake_node_rib",
    "flood_per_message",
    "paths_to",
]

LinkKey = Tuple[str, str]


class FromScratchDataPlaneEngine(DataPlaneEngine):
    """Per-flow engine that re-routes and re-allocates everything per event."""

    def _recompute(self, arrivals=(), departures=()) -> None:
        fibs = dict(self.fib_provider())
        outcome = route_flows_hashed(fibs, self.flows, salt=self.hash_salt)
        self._flow_paths = dict(outcome.flow_paths)
        self.counters.flows_rerouted += len(self.flows)
        self.counters.alloc_full += 1

        flow_links: Dict[int, Tuple[LinkKey, ...]] = {}
        demands: Dict[int, float] = {}
        for flow in self.flows:
            path = self._flow_paths[flow.flow_id]
            flow_links[flow.flow_id], demands[flow.flow_id], _ = self._effective_input(flow, path)

        rates = max_min_fair_allocation(flow_links, demands, self._capacities)
        self._flow_rates = rates

        contributions: Dict[LinkKey, List[Tuple[float, int]]] = {}
        for flow_id, links in flow_links.items():
            rate = rates.get(flow_id, 0.0)
            if rate <= 0:
                continue
            for link in links:
                contributions.setdefault(link, []).append((rate, 1))
        self._link_rates = {
            link: _canonical_link_total(members)
            for link, members in contributions.items()
        }


class FromScratchAggregateEngine(AggregateDemandEngine):
    """Class-level engine that re-walks and re-allocates everything per event."""

    def _recompute(self, arrivals=(), departures=()) -> None:
        fibs = dict(self.fib_provider())
        for demand_class in departures:
            self._drop_class_state(demand_class.class_id)
        for demand_class in self.classes:
            groups = self._walk_class(demand_class, fibs)
            self._install_class_groups(demand_class, groups)
        self.counters.classes_rewalked += len(self.classes)
        self.counters.alloc_full += 1

        entity_links: Dict[int, Tuple[LinkKey, ...]] = {}
        demands: Dict[int, float] = {}
        counts: Dict[int, int] = {}
        for class_id, entity_ids in self._class_entities.items():
            demand_class = self.classes.get(class_id)
            for group, entity_id in zip(self._class_groups[class_id], entity_ids):
                if group.delivered:
                    entity_links[entity_id] = group.links
                    demands[entity_id] = demand_class.rate
                else:
                    entity_links[entity_id] = ()
                    demands[entity_id] = 0.0
                counts[entity_id] = group.count

        rates = max_min_fair_allocation(
            entity_links, demands, self._capacities, counts=counts
        )
        self._entity_rates = rates

        contributions: Dict[LinkKey, List[Tuple[float, int]]] = {}
        for entity_id, links in entity_links.items():
            rate = rates.get(entity_id, 0.0)
            if rate <= 0:
                continue
            count = counts[entity_id]
            for link in links:
                contributions.setdefault(link, []).append((rate, count))
        self._link_rates = {
            link: _canonical_link_total(members)
            for link, members in contributions.items()
        }


class ClearAndReplayController(FibbingController):
    """Controller that re-plans every requirement of every wave.

    Installed LSAs (names included) and FIBs must be bit-identical to the
    plan-cache controller's; only the ``ctl_*`` reuse counters and the
    wall-clock cost may differ.
    """

    def enforce(self, requirements):
        self._check_attached()
        baseline_fibs = self.baseline_fibs()
        now = self._now()
        plans = []
        for requirement in requirements:
            plan = self._plan_requirement(requirement, baseline_fibs)
            self.registry.commit(plan, now=now)
            plans.append(plan)
        return self._apply_batch(plans, already_committed=True)

    def baseline_fibs(self, max_ecmp: int = DEFAULT_MAX_ECMP):
        return compute_static_fibs(
            self.topology, max_ecmp=max_ecmp, rib_cache=self.baseline_route_cache
        )


class ClearAndReplayBalancer(OnDemandLoadBalancer):
    """Load balancer whose merge stage never consults a plan cache."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.merger.plan_cache = None


class PerMessageFabric(FloodingFabric):
    """Flooding fabric that schedules one timeline event per LSA-hop."""

    def send(self, source: str, target: str, lsa: Lsa) -> None:
        if self._deliver is None:
            raise TopologyError("flooding fabric is not bound to any router processes")
        link = self.topology.link(source, target)
        delay = link.delay + self.processing_delay
        self.stats.messages_sent += 1
        self.stats.bytes_sent += lsa.size_bytes
        if self.loss_rate > 0.0 and self.loss_rng is not None:
            if self.loss_rng.random() < self.loss_rate:
                self.stats.messages_dropped += 1
                if self.on_drop is not None:
                    self.on_drop(source, target, lsa)
                return
        self.timeline.schedule_in(
            delay,
            lambda: self._deliver_one(target, lsa, source),
            label=f"lsa-delivery:{source}->{target}:{lsa.key}",
        )

    def inject(self, router: str, lsa: Lsa) -> None:
        if self._deliver is None:
            raise TopologyError("flooding fabric is not bound to any router processes")
        if not self.topology.has_router(router):
            raise TopologyError(f"cannot inject LSAs at unknown router {router!r}")
        self.stats.messages_sent += 1
        self.stats.bytes_sent += lsa.size_bytes
        self.timeline.schedule_in(
            self.processing_delay,
            lambda: self._deliver_one(router, lsa, None),
            label=f"lsa-injection:{router}:{lsa.key}",
        )

    def _deliver_one(self, target: str, lsa: Lsa, from_neighbor: Optional[str]) -> None:
        self.stats.deliveries += 1
        self._deliver(target, lsa, from_neighbor)


def flood_per_message(network: IgpNetwork) -> IgpNetwork:
    """Swap ``network``'s fabric for a :class:`PerMessageFabric` (before ``start``)."""
    fabric = network.fabric
    oracle = PerMessageFabric(fabric.topology, fabric.timeline, fabric.processing_delay)
    oracle.bind(fabric._deliver)
    network.fabric = oracle
    for process in network.routers.values():
        process.fabric = oracle
    return network


def fake_node_graph(graph: ComputationGraph) -> ComputationGraph:
    """``graph`` with every lie as an SPF node of its own.

    Each fake node gets its fake link to the anchor in both directions and
    announces its prefix, so Dijkstra reaches it like any router.
    """
    oracle = ComputationGraph()
    for node in graph.nodes:
        oracle.add_node(node)
        for target, cost in graph.successors(node).items():
            oracle.add_edge(node, target, cost)
    for prefix in graph.prefixes:
        for announcer, metric in graph.announcers(prefix).items():
            if not graph.is_fake(announcer):
                oracle.announce(announcer, prefix, metric)
    for lie in graph.fake_nodes.values():
        oracle.add_edge(lie.anchor, lie.name, lie.link_cost)
        oracle.add_edge(lie.name, lie.anchor, lie.link_cost)
        oracle.announce(lie.name, lie.prefix, lie.prefix_cost)
    return oracle


def fake_node_rib(graph: ComputationGraph, router: str) -> Rib:
    """The RIB of ``router``: every announcer, fake or not, at its SPF distance."""
    oracle = fake_node_graph(graph)
    spf = compute_spf(oracle, router)
    routes: Dict[object, Route] = {}
    for prefix in oracle.prefixes:
        totals = {
            announcer: spf.distance[announcer] + metric
            for announcer, metric in oracle.announcers(prefix).items()
            if announcer in spf.distance
        }
        if not totals:
            continue
        best = min(totals.values())
        contributions = []
        for announcer in sorted(totals):
            if totals[announcer] > best and not costs_equal(totals[announcer], best):
                continue
            fake = graph.is_fake(announcer)
            if announcer == router:
                contributions.append(RouteContribution(announcer, None, fake))
                continue
            for hop in sorted(spf.next_hops[announcer]):
                contributions.append(RouteContribution(announcer, hop, fake, graph.is_fake(hop)))
        routes[prefix] = Route(prefix=prefix, cost=best, contributions=tuple(contributions))
    return Rib(router, routes)


def fake_node_fib(
    graph: ComputationGraph, router: str, max_ecmp: int = DEFAULT_MAX_ECMP
) -> Fib:
    """:func:`fake_node_rib` resolved to weighted physical next hops.

    A fake next hop must be a lie anchored at ``router`` whose forwarding
    address is a real neighbour of it; anything else raises
    :class:`~repro.util.errors.RoutingError`.
    """
    neighbours = graph.successors(router)
    prefix_fibs = {}
    for route in fake_node_rib(graph, router):
        weights: Dict[str, int] = {}
        via: Dict[str, List[str]] = {}
        for contribution in route.contributions:
            hop = contribution.next_hop
            if hop is not None and not contribution.next_hop_is_fake:
                weights[hop] = 1
        for contribution in sorted(
            (c for c in route.contributions if c.next_hop_is_fake),
            key=lambda c: c.next_hop,
        ):
            lie = graph.fake_info(contribution.next_hop)
            physical = lie.forwarding_address
            if lie.anchor != router or graph.is_fake(physical) or physical not in neighbours:
                raise RoutingError(f"{router}: lie {lie.name} cannot forward to {physical!r}")
            weights[physical] = weights.get(physical, 0) + 1
            via.setdefault(physical, []).append(lie.name)
        entries = [
            FibEntry(next_hop=hop, weight=weights[hop], via_fake=tuple(via.get(hop, ())))
            for hop in sorted(weights)
        ]
        truncated = sum(weights.values()) > max_ecmp
        if truncated:
            entries, _ = _truncate(entries, max_ecmp)
        prefix_fibs[route.prefix] = PrefixFib(
            prefix=route.prefix,
            cost=route.cost,
            entries=tuple(entries),
            local=route.is_local,
            truncated=truncated,
        )
    return Fib(router, prefix_fibs)


def paths_to(
    spf: ShortestPaths, node: str, limit: int = 1024, *, partial: bool = False
) -> List[Tuple[str, ...]]:
    """Every equal-cost shortest path from ``spf.source`` to ``node``, sorted.

    Paths are node tuples ``(source, ..., node)``.  More than ``limit`` paths
    raise :class:`~repro.util.errors.RoutingError` unless ``partial=True``
    asks for the first ``limit`` (in predecessor-DFS order).  The walk is
    iterative, so paths thousands of hops deep enumerate fine.
    """
    if node not in spf.distance:
        raise RoutingError(f"{node!r} is unreachable from {spf.source!r}")
    paths: List[Tuple[str, ...]] = []
    truncated = False
    # Depth-first over the predecessor DAG; predecessors are pushed in
    # reverse-sorted order so they pop ascending.
    stack: List[Tuple[str, Tuple[str, ...]]] = [(node, ())]
    while stack:
        current, suffix = stack.pop()
        if current == spf.source:
            if len(paths) >= limit:
                truncated = True
                break
            paths.append((current,) + suffix)
            continue
        for predecessor in sorted(spf.predecessors.get(current, frozenset()), reverse=True):
            stack.append((predecessor, (current,) + suffix))
    if truncated and not partial:
        raise RoutingError(
            f"more than {limit} equal-cost paths from {spf.source!r} to "
            f"{node!r}; raise limit or pass partial=True for a truncated set"
        )
    return sorted(paths)
