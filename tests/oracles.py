"""From-scratch reference implementations the differential suites judge against.

The product ships one path per layer: the incremental class data plane
(path cache plus warm-start max-min repair, with flows as one-session
classes) and the plan-cache controller.  The from-scratch computations that
define what those paths must produce live here:

* :class:`FromScratchDataPlaneEngine` is a self-contained per-flow engine on
  the product's timeline core: every event re-routes every flow with
  :func:`~repro.dataplane.forwarding.route_flows_hashed` (one hash per flow
  per hop) and re-runs
  :func:`~repro.dataplane.fairness.max_min_fair_allocation` from scratch.
  It shares no routing, allocation or byte state with the class engine, so
  it judges both the per-flow view and the cohorts;
* :class:`FromScratchAggregateEngine` re-walks every class over the
  current FIBs and re-runs progressive filling on every event;
* :class:`ClearAndReplayController` re-plans every requirement of every
  enforce wave through validation, lie synthesis and the registry diff,
  with no plan cache, no skip bookkeeping, no baseline memo and whole
  baseline FIB sets instead of the lazy view;
* :class:`ClearAndReplayBalancer` runs the merger without the controller's
  plan cache, so a reaction never reuses a merged plan.

* :class:`PerMessageFabric` floods one timeline event per LSA-hop, the
  order the product's delivery runs (:mod:`repro.igp.flooding`) must keep
  exactly; :func:`flood_per_message` puts it into a network.

Each oracle leaves the fast path's reuse counters at zero
(``dp_classes_reused``, ``ctl_plan_cache_hits``,
``ctl_merge_cache_hits``); the drivers assert that, so an oracle cannot quietly turn into a second
incremental engine.

Fault scheduling has an oracle too: :func:`churn_candidates_per_link`
checks every link for connectivity with a search of its own, the filter
that :func:`~repro.core.chaos.churn_candidates`' one bridge pass must
reproduce.

Route resolution has a functional oracle: :func:`fake_node_rib` and
:func:`fake_node_fib` run Dijkstra with every lie as an SPF node of its own
(:func:`fake_node_graph`), the resolution that the product's leaf lies
(:mod:`repro.igp.rib`) must reproduce bit for bit.  :func:`paths_to`
enumerates the equal-cost paths of an SPF result, which only tests read.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.controller import FibbingController
from repro.core.loadbalancer import OnDemandLoadBalancer
from repro.dataplane.engine import (
    AggregateDemandEngine,
    DataPlaneEngineBase,
    _canonical_link_total,
)
from repro.dataplane.fairness import max_min_fair_allocation
from repro.dataplane.flows import Flow, FlowSet, FlowSpec
from repro.dataplane.forwarding import FlowPath, route_flows_hashed
from repro.igp.fib import DEFAULT_MAX_ECMP, Fib, FibEntry, PrefixFib, _truncate
from repro.igp.flooding import FloodingFabric
from repro.igp.graph import ComputationGraph
from repro.igp.lsa import Lsa
from repro.igp.network import IgpNetwork, compute_static_fibs
from repro.igp.rib import Rib, Route, RouteContribution
from repro.igp.rib_cache import RibCache
from repro.igp.spf import ShortestPaths, compute_spf, costs_equal
from repro.igp.topology import Topology
from repro.util.errors import RoutingError, SimulationError, TopologyError
from repro.util.validation import check_positive

__all__ = [
    "ClearAndReplayBalancer",
    "ClearAndReplayController",
    "FromScratchAggregateEngine",
    "FromScratchDataPlaneEngine",
    "PerMessageFabric",
    "churn_candidates_per_link",
    "fake_node_fib",
    "fake_node_graph",
    "fake_node_rib",
    "flood_per_message",
    "paths_to",
]

LinkKey = Tuple[str, str]


class FromScratchDataPlaneEngine(DataPlaneEngineBase):
    """Per-flow engine that re-routes and re-allocates everything per event.

    The per-flow API of :class:`~repro.dataplane.engine.DataPlaneEngine`
    (flow ids from a :class:`FlowSet`), with one entity per flow.  An
    undeliverable flow sends nothing; a looping one is kept on its path so
    :meth:`routing_flaws` reports it, but gets no rate either.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.flows = FlowSet()
        self._flow_paths: Dict[int, FlowPath] = {}
        self._flow_rates: Dict[int, float] = {}
        self._flow_bytes: Dict[int, float] = {}

    def add_flow(self, ingress, prefix, demand, label="") -> Flow:
        return self.add_flows([FlowSpec(ingress=ingress, prefix=prefix, demand=demand, label=label)])[0]

    def add_flows(self, specs) -> List[Flow]:
        for spec in specs:
            if not self.topology.has_router(spec.ingress):
                raise SimulationError(f"flow ingress {spec.ingress!r} is not a router")
            check_positive(spec.demand, "demand")
        if not specs:
            return []
        self._advance_counters()
        flows = [
            self.flows.create(spec.ingress, spec.prefix, spec.demand, label=spec.label)
            for spec in specs
        ]
        self._recompute()
        return flows

    def remove_flow(self, flow_id) -> Flow:
        self._advance_counters()
        flow = self.flows.remove(flow_id)
        self._flow_bytes.pop(flow_id, None)
        self._recompute()
        return flow

    def flow_rate(self, flow_id) -> float:
        return self._flow_rates.get(flow_id, 0.0)

    def flow_path(self, flow_id) -> Optional[FlowPath]:
        return self._flow_paths.get(flow_id)

    def flow_transmitted_bytes(self, flow_id) -> float:
        self._advance_counters()
        return self._flow_bytes.get(flow_id, 0.0)

    def routing_flaws(self):
        looping: Dict[object, int] = {}
        blackholed: Dict[object, int] = {}
        for flow_id, path in self._flow_paths.items():
            if path.looped:
                looping[(flow_id, path.hops)] = 1
            elif not path.delivered:
                blackholed[(flow_id, path.hops)] = 1
        return looping, blackholed

    def _advance_entity_bytes(self, elapsed) -> None:
        for flow_id, rate in self._flow_rates.items():
            if rate > 0:
                self._flow_bytes[flow_id] = self._flow_bytes.get(flow_id, 0.0) + rate * elapsed / 8.0

    def _recompute(self, arrivals=(), departures=()) -> None:
        fibs = dict(self.fib_provider())
        outcome = route_flows_hashed(fibs, self.flows, salt=self.hash_salt)
        self._flow_paths = dict(outcome.flow_paths)
        self.counters.classes_rewalked += len(self.flows)
        self.counters.alloc_full += 1

        flow_links: Dict[int, Tuple[LinkKey, ...]] = {}
        demands: Dict[int, float] = {}
        for flow in self.flows:
            path = self._flow_paths[flow.flow_id]
            delivered = path.delivered
            flow_links[flow.flow_id] = path.links if delivered else ()
            demands[flow.flow_id] = flow.demand if delivered else 0.0

        rates = max_min_fair_allocation(flow_links, demands, self._current_capacities())
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
            entity_links, demands, self._current_capacities(), counts=counts
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

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # Whole lie-free FIB sets, on the controller's baseline SPF lineage.
        self._baseline_rib_cache = RibCache(self.baseline_route_cache)

    def baseline_fibs(self, max_ecmp: int = DEFAULT_MAX_ECMP):
        return compute_static_fibs(
            self.topology, max_ecmp=max_ecmp, rib_cache=self._baseline_rib_cache
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


def churn_candidates_per_link(
    topology: Topology, exclude_routers: Sequence[str] = ()
) -> List[LinkKey]:
    """The sorted endpoint pairs churn may fail, one connectivity search per link."""
    excluded = set(exclude_routers)
    pairs = sorted(
        {(min(link.source, link.target), max(link.source, link.target))
         for link in topology.links}
    )
    return [
        pair
        for pair in pairs
        if pair[0] not in excluded
        and pair[1] not in excluded
        and _stays_connected(topology, pair[0], pair[1])
    ]


def _stays_connected(topology: Topology, first: str, second: str) -> bool:
    """Whether the router graph stays connected without link first-second."""
    routers = sorted(topology.routers)
    if len(routers) <= 1:
        return True
    adjacency: Dict[str, List[str]] = {router: [] for router in routers}
    removed = {(first, second), (second, first)}
    for link in topology.links:
        if (link.source, link.target) in removed:
            continue
        adjacency[link.source].append(link.target)
    seen = {routers[0]}
    frontier = [routers[0]]
    while frontier:
        node = frontier.pop()
        for neighbor in adjacency[node]:
            if neighbor not in seen:
                seen.add(neighbor)
                frontier.append(neighbor)
    return len(seen) == len(routers)
