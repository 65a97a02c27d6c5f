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

Each oracle leaves the fast path's reuse counters at zero
(``dp_flows_reused``, ``dp_classes_reused``, ``ctl_plan_cache_hits``,
``ctl_merge_cache_hits``); the drivers assert that, so an oracle cannot quietly turn into a second
incremental engine.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.core.controller import FibbingController
from repro.core.loadbalancer import OnDemandLoadBalancer
from repro.dataplane.engine import (
    AggregateDemandEngine,
    DataPlaneEngine,
    _canonical_link_total,
)
from repro.dataplane.fairness import max_min_fair_allocation
from repro.dataplane.forwarding import route_flows_hashed
from repro.igp.fib import DEFAULT_MAX_ECMP
from repro.igp.network import compute_static_fibs

__all__ = [
    "ClearAndReplayBalancer",
    "ClearAndReplayController",
    "FromScratchAggregateEngine",
    "FromScratchDataPlaneEngine",
]

LinkKey = Tuple[str, str]


class FromScratchDataPlaneEngine(DataPlaneEngine):
    """Per-flow engine that re-routes and re-allocates everything per event."""

    def _recompute(self, arrivals=(), departures=(), dirty_links=()) -> None:
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

    def _recompute(self, arrivals=(), departures=(), dirty_links=()) -> None:
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
