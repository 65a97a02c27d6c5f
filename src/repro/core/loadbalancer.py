"""The on-demand load-balancing service demonstrated by the paper.

This is the application built "on top of the Fibbing machinery" (§1): a
closed control loop that

1. watches the per-link utilisation estimates produced by the SNMP
   monitoring pipeline,
2. when an alarm fires, rebuilds the demand matrix of the video prefixes
   from the servers' new-client notifications,
3. solves the min-max link-utilisation LP for those destinations,
4. approximates the optimal fractional splits with bounded integer ECMP
   weights, prunes requirements the IGP already satisfies, and
5. asks the Fibbing controller to reconcile the active lies with the new
   requirements (injecting and withdrawing only the difference).

The per-reaction record (:class:`RebalanceAction`) captures everything a
benchmark needs: when the alarm fired, what the LP promised, how many lies
moved, and how long the controller logic took.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.controller import ControllerUpdate, FibbingController
from repro.core.merger import LieMerger, MergeReport
from repro.core.optimizer import MinMaxLoadOptimizer, OptimizationResult
from repro.core.policies import LoadBalancerPolicy
from repro.core.requirements import DestinationRequirement, RequirementSet
from repro.dataplane.demand import TrafficMatrix
from repro.monitoring.alarms import AlarmEvent, UtilizationAlarm
from repro.monitoring.notifications import ClientRegistry
from repro.util.errors import ControllerError
from repro.util.prefixes import Prefix

__all__ = ["RebalanceAction", "OnDemandLoadBalancer"]


@dataclass(frozen=True)
class RebalanceAction:
    """One reaction of the load balancer to an alarm."""

    time: float
    hot_links: Tuple[Tuple[str, str], ...]
    optimized_prefixes: Tuple[Prefix, ...]
    predicted_max_utilization: float
    updates: Tuple[ControllerUpdate, ...]
    merge_report: MergeReport
    #: ``dp_*`` counter snapshot of the attached data-plane engine at
    #: reaction time (empty when the balancer is not bound to an engine).
    #: Diffing consecutive actions' snapshots yields the flow-reroute and
    #: warm-start work each reaction wave caused downstream.
    dataplane_counters: Dict[str, int] = field(default_factory=dict)
    #: ``ctl_*`` counter snapshot of the controller at reaction time.
    #: Diffing consecutive actions' snapshots shows how much of the
    #: reaction was served from the plan cache vs. re-planned, and how many
    #: lies the wave actually moved.
    controller_counters: Dict[str, int] = field(default_factory=dict)
    #: Simulated time at which the reaction actually executed.  With the
    #: synchronous wiring this equals ``time`` (the alarm instant); under the
    #: asynchronous control loop (:class:`repro.core.scheduler.ControlLoopScheduler`)
    #: it lags by the controller reaction latency, so ``completed_time -
    #: time`` is the per-reaction control-plane delay.
    completed_time: float = 0.0

    @property
    def reaction_latency(self) -> float:
        """Delay between the alarm firing and the reaction executing."""
        return max(0.0, self.completed_time - self.time)

    @property
    def lies_injected(self) -> int:
        """Number of fake-node LSAs injected by this reaction."""
        return sum(len(update.injected) for update in self.updates)

    @property
    def lies_withdrawn(self) -> int:
        """Number of fake-node LSAs withdrawn by this reaction."""
        return sum(len(update.withdrawn) for update in self.updates)

    @property
    def changed_network(self) -> bool:
        """Whether any LSA actually had to be sent."""
        return self.lies_injected > 0 or self.lies_withdrawn > 0


class OnDemandLoadBalancer:
    """Reactive controller application: alarms in, lies out."""

    def __init__(
        self,
        controller: FibbingController,
        clients: ClientRegistry,
        policy: LoadBalancerPolicy = LoadBalancerPolicy(),
        managed_prefixes: Optional[Sequence[Prefix]] = None,
        dataplane=None,
    ) -> None:
        self.controller = controller
        self.clients = clients
        self.policy = policy
        #: Optional :class:`~repro.dataplane.engine.DataPlaneEngine` closing
        #: the feedback loop: each action records the engine's ``dp_*``
        #: counters so reaction cost can be attributed end to end.
        self.dataplane = dataplane
        self.managed_prefixes = tuple(managed_prefixes) if managed_prefixes else None
        # The controller shares its plan cache with the optimizer and the
        # merger, so a reaction whose inputs did not move reuses the LP
        # solution and the merged weight maps wholesale.
        plan_cache = controller.plan_cache
        self.optimizer = MinMaxLoadOptimizer(
            controller.topology,
            max_stretch=policy.path_stretch,
            plan_cache=plan_cache,
        )
        self.merger = LieMerger(
            controller.topology,
            tolerance=policy.merge_tolerance,
            max_entries=policy.max_ecmp_entries,
            rib_cache=controller.baseline_route_cache,
            plan_cache=plan_cache,
        )
        self.actions: List[RebalanceAction] = []

    # ------------------------------------------------------------------ #
    # Wiring
    # ------------------------------------------------------------------ #
    def attach(self, alarm: UtilizationAlarm) -> None:
        """Subscribe this service to a utilisation alarm."""
        alarm.on_alarm(self.handle_alarm)

    # ------------------------------------------------------------------ #
    # The control loop body
    # ------------------------------------------------------------------ #
    def handle_alarm(self, event: AlarmEvent) -> Optional[RebalanceAction]:
        """React to one alarm; returns the action taken (or ``None`` if nothing to do)."""
        return self.react(event)

    def react(
        self,
        event: Optional[AlarmEvent] = None,
        time: float = 0.0,
        now: Optional[float] = None,
    ) -> Optional[RebalanceAction]:
        """The reconciliation entry point: alarm (or manual trigger) in, minimal lie delta out.

        Rebuilds the demand matrix from the client notifications, solves the
        min-max LP, reduces the requirements and asks the controller to
        reconcile — where every stage reuses its cached plan when its inputs
        did not move: an unchanged ``(graph version, demand digest,
        capacities)`` reuses the whole LP solution, unchanged requirement
        digests reuse their merged weight maps and skip re-planning, and
        only prefixes whose requirement actually changed see any lie churn.
        The installed lies and FIBs are bit-identical to a from-scratch
        reaction (the differential suite's oracle).

        ``event`` may be omitted for a manual trigger (see
        :meth:`rebalance_now`); alarm wiring passes the
        :class:`~repro.monitoring.alarms.AlarmEvent` straight through.
        ``now`` is the simulated time at which the reaction executes — the
        asynchronous scheduler passes the (later) completion instant, while
        the default ``None`` keeps the synchronous ``completed_time ==
        event.time`` behaviour.
        """
        if event is None:
            event = AlarmEvent(time=time, hot_links=())
        completed_time = event.time if now is None else now
        demands = self.current_demands()
        prefixes = self._prefixes_to_optimize(demands)
        if not prefixes:
            # No demand left for the managed prefixes: retire any stale lies.
            stale_updates = self._withdraw_stale_lies(set())
            if not stale_updates:
                return None
            action = RebalanceAction(
                time=event.time,
                hot_links=event.hot_link_keys,
                optimized_prefixes=(),
                predicted_max_utilization=0.0,
                updates=stale_updates,
                merge_report=MergeReport(),
                dataplane_counters=self._dataplane_snapshot(),
                controller_counters=self._controller_snapshot(),
                completed_time=completed_time,
            )
            self.actions.append(action)
            return action
        result = self.optimizer.optimize(
            demands, prefixes, plan_version=self.controller.baseline_version()
        )
        requirements = self.build_requirements(result)
        optimized, merge_report = self.merger.optimize(requirements)
        updates = list(self.controller.enforce(optimized))
        # Prefixes that used to carry lies but need none anymore (either no
        # demand or the IGP default already suffices) are cleaned up so lies
        # never outlive their purpose — the stale-lie hazard after topology
        # or workload changes.
        updates.extend(self._withdraw_stale_lies({req.prefix for req in optimized}))
        action = RebalanceAction(
            time=event.time,
            hot_links=event.hot_link_keys,
            optimized_prefixes=tuple(prefixes),
            predicted_max_utilization=result.objective,
            updates=tuple(updates),
            merge_report=merge_report,
            dataplane_counters=self._dataplane_snapshot(),
            controller_counters=self._controller_snapshot(),
            completed_time=completed_time,
        )
        self.actions.append(action)
        return action

    def _dataplane_snapshot(self) -> Dict[str, int]:
        """The bound engine's ``dp_*`` counters at this instant (or empty)."""
        if self.dataplane is None:
            return {}
        return self.dataplane.counters.snapshot()

    def _controller_snapshot(self) -> Dict[str, int]:
        """The controller's ``ctl_*`` counters at this instant."""
        return self.controller.reconciler.counters.snapshot()

    def handle_topology_change(self, time: float = 0.0) -> Optional[RebalanceAction]:
        """Re-optimise after a topology event (e.g. a link failure).

        Lies are computed for a specific topology; after a failure they can
        steer traffic into dead ends or loops, so the controller must refresh
        them immediately rather than wait for a utilisation alarm.
        """
        return self.rebalance_now(time=time)

    def _withdraw_stale_lies(self, still_needed) -> Tuple[ControllerUpdate, ...]:
        updates = []
        for prefix in self.controller.registry.prefixes():
            if prefix in still_needed:
                continue
            if self.managed_prefixes is not None and prefix not in self.managed_prefixes:
                continue
            update = self.controller.clear_prefix(prefix)
            if not update.is_noop:
                updates.append(update)
        return tuple(updates)

    def rebalance_now(self, time: float = 0.0) -> Optional[RebalanceAction]:
        """Run the optimisation immediately (without waiting for an alarm).

        Useful for static experiments and for operators that want to force a
        proactive re-optimisation.
        """
        return self.react(time=time)

    # ------------------------------------------------------------------ #
    # Building blocks (also used directly by benchmarks)
    # ------------------------------------------------------------------ #
    def current_demands(self) -> TrafficMatrix:
        """Demand matrix estimated from the servers' client notifications."""
        return self.clients.demand_matrix()

    def build_requirements(self, result: OptimizationResult) -> RequirementSet:
        """Convert an LP solution into integer-weighted requirements."""
        requirements = RequirementSet()
        fractions = result.to_fractions(min_fraction=self.policy.min_split_fraction)
        for prefix, per_router in fractions.items():
            requirement = DestinationRequirement.from_fractions(
                prefix=prefix,
                fractions=per_router,
                max_entries=self.policy.max_ecmp_entries,
            )
            requirements.add(requirement)
        return requirements

    def _prefixes_to_optimize(self, demands: TrafficMatrix) -> List[Prefix]:
        prefixes = demands.prefixes
        if self.managed_prefixes is not None:
            prefixes = [prefix for prefix in prefixes if prefix in self.managed_prefixes]
        return prefixes

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #
    @property
    def total_lies_injected(self) -> int:
        """Lies injected across every reaction so far."""
        return sum(action.lies_injected for action in self.actions)

    @property
    def reaction_count(self) -> int:
        """How many times the service reacted to an alarm."""
        return len(self.actions)
