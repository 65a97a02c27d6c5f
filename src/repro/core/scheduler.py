"""Asynchronous control-loop timing: deferred reactions, in-flight
supersession and convergence observability.

The synchronous wiring used by the Fig. 2 demo so far
(``balancer.attach(alarm)``) reacts *inside* the alarm callback: the LP, the
merge and the whole injection wave execute at the alarm instant, and only the
IGP flooding/SPF machinery takes simulated time afterwards.  Real Fibbing
deployments (§5 of the paper) interleave asynchronous delays the synchronous
loop hides:

* **controller reaction latency** — the controller needs wall-clock time to
  rebuild the demand matrix, solve the LP and synthesise the lie delta, so
  the wave starts *after* the alarm, against whatever the network looks like
  by then;
* **in-flight supersession** — an alarm that fires while a reaction is still
  pending makes the pending reaction stale: it would re-plan against the
  very state the new alarm invalidated.  The scheduler cancels the pending
  :class:`~repro.util.timeline.ScheduledEvent` and re-plans from the new
  alarm, counting the supersession.

:class:`ControlLoopScheduler` layers exactly those two behaviours between
the alarm and the load balancer, on the shared
:class:`~repro.util.timeline.Timeline`.  At ``reaction_latency == 0`` (the
default) it degenerates to a *synchronous call inside the alarm callback* —
not a ``schedule_in(0, ...)`` deferral, which would reorder same-instant
events — so every existing golden and differential suite stays
byte-identical.

:class:`ConvergenceMonitor` is the read-only observability companion: it
subscribes to :meth:`~repro.igp.network.IgpNetwork.on_inject` and
:meth:`~repro.igp.network.IgpNetwork.on_fib_change` and walks the data
plane's :meth:`~repro.dataplane.engine.DataPlaneEngine.routing_flaws` after
each interim FIB install, charging transient loops/blackholes and
convergence time to the ``ctl_*`` counters (``ctl_transient_loops``,
``ctl_transient_blackholes``, ``ctl_converge_events``,
``ctl_converge_seconds``).  It performs pure reads only — it never schedules
events or touches traffic — so attaching it perturbs nothing.
"""

from __future__ import annotations

from typing import Optional, Set

from repro.core.loadbalancer import OnDemandLoadBalancer, RebalanceAction
from repro.core.reconciler import CtlCounters
from repro.monitoring.alarms import AlarmEvent, UtilizationAlarm
from repro.util.timeline import ScheduledEvent, Timeline
from repro.util.validation import check_non_negative

__all__ = ["ControlLoopScheduler", "ConvergenceMonitor"]


class ControlLoopScheduler:
    """Drives the load balancer's reactions on the shared timeline.

    Sits between the :class:`~repro.monitoring.alarms.UtilizationAlarm` and
    the :class:`~repro.core.loadbalancer.OnDemandLoadBalancer` (wire with
    :meth:`attach` instead of ``balancer.attach(alarm)``):

    * ``reaction_latency`` — seconds between the alarm firing and the
      reaction executing; the reaction re-reads demand/monitoring state at
      the *completion* instant, not the alarm instant.
    * ``supersede`` — whether an alarm arriving while a reaction is pending
      cancels that reaction and re-plans from the fresh alarm (the default)
      or is dropped in favour of the already-pending reaction (which will
      itself observe fresh state when it completes).

    Bookkeeping lands in the controller's persistent
    :class:`~repro.core.reconciler.CtlCounters`
    (``ctl_reactions_deferred``, ``ctl_supersessions``), so it surfaces
    through every existing counter channel (``ControllerStats``,
    ``IgpNetwork.spf_stats``, per-action snapshots).
    """

    def __init__(
        self,
        balancer: OnDemandLoadBalancer,
        timeline: Timeline,
        reaction_latency: float = 0.0,
        supersede: bool = True,
    ) -> None:
        self.balancer = balancer
        self.timeline = timeline
        self.reaction_latency = check_non_negative(reaction_latency, "reaction_latency")
        self.supersede = supersede
        #: Handle of the deferred reaction currently in flight (``None`` when
        #: the loop is idle or running synchronously).
        self._pending: Optional[ScheduledEvent] = None

    @property
    def _counters(self) -> CtlCounters:
        return self.balancer.controller.reconciler.counters

    # ------------------------------------------------------------------ #
    # Wiring
    # ------------------------------------------------------------------ #
    def attach(self, alarm: UtilizationAlarm) -> None:
        """Subscribe the scheduler to a utilisation alarm."""
        alarm.on_alarm(self.handle_alarm)

    # ------------------------------------------------------------------ #
    # Alarm handling
    # ------------------------------------------------------------------ #
    def handle_alarm(self, event: AlarmEvent) -> Optional[RebalanceAction]:
        """React to one alarm, synchronously or deferred by the latency knob.

        Returns the action when the degenerate synchronous path ran, else
        ``None`` (the deferred reaction's action lands in
        ``balancer.actions`` when it executes).
        """
        if self.reaction_latency == 0.0:
            if getattr(self.balancer.controller, "detached", False):
                # A crashed controller cannot react; the lies already in the
                # LSDB keep forwarding (the paper's robustness claim), so the
                # alarm is recorded but the reaction is abandoned.
                self._counters.reactions_abandoned += 1
                return None
            # Degenerate point: a plain synchronous call, exactly what
            # `balancer.attach(alarm)` would have done.  Deferring through
            # schedule_in(0, ...) instead would run the reaction after the
            # other events of this instant and break byte-identity.
            return self.balancer.react(event)
        if self._pending is not None:
            if not self.supersede:
                # Keep the pending reaction; it re-reads demand and
                # monitoring state when it completes, so the new alarm adds
                # no information it will not see anyway.
                return None
            if self.timeline.cancel(self._pending):
                self._counters.supersessions += 1
            self._pending = None
        self._counters.reactions_deferred += 1
        # Baseline the topology revision at the alarm instant: if a link
        # fails or is restored while the reaction is pending, the plan it
        # would compute is against a topology that no longer exists.
        revision = self.balancer.controller.topology.revision
        self._pending = self.timeline.schedule_in(
            self.reaction_latency,
            lambda: self._complete(event, revision),
            label="ctl-reaction",
        )
        return None

    def _complete(
        self, event: AlarmEvent, baseline_revision: Optional[int] = None
    ) -> Optional[RebalanceAction]:
        """Execute a deferred reaction at its completion instant.

        The reaction is abandoned — counted as ``ctl_reactions_abandoned``,
        no planning, no injection — when the controller crashed while the
        reaction was pending, or when the topology revision moved since the
        alarm fired: the demand estimates and the alarm itself were observed
        against a topology that no longer exists, so acting on them would
        program phantom state.  The next alarm (against fresh samples)
        re-plans from scratch.
        """
        self._pending = None
        controller = self.balancer.controller
        if getattr(controller, "detached", False) or (
            baseline_revision is not None
            and controller.topology.revision != baseline_revision
        ):
            self._counters.reactions_abandoned += 1
            return None
        return self.balancer.react(event, now=self.timeline.now)


class ConvergenceMonitor:
    """Charges convergence time and transient routing flaws to ``ctl_*`` counters.

    Register *after* the data-plane engine is bound to the network
    (:meth:`~repro.dataplane.engine.DataPlaneEngine.bind_to_network`): FIB
    listeners fire in registration order, so the engine re-walks its flows
    or cohorts over the interim mixed-FIB state first and this monitor then
    reads the resulting :meth:`routing_flaws` snapshot.

    Accounting model: every :meth:`~repro.igp.network.IgpNetwork.inject`
    call marks the start (or continuation) of a convergence wave and
    re-baselines the flaw sets — flaws already present when the wave starts
    are pre-existing, not transients caused by it.  Each subsequent FIB
    install adds the gap since the previous marker to
    ``ctl_converge_seconds`` (so idle time between waves is never charged),
    bumps ``ctl_converge_events``, and charges any *newly observed*
    loop/blackhole key to ``ctl_transient_loops`` /
    ``ctl_transient_blackholes`` weighted by its session count: 1 for a
    flow (a one-session class), the path group's population for a cohort.
    """

    def __init__(self, network, engine=None, counters: Optional[CtlCounters] = None) -> None:
        self.network = network
        self.engine = engine
        self.counters = counters
        self._wave_open = False
        self._last_marker: float = 0.0
        self._seen_loops: Set[object] = set()
        self._seen_blackholes: Set[object] = set()
        network.on_inject(self._on_inject)
        network.on_fib_change(self._on_fib_change)

    def _on_inject(self, _at_router: str, _count: int) -> None:
        self._wave_open = True
        self._last_marker = self.network.timeline.now
        if self.engine is not None:
            looping, blackholed = self.engine.routing_flaws()
            self._seen_loops = set(looping)
            self._seen_blackholes = set(blackholed)

    def _on_fib_change(self, _router: str, _fib) -> None:
        if not self._wave_open:
            return
        now = self.network.timeline.now
        counters = self.counters
        if counters is not None:
            counters.converge_seconds += now - self._last_marker
            counters.converge_events += 1
        self._last_marker = now
        if self.engine is None or counters is None:
            return
        looping, blackholed = self.engine.routing_flaws()
        for key, weight in looping.items():
            if key not in self._seen_loops:
                self._seen_loops.add(key)
                counters.transient_loops += weight
        for key, weight in blackholed.items():
            if key not in self._seen_blackholes:
                self._seen_blackholes.add(key)
                counters.transient_blackholes += weight
