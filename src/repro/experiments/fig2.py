"""The dynamic Fig. 2 experiment: the full demo, end to end.

The harness wires every subsystem together over one shared simulated
timeline, exactly like the live demo:

* an event-driven IGP domain (:class:`~repro.igp.network.IgpNetwork`) over
  the Fig. 1a topology;
* the flow-level data plane fed by the routers' installed FIBs;
* two video servers (S1 behind B, S2 behind A) streaming 1 Mbit/s videos to
  clients in the blue prefix, following the paper's arrival schedule
  (1 flow at t=0, +30 at t=15 s, +31 from S2 at t=35 s);
* the SNMP poller / collector / alarm pipeline;
* optionally, the Fibbing controller attached at R3 running the on-demand
  load balancer.

The result exposes the per-link throughput series the paper plots in Fig. 2
(links A–R1, B–R2 and B–R3), the aggregate QoE report backing the
smooth-vs-stutter claim, the controller's actions, and the control-plane
overhead counters.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from repro.core.chaos import FaultInjector, FaultPlan
from repro.core.controller import FibbingController
from repro.core.lies import per_prefix_lie_digests
from repro.core.loadbalancer import OnDemandLoadBalancer, RebalanceAction
from repro.core.policies import LoadBalancerPolicy
from repro.core.scheduler import ControlLoopScheduler, ConvergenceMonitor
from repro.dataplane.engine import AggregateDemandEngine, DataPlaneEngine, LinkSample
from repro.igp.network import IgpNetwork
from repro.igp.router import RouterTimers
from repro.monitoring.alarms import AlarmEvent, UtilizationAlarm
from repro.monitoring.collector import LoadCollector
from repro.monitoring.counters import build_agents
from repro.monitoring.notifications import ClientRegistry
from repro.monitoring.poller import SnmpPoller
from repro.topologies.demo import DemoScenario, build_demo_scenario
from repro.util.timeline import Timeline
from repro.video.catalog import Video, VideoCatalog
from repro.video.flashcrowd import ArrivalEvent, apply_schedule, demo_schedule
from repro.video.qoe import QoeReport, aggregate_qoe
from repro.video.server import StreamingService, VideoServer

__all__ = ["DemoRunResult", "run_demo_timeseries", "reaction_times"]

LinkKey = Tuple[str, str]


@dataclass
class DemoRunResult:
    """Everything the Fig. 2 and QoE benchmarks need from one demo run."""

    scenario: DemoScenario
    with_controller: bool
    duration: float
    #: Absolute simulated time at which the experiment clock started (after
    #: initial IGP convergence).  Alarm and action timestamps are absolute;
    #: subtract this epoch to compare them with the relative series below.
    epoch: float
    #: Per monitored link: list of (time, throughput in byte/s) samples,
    #: matching Fig. 2's axes (time in seconds, throughput in byte/s).
    throughput_series: Dict[LinkKey, List[Tuple[float, float]]]
    qoe: QoeReport
    alarms: List[AlarmEvent]
    actions: List[RebalanceAction]
    max_utilization_series: List[Tuple[float, float]]
    lies_active: int
    controller_messages: int
    flooding_stats: Dict[str, int]
    sessions_started: int
    #: Final cumulative per-link byte counters (the SNMP view at run end);
    #: pinned bit-for-bit by the golden Fig. 2 snapshot.
    link_counters: Dict[LinkKey, float] = field(default_factory=dict)
    #: ``dp_*`` counters of the data-plane engine: how much of the run's
    #: flow churn was served from the path cache / warm-started allocation.
    dataplane_stats: Dict[str, int] = field(default_factory=dict)
    #: Full controller counter snapshot (``ctl_*`` included): how much of
    #: the run's reactions was served from the plan cache vs. re-planned,
    #: and the lie churn the reconciler actually shipped.  Empty without a
    #: controller.
    controller_stats: Dict[str, int] = field(default_factory=dict)
    #: Per-prefix digests of the lies installed at run end (names included);
    #: pinned by the golden lie-set snapshot.  Empty without a controller.
    lie_digests: Dict[str, str] = field(default_factory=dict)
    #: ``fault_*`` accounting of the run's :class:`~repro.core.chaos.FaultInjector`
    #: (links downed/restored, LSAs dropped, polls timed out/omitted,
    #: controller crashes/restarts).  Empty without a fault plan.
    fault_stats: Dict[str, int] = field(default_factory=dict)
    #: Poll samples the alarm refused to act on for staleness (degraded
    #: monitoring with a ``staleness_horizon``); 0 otherwise.
    alarm_suppressed_stale: int = 0

    @property
    def peak_utilization(self) -> float:
        """Highest sampled link utilisation over the whole run."""
        return max((value for _, value in self.max_utilization_series), default=0.0)

    def series_of(self, source: str, target: str) -> List[Tuple[float, float]]:
        """The throughput series of one monitored link (byte/s, like Fig. 2)."""
        return self.throughput_series.get((source, target), [])

    def final_throughput(self, source: str, target: str) -> float:
        """Throughput (byte/s) of a monitored link at the last sample."""
        series = self.series_of(source, target)
        return series[-1][1] if series else 0.0


def run_demo_timeseries(
    with_controller: bool = True,
    duration: float = 60.0,
    poll_interval: float = 1.0,
    sample_interval: float = 1.0,
    video_duration: float = 90.0,
    policy: LoadBalancerPolicy = LoadBalancerPolicy(),
    scenario: Optional[DemoScenario] = None,
    router_timers: RouterTimers = RouterTimers(),
    hash_salt: int = 0,
    dataplane_aggregate: bool = False,
    controller_shards: int = 0,
    seed: Optional[int] = None,
    poll_jitter: float = 0.0,
    reaction_latency: float = 0.0,
    shard_stagger: float = 0.0,
    supersede: bool = True,
    fault_plan: Optional[FaultPlan] = None,
    staleness_horizon: Optional[float] = None,
) -> DemoRunResult:
    """Run the Fig. 2 experiment and return its measurements.

    ``with_controller=False`` reproduces the "controller disabled" variant
    used for the stutter comparison; everything else is identical.
    ``dataplane_aggregate=True`` swaps the per-flow
    engine for the :class:`~repro.dataplane.engine.AggregateDemandEngine`:
    each arrival batch becomes one demand class and one cohort QoE client,
    so the run's cost is O(arrival batches), not O(sessions) — link series,
    byte counters and samples stay bit-identical to the per-flow run (the
    dual-engine differential suite pins this), while the QoE report
    aggregates count-weighted cohorts.  ``controller_shards > 0`` swaps the
    single controller for a
    :class:`~repro.core.shard.ShardedFibbingController` with that many
    shards — again bit-identical, per the shard differential suite; the run's
    ``controller_stats`` then carry the ``shard_*`` wave counters.
    ``seed`` (the sweep harness entry point) derives the flow ``hash_salt``
    from an explicit ``random.Random(seed)`` when no salt is given — the
    run is a pure function of its arguments, with no module-level RNG state
    to leak between runs sharing a sweep worker; ``seed=None`` keeps the
    historical salt.

    The asynchronous control-loop timing knobs (all defaulting to the
    synchronous/byte-identical behaviour):

    * ``poll_jitter`` — uniform ±jitter on every SNMP poll gap, from an
      explicit :class:`random.Random` derived from ``seed`` (or the salt)
      by integer arithmetic, so runs are independent of ``PYTHONHASHSEED``;
    * ``reaction_latency`` — seconds between an alarm and the controller's
      reaction executing (via
      :class:`~repro.core.scheduler.ControlLoopScheduler`); the reaction
      observes demand/monitoring state at the completion instant;
    * ``shard_stagger`` — with ``controller_shards > 0``, the gap between
      consecutive per-shard injection sub-waves;
    * ``supersede`` — whether an alarm firing mid-reaction cancels the
      pending reaction and re-plans from fresh state (counted in
      ``ctl_supersessions``).

    When a controller is attached, a read-only
    :class:`~repro.core.scheduler.ConvergenceMonitor` additionally charges
    per-wave convergence time and transient mixed-FIB loops/blackholes to
    the ``ctl_converge_*`` / ``ctl_transient_*`` counters.

    The chaos knobs (both defaulting to the clean run):

    * ``fault_plan`` — a :class:`~repro.core.chaos.FaultPlan` executed by a
      :class:`~repro.core.chaos.FaultInjector` over the run; event times in
      the plan are *relative to the experiment epoch* (like the arrival
      schedule) and shifted onto the absolute timeline here.  An empty plan
      wires nothing and stays byte-identical to ``fault_plan=None``.
    * ``staleness_horizon`` — seconds beyond which a poll sample's interval
      marks it too stale for the alarm to act on (degraded-monitoring
      suppression, counted in ``alarm_suppressed_stale``).
    """
    if seed is not None and hash_salt == 0:
        hash_salt = random.Random(seed).randrange(1 << 31)
    if scenario is None:
        scenario = build_demo_scenario()
    topology = scenario.topology
    timeline = Timeline()

    # --- control plane -------------------------------------------------- #
    network = IgpNetwork(topology, timeline, timers=router_timers, max_ecmp=policy.max_ecmp_entries)
    network.start()
    network.converge()
    epoch = timeline.now  # all experiment times are relative to this instant

    # --- data plane ------------------------------------------------------ #
    def fib_provider():
        return {
            name: process.fib
            for name, process in network.routers.items()
            if process.fib is not None
        }

    engine_cls = AggregateDemandEngine if dataplane_aggregate else DataPlaneEngine
    engine = engine_cls(
        topology,
        fib_provider,
        timeline,
        sample_interval=sample_interval,
        hash_salt=hash_salt,
    )
    engine.bind_to_network(network)
    engine.start()

    # --- video workload --------------------------------------------------- #
    catalog = VideoCatalog(
        [Video(title="demo-clip", bitrate=scenario.video_bitrate, duration=video_duration)]
    )
    service = StreamingService(engine)
    for server_name, ingress in scenario.server_routers.items():
        service.add_server(VideoServer(name=server_name, ingress=ingress, catalog=catalog))

    # --- monitoring -------------------------------------------------------- #
    agents = build_agents(topology, engine)
    poll_rng: Optional[random.Random] = None
    if poll_jitter > 0.0:
        # Integer arithmetic only (never string hashing): the jitter stream
        # must be identical under every PYTHONHASHSEED.
        poll_rng = random.Random((seed if seed is not None else hash_salt) * 1000003 + 17)
    poller = SnmpPoller(
        agents, timeline, poll_interval=poll_interval, jitter=poll_jitter, rng=poll_rng
    )
    collector = LoadCollector(topology)
    alarm = UtilizationAlarm(
        collector,
        raise_threshold=policy.utilization_threshold,
        clear_threshold=policy.clear_threshold,
        cooldown=policy.alarm_cooldown,
        staleness_horizon=staleness_horizon,
    )
    alarm.wire(poller)
    poller.start()

    # --- controller -------------------------------------------------------- #
    balancer: Optional[OnDemandLoadBalancer] = None
    controller: Optional[FibbingController] = None
    if with_controller:
        if controller_shards > 0:
            from repro.core.shard import ShardedFibbingController

            controller = ShardedFibbingController(
                topology,
                shards=controller_shards,
                network=network,
                attachment=scenario.controller_attachment,
                epsilon=policy.epsilon,
            )
        else:
            controller = FibbingController(
                topology,
                network=network,
                attachment=scenario.controller_attachment,
                epsilon=policy.epsilon,
            )
        registry = ClientRegistry()
        registry.attach(service.bus)
        balancer = OnDemandLoadBalancer(
            controller,
            registry,
            policy=policy,
            managed_prefixes=[scenario.blue_prefix],
            dataplane=engine,
        )
        # The scheduler replaces the direct `balancer.attach(alarm)` wiring;
        # at the default zero knobs it reacts synchronously inside the alarm
        # callback, so the run stays byte-identical to the historical loop.
        scheduler = ControlLoopScheduler(
            balancer,
            timeline,
            reaction_latency=reaction_latency,
            shard_stagger=shard_stagger,
            supersede=supersede,
        )
        scheduler.attach(alarm)
        # Read-only observer (registered after the engine's FIB listener, so
        # it sees the freshly re-walked interim data-plane state).
        ConvergenceMonitor(network, engine, counters=controller.plan_cache.counters)

    # --- chaos ------------------------------------------------------------- #
    injector: Optional[FaultInjector] = None
    if fault_plan is not None and not fault_plan.is_empty:
        # Plan event times are epoch-relative, like the arrival schedule.
        shifted = replace(
            fault_plan,
            events=tuple(
                replace(event, time=epoch + event.time)
                for event in fault_plan.events
            ),
        )
        injector = FaultInjector(network, shifted, controller=controller, poller=poller)
        injector.start()

    # --- workload schedule -------------------------------------------------- #
    schedule = [
        ArrivalEvent(
            time=epoch + event.time,
            server=event.server,
            count=event.count,
            video_title=event.video_title,
        )
        for event in demo_schedule(scenario)
    ]
    sessions = apply_schedule(service, timeline, schedule, scenario.blue_prefix)

    # --- run ------------------------------------------------------------------ #
    timeline.run_until(epoch + duration)

    # --- collect results ----------------------------------------------------- #
    throughput_series: Dict[LinkKey, List[Tuple[float, float]]] = {
        link: [] for link in scenario.monitored_links
    }
    max_utilization_series: List[Tuple[float, float]] = []
    for sample in engine.samples:
        relative_time = sample.time - epoch
        if relative_time < 0:
            continue
        for link in scenario.monitored_links:
            throughput_series[link].append(
                (relative_time, sample.rate_of(*link) / 8.0)
            )
        utilization = max(
            (
                sample.rates.get(link.key, 0.0) / link.capacity
                for link in topology.links
            ),
            default=0.0,
        )
        max_utilization_series.append((relative_time, utilization))

    qoe = aggregate_qoe(service.clients()) if service.clients() else None
    if qoe is None:
        raise RuntimeError("the demo run started no video session; check the schedule")

    return DemoRunResult(
        scenario=scenario,
        with_controller=with_controller,
        duration=duration,
        epoch=epoch,
        throughput_series=throughput_series,
        qoe=qoe,
        alarms=list(alarm.events),
        actions=list(balancer.actions) if balancer is not None else [],
        max_utilization_series=max_utilization_series,
        lies_active=controller.active_lie_count() if controller is not None else 0,
        controller_messages=controller.stats.messages_sent if controller is not None else 0,
        flooding_stats=network.flooding_stats,
        sessions_started=sessions,
        link_counters=engine.all_link_counters(),
        dataplane_stats=engine.counters.snapshot(),
        controller_stats=(
            controller.stats.snapshot() if controller is not None else {}
        ),
        lie_digests=(
            per_prefix_lie_digests(controller.active_lies())
            if controller is not None
            else {}
        ),
        fault_stats=(
            injector.counters.snapshot() if injector is not None else {}
        ),
        alarm_suppressed_stale=alarm.suppressed_stale,
    )


def reaction_times(result: DemoRunResult, threshold: Optional[float] = None) -> List[float]:
    """Time from each alarm until the sampled max utilisation drops below ``threshold``.

    This is the ablation-A1 metric: how long the network stays hot after the
    monitoring pipeline notices a surge.  Alarms that never see the network
    cool down before the end of the run are reported as the remaining run
    time (a lower bound).
    """
    if threshold is None:
        threshold = 0.9
    times: List[float] = []
    last_time = result.max_utilization_series[-1][0] if result.max_utilization_series else 0.0
    for alarm in result.alarms:
        alarm_time = alarm.time - result.epoch
        recovered = None
        for sample_time, utilization in result.max_utilization_series:
            if sample_time > alarm_time and utilization < threshold:
                recovered = sample_time - alarm_time
                break
        if recovered is None:
            recovered = max(0.0, last_time - alarm_time)
        times.append(recovered)
    return times
