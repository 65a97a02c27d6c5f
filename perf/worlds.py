"""The four workloads: input generation, world construction, one rep, checks.

Three workloads are closed loops over one shared ``Timeline`` (SNMP poll ->
alarm -> LP -> lies -> flooding -> SPF -> RIB/FIB -> re-routed sessions ->
QoE), wired from public constructors the way
``repro.experiments.fig2.run_demo_timeseries`` wires the demo; the fourth
drives the controller's reaction alone.  Every rep builds a fresh world
(set-up is timed apart from the run), runs it, then checks the outputs.

Seeds.  Every workload draws its *scenario* — topology, who streams to
whom, wave order, which links fail, which polls time out — from
:data:`SCENARIO_SEED`, and from ``--seed`` only what leaves the amount of
work alone: wave instants within their slots, the ECMP salt, the LSA-loss
stream, and for ``planner_churn_60`` the viewer counts and the sequence of
demand changes.  A closed loop of eight waves on a random 120-router graph
costs what its endpoints and fault instants make it cost: measured across
seeds, a seeded topology or endpoint choice moved ``run_wall_s`` between
2.2 and 5.2 s, a seeded wave order by 15 %, seeded link and timeout picks by
9 % with ``smooth_share`` anywhere in 0.93-1, and a seeded planner topology
by 7 % — each more than a regression bound can afford, so the benchmark
would have measured the draw, not the program.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.chaos import FaultEvent, FaultInjector, FaultPlan, build_link_churn
from repro.core.controller import FibbingController
from repro.core.lies import per_prefix_lie_digests
from repro.core.loadbalancer import OnDemandLoadBalancer
from repro.core.policies import LoadBalancerPolicy
from repro.core.scheduler import ControlLoopScheduler, ConvergenceMonitor
from repro.dataplane.engine import AggregateDemandEngine, DataPlaneEngine
from repro.experiments.flashcrowd_classes import build_scaled_demo_scenario
from repro.igp.lsa import FakeNodeLsa
from repro.igp.network import IgpNetwork
from repro.igp.topology import Topology
from repro.monitoring.alarms import UtilizationAlarm
from repro.monitoring.collector import LoadCollector
from repro.monitoring.counters import build_agents
from repro.monitoring.notifications import ClientNotification, ClientRegistry
from repro.monitoring.poller import SnmpPoller
from repro.topologies.isp import synthetic_isp
from repro.util.prefixes import Prefix
from repro.util.timeline import Timeline
from repro.util.units import mbps
from repro.video.catalog import Video, VideoCatalog
from repro.video.flashcrowd import ArrivalEvent, apply_schedule
from repro.video.qoe import aggregate_qoe
from repro.video.server import StreamingService, VideoServer

__all__ = ["SIZES", "Rep", "run_rep"]

SCENARIO_SEED = 5
DURATION = 60.0
VIDEO_TITLE = "clip"
VIDEO_DURATION = 90.0
#: A wave offers this share of a PoP link's capacity: above the 0.9 alarm
#: threshold, below saturation, so an unmitigated wave alarms but never stalls.
WAVE_LOAD = 0.95
UTILIZATION_TOLERANCE = 1e-6
#: isp_chaos_120's faults (seconds after the experiment epoch, and rates).
CRASH_AT, RESTART_AT = 25.0, 40.0
CHURN_START, CHURN_HOLD = 5.0, 4.0
LSA_LOSS_RATE, POLL_TIMEOUT_RATE = 0.02, 0.1


@dataclass(frozen=True)
class Scale:
    """Sizes of the four workloads at one ``--scale``."""

    sessions: int
    isp_core: int
    isp_pops: int
    isp_waves: int
    wave_sessions: int
    churn_episodes: int
    churn_spacing: float
    planner_core: int
    planner_pops: int
    planner_destinations: int
    planner_waves: int


SIZES: Dict[str, Scale] = {
    "full": Scale(
        sessions=1_000_000,
        isp_core=40, isp_pops=40, isp_waves=8, wave_sessions=60,
        churn_episodes=8, churn_spacing=6.0,
        planner_core=20, planner_pops=20, planner_destinations=24, planner_waves=100,
    ),
    "smoke": Scale(
        sessions=6_200,
        isp_core=6, isp_pops=6, isp_waves=3, wave_sessions=20,
        churn_episodes=2, churn_spacing=20.0,
        planner_core=4, planner_pops=4, planner_destinations=4, planner_waves=5,
    ),
}


@dataclass
class Rep:
    """What one rep measured and what its output checks found."""

    setup_s: float = 0.0
    run_wall_s: float = 0.0
    reaction_ms: List[float] = field(default_factory=list)
    smooth_share: float = 0.0
    stall_s: float = 0.0
    #: Failed output checks (or the traceback of a rep that raised).
    failures: List[str] = field(default_factory=list)
    output_digest: str = ""
    #: Run-phase deltas of the layers' public counter snapshots, plus the
    #: counts only the harness knows (polls, alarms, clients, ...).
    counters: Dict[str, float] = field(default_factory=dict)


def _digest(payload: object) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def _delta(after: Dict[str, float], before: Dict[str, float]) -> Dict[str, float]:
    return {key: value - before.get(key, 0) for key, value in after.items()}


# ---------------------------------------------------------------------- #
# Closed-loop worlds
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class Wave:
    """``count`` sessions starting at ``time`` from ``server`` toward ``prefix``."""

    time: float
    server: str
    prefix: Prefix
    count: int


@dataclass(frozen=True)
class Chaos:
    """What ``isp_chaos_120`` adds to ``isp_loop_120``."""

    loss_seed: int
    churn_episodes: int
    churn_spacing: float


@dataclass(frozen=True)
class LoopInputs:
    """Everything a closed-loop world is built from; a pure function of the seeds."""

    topology: Topology
    aggregate: bool
    servers: Dict[str, str]
    waves: Tuple[Wave, ...]
    attachment: str
    policy: LoadBalancerPolicy
    managed_prefixes: Optional[Tuple[Prefix, ...]]
    hash_salt: int
    bitrate: float
    chaos: Optional[Chaos] = None


def flashcrowd_inputs(seed: int, scale: Scale) -> LoopInputs:
    """The Fig. 2 scenario scaled to ``scale.sessions`` (what
    ``run_flashcrowd_classes(sessions, seed=seed)`` runs)."""
    scenario = build_scaled_demo_scenario(scale.sessions)
    return LoopInputs(
        topology=scenario.topology,
        aggregate=True,
        servers=dict(scenario.server_routers),
        waves=tuple(
            Wave(when, server, scenario.blue_prefix, count)
            for when, server, count in scenario.flow_schedule
        ),
        attachment=scenario.controller_attachment,
        policy=LoadBalancerPolicy(),
        managed_prefixes=(scenario.blue_prefix,),
        hash_salt=random.Random(seed).randrange(1 << 31),
        bitrate=scenario.video_bitrate,
    )


def isp_inputs(seed: int, scale: Scale, chaos: bool) -> LoopInputs:
    """One server PoP per wave streaming toward one remote PoP's prefix.

    A single source concentrates each wave on one path, so every wave heats
    a link; ``path_stretch=None`` lets the LP always find the dual-homed
    PoP's second path, so every wave is answered by lies that change the
    network.  (At the policy's default stretch of 1 most waves on this
    generator cannot be split and the alarm just re-fires.)  The scenario
    seed is one on which every such answer also takes: on most draws some
    wave's lies pull an upstream ECMP tie onto one path, the link stays hot
    and the alarm re-fires every cooldown, which makes the reaction
    latencies bimodal.
    """
    shape = random.Random(SCENARIO_SEED * 1_000_003 + 7)
    run = random.Random(seed * 1_000_003 + 13)
    bitrate = mbps(1)
    pop_capacity = scale.wave_sessions * bitrate / WAVE_LOAD
    topology = synthetic_isp(
        core_size=scale.isp_core,
        pops=scale.isp_pops,
        prefixes_per_pop=2,
        seed=SCENARIO_SEED,
        core_capacity=4 * pop_capacity,
        pop_capacity=pop_capacity,
    )
    waves = scale.isp_waves
    picks = shape.sample(range(scale.isp_pops), 2 * waves)
    pairs = [
        (f"S{source}", topology.attachments_of(f"Pop{target}A")[0].prefix)
        for source, target in zip(picks[:waves], picks[waves:])
    ]
    spacing = (DURATION - 10.0) / waves
    return LoopInputs(
        topology=topology,
        aggregate=False,
        servers={f"S{pop}": f"Pop{pop}A" for pop in picks[:waves]},
        waves=tuple(
            Wave(2.0 + slot * spacing + run.uniform(0.0, 0.9), server, prefix, scale.wave_sessions)
            for slot, (server, prefix) in enumerate(pairs)
        ),
        attachment="Core0",
        policy=LoadBalancerPolicy(path_stretch=None),
        managed_prefixes=None,
        hash_salt=run.randrange(1 << 31),
        bitrate=bitrate,
        chaos=Chaos(
            loss_seed=seed,
            churn_episodes=scale.churn_episodes,
            churn_spacing=scale.churn_spacing,
        )
        if chaos
        else None,
    )


class LoopWorld:
    """A closed loop wired like ``run_demo_timeseries``; constructor defaults only."""

    def __init__(self, inputs: LoopInputs) -> None:
        self.inputs = inputs
        topology, policy = inputs.topology, inputs.policy
        self.timeline = timeline = Timeline()
        self.network = network = IgpNetwork(topology, timeline, max_ecmp=policy.max_ecmp_entries)
        network.start()
        network.converge()
        self.epoch = timeline.now

        def fib_provider():
            return {
                name: process.fib
                for name, process in network.routers.items()
                if process.fib is not None
            }

        engine_cls = AggregateDemandEngine if inputs.aggregate else DataPlaneEngine
        self.engine = engine = engine_cls(topology, fib_provider, timeline, hash_salt=inputs.hash_salt)
        engine.bind_to_network(network)
        engine.start()

        catalog = VideoCatalog(
            [Video(title=VIDEO_TITLE, bitrate=inputs.bitrate, duration=VIDEO_DURATION)]
        )
        self.service = service = StreamingService(engine)
        for name, ingress in inputs.servers.items():
            service.add_server(VideoServer(name=name, ingress=ingress, catalog=catalog))

        self.poller = poller = SnmpPoller(build_agents(topology, engine), timeline)
        self.alarm = alarm = UtilizationAlarm(
            LoadCollector(topology),
            raise_threshold=policy.utilization_threshold,
            clear_threshold=policy.clear_threshold,
            cooldown=policy.alarm_cooldown,
        )
        alarm.wire(poller)
        poller.start()

        self.controller = controller = FibbingController(
            topology, network=network, attachment=inputs.attachment, epsilon=policy.epsilon
        )
        registry = ClientRegistry()
        registry.attach(service.bus)
        self.balancer = balancer = OnDemandLoadBalancer(
            controller,
            registry,
            policy=policy,
            managed_prefixes=inputs.managed_prefixes,
            dataplane=engine,
        )
        self.reaction_seconds: List[float] = []
        balancer.react = self._timed(balancer.react)
        ControlLoopScheduler(balancer, timeline).attach(alarm)
        ConvergenceMonitor(network, engine, counters=controller.plan_cache.counters)

        if inputs.chaos is not None:
            self._start_chaos(inputs.chaos)

        self.scheduled = 0
        for wave in inputs.waves:
            arrival = ArrivalEvent(
                time=self.epoch + wave.time, server=wave.server,
                count=wave.count, video_title=VIDEO_TITLE,
            )
            self.scheduled += apply_schedule(service, timeline, [arrival], wave.prefix)

    def _timed(self, react):
        """The one reaction stopwatch: ``react`` entry to return."""

        def timed_react(*args, **kwargs):
            start = time.perf_counter()
            try:
                return react(*args, **kwargs)
            finally:
                self.reaction_seconds.append(time.perf_counter() - start)

        return timed_react

    # ------------------------------------------------------------------ #
    # Faults
    # ------------------------------------------------------------------ #
    def _start_chaos(self, chaos: Chaos) -> None:
        """Crash and restart, LSA loss, poll timeouts, and seeded link churn.

        Only the LSA-loss stream follows ``--seed``; which polls time out and
        which links fail are part of the scenario (see the module docstring),
        so the poller's timeouts are set here, not through the plan, whose
        one seed would tie them to the loss stream.
        """
        plan = FaultPlan(
            events=(
                FaultEvent(time=self.epoch + CRASH_AT, kind="controller_crash"),
                FaultEvent(time=self.epoch + RESTART_AT, kind="controller_restart"),
            ),
            lsa_loss_rate=LSA_LOSS_RATE,
            seed=chaos.loss_seed,
        )
        FaultInjector(self.network, plan, controller=self.controller, poller=self.poller).start()
        self.poller.set_timeouts(
            POLL_TIMEOUT_RATE,
            random.Random(SCENARIO_SEED * 1_000_003 + 211),
            max_retries=plan.poll_max_retries,
            retry_backoff=plan.poll_retry_backoff,
        )
        rng = random.Random(SCENARIO_SEED * 1_000_003 + 307)
        for episode in range(chaos.churn_episodes):
            self.timeline.schedule(
                self.epoch + CHURN_START + episode * chaos.churn_spacing,
                lambda: self._churn_episode(rng),
                label="fault:churn_pick",
            )

    def _churn_episode(self, rng: random.Random) -> None:
        """Fail one seeded link now and restore it ``CHURN_HOLD`` seconds later.

        The link is drawn when the episode fires, not when the plan is made:
        a router that recomputes routes while the adjacency an installed lie
        resolves through is down raises ``RoutingError`` (the IGP has no
        answer to that yet — ROADMAP item 5), so links at routers currently
        anchoring a lie are not candidates, just as ``experiments/chaos.py``
        keeps churn away from the demo's lie anchors.  The LSDB is read as
        well as the registry because a crashed controller has forgotten its
        lies while the routers still hold them.
        """
        lsdb = self.network.routers[self.inputs.attachment].lsdb
        lies = [lsa for lsa in lsdb.live_lsas() if isinstance(lsa, FakeNodeLsa)]
        lies.extend(self.controller.active_lies())
        pinned = {lsa.anchor for lsa in lies} | set(self.inputs.servers.values())
        now = self.timeline.now
        events = build_link_churn(
            self.inputs.topology, rng, count=1, start=now, spacing=2 * CHURN_HOLD, hold=CHURN_HOLD,
            exclude_routers=sorted(pinned),
        )
        FaultInjector(self.network, FaultPlan(events=tuple(events))).start()

    # ------------------------------------------------------------------ #
    # Run and outputs
    # ------------------------------------------------------------------ #
    def run(self) -> None:
        self.timeline.run_until(self.epoch + DURATION)

    def counters(self) -> Dict[str, float]:
        """Every layer's public counters, flat, at this instant."""
        network = self.network
        return {
            **network.spf_stats,
            **{f"flood_{key}": value for key, value in network.flooding_stats.items()},
            "timeline_events": self.timeline.fired,
            "polls": self.poller.polls_performed,
            "alarms": len(self.alarm.events),
            "reactions": len(self.reaction_seconds),
            "spf_runs": sum(process.spf_runs for process in network.routers.values()),
            "fib_installs": sum(process.fib_version for process in network.routers.values()),
        }

    def collect(self, rep: Rep) -> None:
        """Fill ``rep`` with QoE, the output checks and the output digest."""
        network, engine, controller = self.network, self.engine, self.controller
        clients = self.service.clients()
        qoe = aggregate_qoe(clients)
        rep.smooth_share = qoe.smooth_sessions / qoe.sessions
        rep.stall_s = qoe.total_stall_time
        rep.counters["clients"] = len(clients)
        rep.counters["sessions"] = qoe.sessions

        capacity = {link.key: link.capacity for link in self.inputs.topology.links}
        peak_utilization = max(
            (
                rate / capacity[key]
                for sample in engine.samples
                for key, rate in sample.rates.items()
                if key in capacity
            ),
            default=0.0,
        )
        looping, blackholed = engine.routing_flaws()
        checks = {
            f"sessions started {qoe.sessions} != scheduled {self.scheduled}":
                qoe.sessions == self.scheduled,
            "a router has no installed FIB":
                all(process.fib is not None for process in network.routers.values()),
            f"routing flaws at run end: {len(looping)} looping, {len(blackholed)} blackholed":
                not looping and not blackholed,
            "no active lie at run end": controller.active_lie_count() >= 1,
            f"peak utilization {peak_utilization:.6f} > 1":
                peak_utilization <= 1.0 + UTILIZATION_TOLERANCE,
        }
        if self.inputs.aggregate:
            rewalked = engine.counters.snapshot()["dp_classes_rewalked"]
            checks[f"{qoe.stalled_sessions} sessions stalled"] = qoe.all_smooth
            checks[f"dp_classes_rewalked {rewalked} >= 100"] = rewalked < 100
        rep.failures.extend(message for message, passed in checks.items() if not passed)
        rep.output_digest = _digest(
            {
                "qoe": [qoe.sessions, qoe.smooth_sessions, qoe.completed_sessions,
                        repr(qoe.total_stall_time), repr(qoe.mean_startup_delay)],
                "links": sorted(
                    (f"{source}>{target}", repr(octets))
                    for (source, target), octets in engine.all_link_counters().items()
                ),
                "lies": per_prefix_lie_digests(controller.active_lies()),
            }
        )


def _loop_rep(inputs_for, seed: int, scale: Scale, span) -> Rep:
    rep = Rep()
    start = time.perf_counter()
    with span("bench.setup"):
        world = LoopWorld(inputs_for(seed, scale))
    before = world.counters()
    ready = time.perf_counter()
    with span("bench.run"):
        world.run()
    rep.setup_s = ready - start
    rep.run_wall_s = time.perf_counter() - ready
    rep.reaction_ms = [1000.0 * seconds for seconds in world.reaction_seconds]
    rep.counters = _delta(world.counters(), before)
    with span("bench.collect"):
        world.collect(rep)
    return rep


# ---------------------------------------------------------------------- #
# planner_churn_60: the controller's reaction with nothing around it
# ---------------------------------------------------------------------- #
def _planner_rep(seed: int, scale: Scale, span) -> Rep:
    """``OnDemandLoadBalancer.react`` on a bare controller, one demand change per wave.

    No timeline, network or data plane: demands enter through the
    ``ClientRegistry`` the balancer reads, and each wave is one
    ``rebalance_now()`` — the LP, fractions -> requirements, merge and
    enforce stages of a live reaction, with the optimizer and merger sharing
    the controller's plan cache as the balancer always wires them.
    """
    rep = Rep()
    start = time.perf_counter()
    with span("bench.setup"):
        shape = random.Random(SCENARIO_SEED * 1_000_003 + 11)
        rng = random.Random(seed * 1_000_003 + 11)
        topology = synthetic_isp(
            core_size=scale.planner_core, pops=scale.planner_pops, prefixes_per_pop=2,
            seed=SCENARIO_SEED,
        )
        controller = FibbingController(topology)
        registry = ClientRegistry()
        balancer = OnDemandLoadBalancer(controller, registry)
        bitrate = mbps(1)
        viewers: Dict[Tuple[str, Prefix], int] = {}
        for prefix in shape.sample(topology.prefixes, scale.planner_destinations):
            attached = {attachment.router for attachment in topology.prefix_attachments(prefix)}
            candidates = [router for router in topology.routers if router not in attached]
            for source in shape.sample(candidates, 3):
                viewers[(source, prefix)] = rng.randint(8, 24)
        keys = sorted(viewers)
        changes = [(rng.choice(keys), rng.randint(8, 24)) for _ in range(scale.planner_waves)]

        def set_viewers(key: Tuple[str, Prefix], count: int, old: int) -> None:
            if count != old:
                registry.observe(
                    ClientNotification(time=0.0, server=key[0], ingress=key[0], prefix=key[1],
                                       bitrate=bitrate, delta=count - old)
                )

        for key, count in viewers.items():
            set_viewers(key, count, 0)
    before = controller.stats.snapshot()
    ready = time.perf_counter()
    with span("bench.run"):
        for key, count in changes:
            if count == viewers[key]:
                count += 1  # every wave changes a demand
            set_viewers(key, count, viewers[key])
            viewers[key] = count
            wave_start = time.perf_counter()
            balancer.rebalance_now()
            rep.reaction_ms.append(1000.0 * (time.perf_counter() - wave_start))
    rep.setup_s = ready - start
    rep.run_wall_s = time.perf_counter() - ready
    rep.counters = _delta(controller.stats.snapshot(), before)
    rep.counters["reactions"] = len(rep.reaction_ms)

    with span("bench.collect"):
        # Re-derive the last wave's requirement set (every stage is a cache
        # hit) and hold the predicted FIBs to it.
        result = balancer.optimizer.optimize(
            balancer.current_demands(), plan_version=controller.baseline_version()
        )
        enforced, _report = balancer.merger.optimize(balancer.build_requirements(result))
        violations = [
            violation
            for requirement in enforced
            for violation in controller.verify_requirement(requirement)
        ]
        # No video here: the share of enforced requirements the FIBs realise
        # stands in, so the column reads "what was promised was delivered".
        unmet = {violation.split(":")[0] for violation in violations}
        rep.smooth_share = 1.0 - min(len(unmet), len(enforced)) / max(len(enforced), 1)
        if violations:
            rep.failures.append(f"{len(violations)} requirement violations, e.g. {violations[0]}")
        if controller.active_lie_count() < 1:
            rep.failures.append("no active lie at run end")
        rep.output_digest = _digest(
            {
                "objective": repr(result.objective),
                "lies": per_prefix_lie_digests(controller.active_lies()),
            }
        )
    return rep


_LOOP_INPUTS = {
    "flashcrowd_1m": flashcrowd_inputs,
    "isp_loop_120": lambda seed, scale: isp_inputs(seed, scale, chaos=False),
    "isp_chaos_120": lambda seed, scale: isp_inputs(seed, scale, chaos=True),
}


def run_rep(workload: str, seed: int, scale: Scale, tracer=None) -> Rep:
    """One rep of ``workload``; a rep that raises comes back failed, not raised."""
    span = tracer.span if tracer is not None else (lambda name: nullcontext())
    try:
        if workload == "planner_churn_60":
            return _planner_rep(seed, scale, span)
        return _loop_rep(_LOOP_INPUTS[workload], seed, scale, span)
    except Exception:  # the rep boundary: record, count as failed, keep going
        rep = Rep()
        rep.failures.append(traceback.format_exc())
        return rep
