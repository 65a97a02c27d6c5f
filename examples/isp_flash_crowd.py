#!/usr/bin/env python3
"""Beyond the 7-router demo: the closed loop on an ISP-scale topology.

The paper's demo runs on a small network; this example wires the exact same
building blocks (event-driven IGP, flow-level data plane, video service,
SNMP monitoring, on-demand load balancer) on a synthetic two-level ISP
topology and hits it with a Poisson flash crowd toward one customer prefix.
One :class:`FibbingController` programs the network.  The example prints the
QoE with and without Fibbing and the controller's reconciliation deltas of
the run (lies injected, retracted and kept; requirements re-planned versus
served from the plan cache).

Run with:  python examples/isp_flash_crowd.py
"""

from repro.core.controller import FibbingController
from repro.core.loadbalancer import OnDemandLoadBalancer
from repro.core.policies import LoadBalancerPolicy
from repro.dataplane.engine import DataPlaneEngine
from repro.igp.network import IgpNetwork
from repro.monitoring.alarms import UtilizationAlarm
from repro.monitoring.collector import LoadCollector
from repro.monitoring.counters import build_agents
from repro.monitoring.notifications import ClientRegistry
from repro.monitoring.poller import SnmpPoller
from repro.topologies.isp import synthetic_isp
from repro.util.timeline import Timeline
from repro.util.units import mbps
from repro.video.catalog import Video, VideoCatalog
from repro.video.flashcrowd import apply_schedule, poisson_arrivals
from repro.video.qoe import aggregate_qoe
from repro.video.server import StreamingService, VideoServer

RUN_DURATION = 80.0
VIDEO_BITRATE = mbps(2)


def run(with_controller: bool, seed: int = 7):
    # A 20-router ISP: 8 core routers, 6 PoPs announcing customer prefixes.
    topology = synthetic_isp(core_size=8, pops=6, prefixes_per_pop=1, seed=seed,
                             core_capacity=mbps(60), pop_capacity=mbps(40))
    timeline = Timeline()
    network = IgpNetwork(topology, timeline)
    network.start()
    network.converge()
    epoch = timeline.now

    engine = DataPlaneEngine(
        topology,
        lambda: {n: p.fib for n, p in network.routers.items() if p.fib is not None},
        timeline,
    )
    engine.bind_to_network(network)
    engine.start()

    # Two CDN caches in distinct PoPs stream toward the clients of Pop0.
    catalog = VideoCatalog([Video(title="clip", bitrate=VIDEO_BITRATE, duration=60.0)])
    service = StreamingService(engine)
    service.add_server(VideoServer(name="cache-east", ingress="Pop3A", catalog=catalog))
    service.add_server(VideoServer(name="cache-west", ingress="Pop5A", catalog=catalog))
    client_prefix = topology.attachments_of("Pop0A")[0].prefix

    agents = build_agents(topology, engine)
    poller = SnmpPoller(agents, timeline, poll_interval=1.0)
    collector = LoadCollector(topology)
    policy = LoadBalancerPolicy(utilization_threshold=0.85, clear_threshold=0.6)
    alarm = UtilizationAlarm(collector, raise_threshold=policy.utilization_threshold,
                             clear_threshold=policy.clear_threshold,
                             cooldown=policy.alarm_cooldown)
    alarm.wire(poller)
    poller.start()

    balancer = None
    controller = None
    if with_controller:
        controller = FibbingController(topology, network=network, attachment="Core0")
        registry = ClientRegistry()
        registry.attach(service.bus)
        balancer = OnDemandLoadBalancer(controller, registry, policy=policy,
                                        managed_prefixes=[client_prefix])
        balancer.attach(alarm)

    # Flash crowd: a burst of arrivals on each cache shortly after the start.
    schedule = (
        poisson_arrivals("cache-east", rate_per_second=2.0, start=epoch + 5.0,
                         duration=8.0, seed=seed, video_title="clip")
        + poisson_arrivals("cache-west", rate_per_second=2.0, start=epoch + 20.0,
                           duration=8.0, seed=seed + 1, video_title="clip")
    )
    sessions = apply_schedule(service, timeline, schedule, client_prefix)
    timeline.run_until(epoch + RUN_DURATION)

    qoe = aggregate_qoe(service.clients())
    return {
        "sessions": sessions,
        "qoe": qoe,
        "alarms": len(alarm.events),
        "reactions": len(balancer.actions) if balancer else 0,
        "lies": controller.active_lie_count() if controller else 0,
        "messages": controller.stats.messages_sent if controller else 0,
        "ctl": controller.reconciler.counters if controller else None,
    }


def main() -> None:
    print("ISP-scale flash crowd (20 routers, Poisson arrivals, 2 Mbit/s videos)\n")
    enabled = run(with_controller=True)
    disabled = run(with_controller=False)

    header = f"{'':28} {'with Fibbing':>14} {'without':>10}"
    print(header)
    print("-" * len(header))
    print(f"{'video sessions':28} {enabled['sessions']:>14} {disabled['sessions']:>10}")
    print(f"{'smooth sessions':28} {enabled['qoe'].smooth_sessions:>14} {disabled['qoe'].smooth_sessions:>10}")
    print(f"{'total stall time [s]':28} {enabled['qoe'].total_stall_time:>14.1f} {disabled['qoe'].total_stall_time:>10.1f}")
    print(f"{'mean rebuffer ratio':28} {enabled['qoe'].mean_rebuffer_ratio:>13.1%} {disabled['qoe'].mean_rebuffer_ratio:>9.1%}")
    print(f"{'utilisation alarms':28} {enabled['alarms']:>14} {disabled['alarms']:>10}")
    print(f"{'controller reactions':28} {enabled['reactions']:>14} {disabled['reactions']:>10}")
    print(f"{'fake LSAs injected':28} {enabled['messages']:>14} {disabled['messages']:>10}")
    print(f"{'fake nodes active at end':28} {enabled['lies']:>14} {disabled['lies']:>10}")

    ctl = enabled["ctl"]
    print("\nReconciliation deltas (with-Fibbing run):")
    print(f"  lies injected {ctl.lies_injected}, retracted {ctl.lies_retracted}, "
          f"kept {ctl.lies_kept}")
    print(f"  requirements re-planned {ctl.plans_recomputed}, "
          f"served from the plan cache {ctl.plan_cache_hits}")


if __name__ == "__main__":
    main()
