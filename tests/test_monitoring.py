"""Tests for the monitoring substrate: counters, poller, collector, alarms, notifications."""

import pytest

from repro.dataplane.engine import AggregateDemandEngine, DataPlaneEngine
from repro.igp.network import compute_static_fibs
from repro.monitoring.alarms import UtilizationAlarm
from repro.monitoring.collector import LoadCollector
from repro.monitoring.counters import SnmpAgent, build_agents
from repro.monitoring.notifications import ClientNotification, ClientRegistry, NotificationBus
from repro.monitoring.poller import PollSample, SnmpPoller
from repro.topologies.demo import BLUE_PREFIX, SOURCE_PREFIXES, build_demo_topology
from repro.util.errors import MonitoringError
from repro.util.timeline import Timeline
from repro.util.units import mbps


@pytest.fixture
def monitored_engine():
    topology = build_demo_topology()
    fibs = compute_static_fibs(topology)
    timeline = Timeline()
    engine = DataPlaneEngine(topology, lambda: fibs, timeline, sample_interval=1.0)
    engine.start()
    return topology, timeline, engine


class TestSnmpAgents:
    def test_agent_lists_interfaces(self, monitored_engine):
        topology, _, engine = monitored_engine
        agent = SnmpAgent("B", topology, engine)
        assert agent.interfaces == ["A", "R2", "R3"]

    def test_agent_reads_counters(self, monitored_engine):
        topology, timeline, engine = monitored_engine
        engine.add_flow("B", BLUE_PREFIX, mbps(8))
        timeline.run_until(2.0)
        agent = SnmpAgent("B", topology, engine)
        stat = agent.read_interface("R2")
        assert stat.out_octets == pytest.approx(2e6, rel=0.01)
        assert stat.interface == "B->R2"

    def test_unknown_interface_rejected(self, monitored_engine):
        topology, _, engine = monitored_engine
        agent = SnmpAgent("B", topology, engine)
        with pytest.raises(MonitoringError):
            agent.read_interface("C")

    def test_unknown_router_rejected(self, monitored_engine):
        topology, _, engine = monitored_engine
        with pytest.raises(MonitoringError):
            SnmpAgent("ghost", topology, engine)

    def test_build_agents_covers_all_routers(self, monitored_engine):
        topology, _, engine = monitored_engine
        agents = build_agents(topology, engine)
        assert set(agents) == set(topology.routers)


class TestPoller:
    def test_poller_measures_rates(self, monitored_engine):
        topology, timeline, engine = monitored_engine
        poller = SnmpPoller(build_agents(topology, engine), timeline, poll_interval=1.0)
        poller.start()
        engine.add_flow("B", BLUE_PREFIX, mbps(8))
        timeline.run_until(3.0)
        assert poller.polls_performed == 3
        last = poller.samples[-1]
        assert last.rate_of("B", "R2") == pytest.approx(mbps(8), rel=0.02)
        assert last.rate_of("A", "R1") == 0.0

    def test_poller_interval_respected(self, monitored_engine):
        topology, timeline, engine = monitored_engine
        poller = SnmpPoller(build_agents(topology, engine), timeline, poll_interval=5.0)
        poller.start()
        timeline.run_until(12.0)
        assert poller.polls_performed == 2

    def test_listeners_receive_samples(self, monitored_engine):
        topology, timeline, engine = monitored_engine
        poller = SnmpPoller(build_agents(topology, engine), timeline, poll_interval=1.0)
        seen = []
        poller.on_sample(lambda sample: seen.append(sample.time))
        poller.start()
        timeline.run_until(2.0)
        assert seen == [1.0, 2.0]

    def test_empty_agent_set_rejected(self, monitored_engine):
        _, timeline, _ = monitored_engine
        with pytest.raises(MonitoringError):
            SnmpPoller({}, timeline)

    def test_jitter_must_stay_below_poll_interval(self, monitored_engine):
        topology, timeline, engine = monitored_engine
        agents = build_agents(topology, engine)
        with pytest.raises(MonitoringError):
            SnmpPoller(agents, timeline, poll_interval=1.0, jitter=1.0)

    def test_jitter_requires_an_explicit_rng(self, monitored_engine):
        topology, timeline, engine = monitored_engine
        agents = build_agents(topology, engine)
        with pytest.raises(MonitoringError):
            SnmpPoller(agents, timeline, poll_interval=1.0, jitter=0.2)

    def test_jittered_schedule_is_seed_deterministic(self, monitored_engine):
        import random

        topology, _, engine = monitored_engine

        def poll_times(seed):
            timeline = Timeline()
            poller = SnmpPoller(
                build_agents(topology, engine),
                timeline,
                poll_interval=1.0,
                jitter=0.25,
                rng=random.Random(seed),
            )
            poller.on_sample(lambda sample: None)
            poller.start()
            times = []
            while timeline.peek_time() is not None and timeline.peek_time() <= 5.0:
                timeline.step()
                times.append(timeline.now)
            return times

        first = poll_times(7)
        assert poll_times(7) == first
        assert poll_times(8) != first
        # Every gap stays within poll_interval ± jitter, and none coincide.
        gaps = [b - a for a, b in zip([0.0] + first, first)]
        assert all(0.75 <= gap <= 1.25 for gap in gaps)


class _Reading:
    def __init__(self, router, neighbor, out_octets):
        self.router = router
        self.neighbor = neighbor
        self.out_octets = out_octets


class _ScriptedAgent:
    """An SNMP agent replaying a scripted sequence of counter readings."""

    def __init__(self, readings):
        self._readings = iter(readings)
        self._last = None

    def read_all(self):
        try:
            self._last = next(self._readings)
        except StopIteration:
            pass  # keep returning the final reading
        return list(self._last)


class TestPollerCounterResets:
    """A rebooted device (or a wrapped 32-bit octet counter) hands the
    poller a *negative* delta.  The historical code treated any non-positive
    delta as an idle link — a reset thus reported phantom silence and, worse,
    the next interval's delta was computed against the stale pre-reset
    baseline.  A negative delta now re-baselines the link and is counted."""

    def run_polls(self, timeline, poller, until):
        poller.start()
        timeline.run_until(until)

    def test_negative_delta_rebaselines_and_counts(self):
        timeline = Timeline()
        agent = _ScriptedAgent(
            [
                [_Reading("B", "R2", 1000.0)],  # baseline at start()
                [_Reading("B", "R2", 2000.0)],  # poll 1: +1000 octets
                [_Reading("B", "R2", 500.0)],   # poll 2: device restarted
                [_Reading("B", "R2", 1500.0)],  # poll 3: +1000 from new base
            ]
        )
        poller = SnmpPoller({"B": agent}, timeline, poll_interval=1.0)
        self.run_polls(timeline, poller, 3.0)
        assert poller.poll_counter_resets == 1
        rates = [sample.rate_of("B", "R2") for sample in poller.samples]
        # 1000 octets/s = 8000 bit/s; the reset interval reports no rate.
        assert rates == [8000.0, 0.0, 8000.0]

    def test_vanished_interface_is_dropped_not_ghosted(self):
        timeline = Timeline()
        agent = _ScriptedAgent(
            [
                [_Reading("B", "R2", 1000.0), _Reading("B", "R3", 400.0)],
                [_Reading("B", "R2", 2000.0), _Reading("B", "R3", 800.0)],
                [_Reading("B", "R2", 3000.0)],  # B->R3 interface withdrawn
            ]
        )
        poller = SnmpPoller({"B": agent}, timeline, poll_interval=1.0)
        self.run_polls(timeline, poller, 2.0)
        assert poller.samples[0].rate_of("B", "R3") == 3200.0
        # The vanished link reports nothing (not a stale or phantom rate)...
        assert ("B", "R3") not in poller.samples[1].rates
        # ...and its stale baseline is gone, so a re-appearing interface
        # re-baselines instead of producing a bogus delta.
        assert ("B", "R3") not in poller._previous_counters


class TestCollectorAndAlarm:
    def wire(self, monitored_engine, threshold=0.9, cooldown=3.0, alpha=1.0):
        topology, timeline, engine = monitored_engine
        poller = SnmpPoller(build_agents(topology, engine), timeline, poll_interval=1.0)
        collector = LoadCollector(topology, alpha=alpha)
        alarm = UtilizationAlarm(collector, raise_threshold=threshold, cooldown=cooldown)
        alarm.wire(poller)
        poller.start()
        return topology, timeline, engine, collector, alarm

    def test_collector_tracks_utilization(self, monitored_engine):
        topology, timeline, engine, collector, _ = self.wire(monitored_engine)
        engine.add_flow("B", BLUE_PREFIX, mbps(16))
        timeline.run_until(3.0)
        assert collector.utilization("B", "R2") == pytest.approx(0.5, rel=0.05)
        assert collector.max_utilization() == pytest.approx(0.5, rel=0.05)

    def test_collector_unknown_link_rejected(self, monitored_engine):
        _, _, _, collector, _ = self.wire(monitored_engine)
        with pytest.raises(MonitoringError):
            collector.utilization("A", "C")

    def test_alarm_fires_above_threshold(self, monitored_engine):
        topology, timeline, engine, _, alarm = self.wire(monitored_engine)
        for _ in range(31):
            engine.add_flow("B", BLUE_PREFIX, mbps(1))
        timeline.run_until(5.0)
        assert len(alarm.events) >= 1
        assert ("B", "R2") in [view.link for view in alarm.events[0].hot_links]
        # The controller-facing accessors used by the reconciliation loop.
        assert alarm.last_event is alarm.events[-1]
        assert ("B", "R2") in alarm.events[0].hot_link_keys

    def test_alarm_silent_below_threshold(self, monitored_engine):
        topology, timeline, engine, _, alarm = self.wire(monitored_engine)
        for _ in range(10):
            engine.add_flow("B", BLUE_PREFIX, mbps(1))
        timeline.run_until(5.0)
        assert alarm.events == []
        assert alarm.last_event is None

    def test_alarm_cooldown_limits_rate(self, monitored_engine):
        topology, timeline, engine, _, alarm = self.wire(monitored_engine, cooldown=100.0)
        for _ in range(40):
            engine.add_flow("B", BLUE_PREFIX, mbps(1))
        timeline.run_until(20.0)
        assert len(alarm.events) == 1

    def test_alarm_refires_after_cooldown_if_still_hot(self, monitored_engine):
        topology, timeline, engine, _, alarm = self.wire(monitored_engine, cooldown=3.0)
        for _ in range(40):
            engine.add_flow("B", BLUE_PREFIX, mbps(1))
        timeline.run_until(20.0)
        assert len(alarm.events) >= 3

    def test_invalid_thresholds_rejected(self, monitored_engine):
        topology, _, _ = monitored_engine
        collector = LoadCollector(topology)
        with pytest.raises(MonitoringError):
            UtilizationAlarm(collector, raise_threshold=0.5, clear_threshold=0.9)

    def test_zero_or_negative_clear_threshold_rejected(self, monitored_engine):
        # A clear level of 0 could never re-arm the alarm (idle links report
        # exactly 0.0 utilisation, which is >= 0); historically it was
        # accepted and bricked the alarm after its first firing.
        topology, _, _ = monitored_engine
        collector = LoadCollector(topology)
        with pytest.raises(MonitoringError):
            UtilizationAlarm(collector, raise_threshold=0.9, clear_threshold=0.0)
        with pytest.raises(MonitoringError):
            UtilizationAlarm(collector, raise_threshold=0.9, clear_threshold=-0.1)

    def test_collector_sees_capacity_changes_immediately(self, monitored_engine):
        # A link re-provisioned at another capacity must reach the alarm
        # utilisation at the very next read — the historical collector cached
        # capacities at construction time forever.
        topology, timeline, engine, collector, _ = self.wire(monitored_engine)
        engine.add_flow("B", BLUE_PREFIX, mbps(16))
        timeline.run_until(3.0)
        before = collector.utilization("B", "R2")
        assert before == pytest.approx(0.5, rel=0.05)
        link = topology.link("B", "R2")
        topology.remove_link("B", "R2")
        topology.add_link("B", "R2", weight=link.weight, capacity=link.capacity * 2.0)
        assert collector.utilization("B", "R2") == pytest.approx(before / 2.0)
        assert collector.max_utilization() == pytest.approx(
            max(view.utilization for view in collector.views())
        )

    def test_vanished_link_state_is_dropped(self, monitored_engine):
        # A failed link disappears from the topology; the collector must
        # drop its estimate and capacity entry (mirroring the poller's
        # vanished-interface cleanup) instead of leaking per-link state that
        # feeds the alarm phantom utilisations.  Historically vanished links
        # kept their last-known capacity and a decaying EWMA forever.
        topology, timeline, engine, collector, _ = self.wire(monitored_engine)
        engine.add_flow("B", BLUE_PREFIX, mbps(16))
        timeline.run_until(3.0)
        assert ("B", "R3") in [view.link for view in collector.views()]
        topology.remove_link("B", "R3", both_directions=True)
        with pytest.raises(MonitoringError):
            collector.utilization("B", "R3")
        assert ("B", "R3") not in [view.link for view in collector.views()]
        assert ("B", "R3") not in collector._estimates
        assert ("B", "R3") not in collector._capacities

    def test_restored_link_remonitored_with_fresh_estimate(self, monitored_engine):
        # The inverse event: a link added (back) to the topology starts
        # monitoring from a fresh EWMA instead of staying invisible.
        topology, timeline, engine, collector, _ = self.wire(monitored_engine)
        engine.add_flow("B", BLUE_PREFIX, mbps(16))
        timeline.run_until(3.0)
        saved = topology.link("B", "R3")
        reverse = topology.link("R3", "B")
        topology.remove_link("B", "R3", both_directions=True)
        with pytest.raises(MonitoringError):
            collector.utilization("B", "R3")
        for link in (saved, reverse):
            topology.add_directed_link(
                link.source, link.target, link.weight, link.capacity, link.delay
            )
        assert collector.utilization("B", "R3") == 0.0
        assert collector.rate("B", "R3") == 0.0


class TestCapacityAgreement:
    """The engine's allocator and the collector's alarm divide by one capacity.

    On the demo, R2 reaches the S1 prefix (announced at B) over the one-hop
    link R2->B.  A 48 Mbit/s flow there is capped at the 32 Mbit/s link;
    once B-R2 is re-added at 64 Mbit/s it must get its full demand, and the
    collector must divide its rate by the same 64 Mbit/s.
    """

    def start(self, aggregate):
        topology = build_demo_topology()
        timeline = Timeline()
        engine_class = AggregateDemandEngine if aggregate else DataPlaneEngine
        engine = engine_class(topology, lambda: compute_static_fibs(topology), timeline)
        engine.start()
        if aggregate:
            engine.add_class("R2", SOURCE_PREFIXES["S1"], mbps(48), 1)
        else:
            engine.add_flow("R2", SOURCE_PREFIXES["S1"], mbps(48))
        assert engine.link_rate("R2", "B") == mbps(32)
        return topology, timeline, engine, LoadCollector(topology)

    def assert_agreement(self, timeline, engine, collector):
        assert engine.link_rate("R2", "B") == mbps(48)
        timeline.run_until(1.0)
        collector.ingest(PollSample(time=1.0, interval=1.0, rates=engine.samples[-1].rates))
        capacity = {view.link: view.capacity for view in collector.views()}[("R2", "B")]
        assert capacity == engine._current_capacities()[("R2", "B")] == mbps(64)
        assert collector.utilization("R2", "B") == pytest.approx(
            collector.rate("R2", "B") / mbps(64)
        )

    @pytest.mark.parametrize("aggregate", [False, True], ids=["flows", "classes"])
    def test_link_readded_at_another_capacity(self, aggregate):
        topology, timeline, engine, collector = self.start(aggregate)
        topology.remove_link("B", "R2")
        engine.notify_routing_change()
        assert engine.link_rate("R2", "B") == 0.0
        topology.add_link("B", "R2", weight=1, capacity=mbps(64))
        engine.notify_routing_change()
        self.assert_agreement(timeline, engine, collector)

    @pytest.mark.parametrize("aggregate", [False, True], ids=["flows", "classes"])
    def test_capacity_moved_under_an_unchanged_path(self, aggregate):
        # Removed and re-added before any FIB moved: no flow is re-routed,
        # so only the capacity change itself can lift the rate.
        topology, timeline, engine, collector = self.start(aggregate)
        topology.remove_link("B", "R2")
        topology.add_link("B", "R2", weight=1, capacity=mbps(64))
        engine.notify_routing_change()
        self.assert_agreement(timeline, engine, collector)


class TestNotifications:
    def make_notification(self, delta=1, ingress="B"):
        return ClientNotification(
            time=1.0, server="S1", ingress=ingress, prefix=BLUE_PREFIX, bitrate=mbps(1), delta=delta
        )

    def test_bus_delivers_to_subscribers(self):
        bus = NotificationBus()
        seen = []
        bus.subscribe(seen.append)
        notification = self.make_notification()
        bus.publish(notification)
        assert seen == [notification]
        assert bus.published == [notification]

    def test_registry_counts_clients(self):
        registry = ClientRegistry()
        registry.observe(self.make_notification())
        registry.observe(self.make_notification())
        registry.observe(self.make_notification(delta=-1))
        assert registry.client_count("B", BLUE_PREFIX) == 1
        assert registry.total_clients() == 1

    def test_registry_rejects_unmatched_departure(self):
        registry = ClientRegistry()
        with pytest.raises(MonitoringError):
            registry.observe(self.make_notification(delta=-1))

    def test_demand_matrix_scales_with_clients(self):
        registry = ClientRegistry()
        for _ in range(5):
            registry.observe(self.make_notification())
        for _ in range(3):
            registry.observe(self.make_notification(ingress="A"))
        matrix = registry.demand_matrix()
        assert matrix.rate("B", BLUE_PREFIX) == pytest.approx(mbps(5))
        assert matrix.rate("A", BLUE_PREFIX) == pytest.approx(mbps(3))

    def test_registry_attaches_to_bus(self):
        bus = NotificationBus()
        registry = ClientRegistry()
        registry.attach(bus)
        bus.publish(self.make_notification())
        assert registry.total_clients() == 1

    def test_invalid_delta_rejected(self):
        with pytest.raises(MonitoringError):
            self.make_notification(delta=0)


class TestCounterCollection:
    """Aggregation of spf_*/rib_*/dp_* counters through ``IgpNetwork.spf_stats``."""

    def build_network_with_engine(self):
        from repro.igp.network import IgpNetwork

        topology = build_demo_topology()
        network = IgpNetwork(topology)
        network.start()
        network.converge()
        engine = DataPlaneEngine(
            topology,
            lambda: network.fibs(),
            network.timeline,
            sample_interval=1.0,
        )
        engine.bind_to_network(network)
        engine.add_flow("B", BLUE_PREFIX, mbps(2))
        engine.add_flow("B", BLUE_PREFIX, mbps(2))
        engine.notify_routing_change()  # a no-op refresh: pure cache reuse
        return network, engine

    def test_spf_stats_merges_all_three_layers(self):
        network, engine = self.build_network_with_engine()
        total = network.spf_stats
        # The dataplane family mirrors the bound engine's counters exactly.
        assert network.counter_sets()["dataplane"].snapshot() == engine.counters.snapshot()
        assert total["dp_classes_rewalked"] == engine.counters.classes_rewalked
        assert total["dp_classes_reused"] == engine.counters.classes_reused > 0
        # Every layer's keys are present in the merged total.
        for key in ("spf_cache_hits", "rib_cache_hits", "dp_alloc_warm_starts"):
            assert key in total

    def test_network_merges_multiple_engines(self):
        from repro.dataplane.path_cache import DataPlaneCounters

        network, engine = self.build_network_with_engine()
        second = DataPlaneEngine(
            network.topology,
            lambda: network.fibs(),
            network.timeline,
            sample_interval=1.0,
        )
        second.bind_to_network(network)
        second.bind_to_network(network)  # double-bind must not double-count
        second.add_flow("A", BLUE_PREFIX, mbps(1))
        merged = network.counter_sets()["dataplane"]
        assert merged == DataPlaneCounters.total([engine.counters, second.counters])
        assert merged.classes_rewalked == (
            engine.counters.classes_rewalked + second.counters.classes_rewalked
        ) > engine.counters.classes_rewalked

    def test_controller_stats_mirror_dataplane_counters(self):
        from repro.core.controller import FibbingController

        network, engine = self.build_network_with_engine()
        controller = FibbingController(
            network.topology, network=network, attachment="R3"
        )
        stats = controller.stats.snapshot()
        assert stats["dp_classes_rewalked"] == engine.counters.classes_rewalked
        assert stats["dp_classes_reused"] == engine.counters.classes_reused
        assert stats["dp_alloc_full"] == engine.counters.alloc_full

    def test_network_merges_multiple_controllers(self):
        """Two controllers on one network: ctl_* counters merge — the last
        registration must not overwrite (or double-count) earlier ones."""
        from repro.core.controller import FibbingController

        network, _engine = self.build_network_with_engine()
        first = FibbingController(
            network.topology, name="tenant-a", network=network, attachment="R3"
        )
        second = FibbingController(
            network.topology, name="tenant-b", network=network, attachment="R3"
        )
        network.register_controller(second)  # double-register must not double-count
        first.reconciler.counters.plans_recomputed += 5
        first.reconciler.counters.lies_injected += 2
        second.reconciler.counters.plans_recomputed += 7
        merged = network.counter_sets()["controller"]
        assert merged.plans_recomputed == 12
        assert merged.lies_injected == 2
        assert network.spf_stats["ctl_plans_recomputed"] == 12

    def test_single_controller_registers_once_and_reports_no_shard_keys(self):
        """One controller is the whole control plane: registering it again
        counts nothing twice, and no ``shard_*`` key reaches any surface."""
        from repro.core.controller import FibbingController

        network, _engine = self.build_network_with_engine()
        controller = FibbingController(
            network.topology, network=network, attachment="R3"
        )
        controller.reconciler.counters.plans_recomputed += 4
        network.register_controller(controller)
        assert network.counter_sets()["controller"].plans_recomputed == 4
        surfaces = (network.spf_stats, controller.stats.snapshot())
        for surface in surfaces:
            assert not [key for key in surface if key.startswith("shard_")]
        assert "shard" not in network.counter_sets()
