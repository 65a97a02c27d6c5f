"""Tests for the event-driven data-plane engine."""

import pytest

from repro.dataplane.engine import DataPlaneEngine
from repro.igp.network import compute_static_fibs
from repro.topologies.demo import BLUE_PREFIX, build_demo_topology, demo_lies
from repro.util.errors import SimulationError
from repro.util.timeline import Timeline
from repro.util.units import mbps


@pytest.fixture
def engine_setup():
    topology = build_demo_topology()
    fibs = compute_static_fibs(topology)
    timeline = Timeline()
    engine = DataPlaneEngine(topology, lambda: fibs, timeline, sample_interval=1.0)
    engine.start()
    return topology, fibs, timeline, engine


class TestFlowLifecycle:
    def test_add_flow_allocates_rate(self, engine_setup):
        _, _, timeline, engine = engine_setup
        flow = engine.add_flow("B", BLUE_PREFIX, mbps(1))
        assert engine.flow_rate(flow.flow_id) == pytest.approx(mbps(1))
        assert engine.link_rate("B", "R2") == pytest.approx(mbps(1))

    def test_add_flow_at_unknown_router_rejected(self, engine_setup):
        _, _, _, engine = engine_setup
        with pytest.raises(SimulationError):
            engine.add_flow("ghost", BLUE_PREFIX, mbps(1))

    def test_remove_flow_releases_capacity(self, engine_setup):
        _, _, _, engine = engine_setup
        flow = engine.add_flow("B", BLUE_PREFIX, mbps(1))
        engine.remove_flow(flow.flow_id)
        assert engine.link_rate("B", "R2") == 0.0
        assert engine.flow_rate(flow.flow_id) == 0.0

class TestCountersAndSampling:
    def test_byte_counters_integrate_rates(self, engine_setup):
        _, _, timeline, engine = engine_setup
        engine.add_flow("B", BLUE_PREFIX, mbps(8))  # 1 MB/s
        timeline.run_until(10.0)
        counted = engine.link_transmitted_bytes("B", "R2")
        assert counted == pytest.approx(10e6, rel=0.01)

    def test_flow_counters_match_link_counters_single_flow(self, engine_setup):
        _, _, timeline, engine = engine_setup
        flow = engine.add_flow("B", BLUE_PREFIX, mbps(8))
        timeline.run_until(5.0)
        assert engine.flow_transmitted_bytes(flow.flow_id) == pytest.approx(
            engine.link_transmitted_bytes("B", "R2"), rel=0.01
        )

    def test_samples_report_average_rates(self, engine_setup):
        _, _, timeline, engine = engine_setup
        engine.add_flow("B", BLUE_PREFIX, mbps(4))
        timeline.run_until(5.0)
        assert len(engine.samples) == 5
        last = engine.samples[-1]
        assert last.rate_of("B", "R2") == pytest.approx(mbps(4), rel=0.01)
        assert last.rate_of("A", "R1") == 0.0

    def test_sample_listener_invoked(self, engine_setup):
        _, _, timeline, engine = engine_setup
        seen = []
        engine.on_sample(lambda sample: seen.append(sample.time))
        timeline.run_until(3.0)
        assert seen == [1.0, 2.0, 3.0]

    def test_all_link_counters_snapshot(self, engine_setup):
        topology, _, timeline, engine = engine_setup
        engine.add_flow("B", BLUE_PREFIX, mbps(8))
        timeline.run_until(2.0)
        counters = engine.all_link_counters()
        assert counters[("B", "R2")] > 0
        assert len(counters) == len(topology.links)


class TestCongestionAndFairness:
    def test_oversubscribed_link_caps_flows(self, engine_setup):
        _, _, timeline, engine = engine_setup
        # 40 x 1 Mbit/s flows through a 32 Mbit/s link.
        for _ in range(40):
            engine.add_flow("B", BLUE_PREFIX, mbps(1))
        total = engine.link_rate("B", "R2")
        assert total <= mbps(32) + 1.0
        assert engine.max_link_utilization() == pytest.approx(1.0, rel=0.01)

    def test_current_loads_view(self, engine_setup):
        topology, _, _, engine = engine_setup
        engine.add_flow("B", BLUE_PREFIX, mbps(2))
        loads = engine.current_loads()
        assert loads.load("B", "R2") == pytest.approx(mbps(2))
        assert loads.max_utilization(topology) > 0


class TestRoutingChanges:
    def test_notify_routing_change_moves_traffic(self):
        topology = build_demo_topology()
        timeline = Timeline()
        current = {"fibs": compute_static_fibs(topology)}
        engine = DataPlaneEngine(topology, lambda: current["fibs"], timeline, sample_interval=1.0)
        engine.start()
        for _ in range(20):
            engine.add_flow("B", BLUE_PREFIX, mbps(1))
        assert engine.link_rate("B", "R3") == 0.0

        current["fibs"] = compute_static_fibs(topology, demo_lies())
        engine.notify_routing_change()
        assert engine.link_rate("B", "R3") > 0.0
        assert engine.link_rate("B", "R2") + engine.link_rate("B", "R3") == pytest.approx(mbps(20))

    def test_counters_preserved_across_routing_change(self):
        topology = build_demo_topology()
        timeline = Timeline()
        current = {"fibs": compute_static_fibs(topology)}
        engine = DataPlaneEngine(topology, lambda: current["fibs"], timeline, sample_interval=1.0)
        engine.start()
        engine.add_flow("B", BLUE_PREFIX, mbps(8))
        timeline.run_until(3.0)
        before = engine.link_transmitted_bytes("B", "R2")
        current["fibs"] = compute_static_fibs(topology, demo_lies())
        engine.notify_routing_change()
        timeline.run_until(6.0)
        after = engine.link_transmitted_bytes("B", "R2")
        assert after >= before  # counters never go backwards
