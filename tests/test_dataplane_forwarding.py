"""Tests for repro.dataplane.forwarding (fluid and hashed routing)."""

import pytest

from repro.dataplane.demand import TrafficMatrix
from repro.dataplane.flows import Flow
from repro.dataplane.forwarding import (
    forwarding_graph,
    route_flows_hashed,
    route_fractional,
)
from repro.igp.fib import Fib, FibEntry, PrefixFib
from repro.igp.network import compute_static_fibs
from repro.topologies.demo import BLUE_PREFIX, build_demo_topology, demo_lies
from repro.util.errors import RoutingError
from repro.util.prefixes import Prefix


@pytest.fixture
def baseline_fibs():
    return compute_static_fibs(build_demo_topology())


@pytest.fixture
def fibbed_fibs():
    return compute_static_fibs(build_demo_topology(), demo_lies())


class TestForwardingGraph:
    def test_graph_structure_baseline(self, baseline_fibs):
        graph = forwarding_graph(baseline_fibs, BLUE_PREFIX)
        assert graph["A"] == {"B": 1.0}
        assert graph["B"] == {"R2": 1.0}
        assert graph["C"] == {}  # local delivery

    def test_graph_structure_with_lies(self, fibbed_fibs):
        graph = forwarding_graph(fibbed_fibs, BLUE_PREFIX)
        assert graph["A"]["R1"] == pytest.approx(2 / 3)
        assert graph["B"] == {"R2": 0.5, "R3": 0.5}

    def test_routers_without_entry_are_absent(self, baseline_fibs):
        graph = forwarding_graph(baseline_fibs, Prefix.parse("10.1.0.0/24"))
        assert "B" in graph  # S1 prefix is attached at B
        assert graph["B"] == {}


class TestFractionalRouting:
    def test_fig1b_baseline_loads(self, baseline_fibs, demo_demands):
        outcome = route_fractional(baseline_fibs, demo_demands)
        assert outcome.loads.load("A", "B") == pytest.approx(100.0)
        assert outcome.loads.load("B", "R2") == pytest.approx(200.0)
        assert outcome.loads.load("R2", "C") == pytest.approx(200.0)
        assert outcome.loads.load("A", "R1") == 0.0
        assert outcome.delivered == pytest.approx(200.0)
        assert outcome.undeliverable == 0.0

    def test_fig1d_fibbed_loads(self, fibbed_fibs, demo_demands):
        outcome = route_fractional(fibbed_fibs, demo_demands)
        for link in [("A", "R1"), ("B", "R2"), ("B", "R3"), ("R1", "R4"), ("R4", "C")]:
            assert outcome.loads.load(*link) == pytest.approx(200.0 / 3)
        assert outcome.loads.load("A", "B") == pytest.approx(100.0 / 3)
        assert outcome.delivered == pytest.approx(200.0)

    def test_conservation_of_traffic(self, fibbed_fibs, demo_demands):
        outcome = route_fractional(fibbed_fibs, demo_demands)
        assert outcome.delivered + outcome.undeliverable == pytest.approx(demo_demands.total())

    def test_demand_at_destination_router_is_local(self, baseline_fibs):
        demands = TrafficMatrix.from_dict({("C", BLUE_PREFIX): 50.0})
        outcome = route_fractional(baseline_fibs, demands)
        assert outcome.delivered == 50.0
        assert list(outcome.loads) == []

    def test_unroutable_demand_counted(self, baseline_fibs):
        demands = TrafficMatrix.from_dict({("A", "203.0.113.0/24"): 10.0})
        outcome = route_fractional(baseline_fibs, demands)
        assert outcome.undeliverable == 10.0
        assert outcome.loss_fraction == 1.0

    def test_forwarding_loop_detected(self):
        prefix = BLUE_PREFIX
        loop_fibs = {
            "X": Fib("X", {prefix: PrefixFib(prefix, 1, (FibEntry("Y", 1),))}),
            "Y": Fib("Y", {prefix: PrefixFib(prefix, 1, (FibEntry("X", 1),))}),
        }
        demands = TrafficMatrix.from_dict({("X", prefix): 1.0})
        with pytest.raises(RoutingError):
            route_fractional(loop_fibs, demands)


class TestHashedRouting:
    def build_flows(self, count: int, ingress: str = "B") -> list:
        return [
            Flow(flow_id=i, ingress=ingress, prefix=BLUE_PREFIX, demand=1.0)
            for i in range(count)
        ]

    def test_single_flow_takes_single_path(self, fibbed_fibs):
        outcome = route_flows_hashed(fibbed_fibs, self.build_flows(1))
        path = outcome.flow_paths[0]
        assert path.delivered
        assert path.hops[0] == "B"
        assert path.hops[-1] == "C"
        # A single flow is never split: exactly one outgoing link at B is used.
        used_at_b = [link for link in path.links if link[0] == "B"]
        assert len(used_at_b) == 1

    def test_many_flows_approximate_even_split(self, fibbed_fibs):
        outcome = route_flows_hashed(fibbed_fibs, self.build_flows(400), salt=1)
        via_r2 = outcome.loads.load("B", "R2")
        via_r3 = outcome.loads.load("B", "R3")
        assert via_r2 + via_r3 == pytest.approx(400.0)
        assert abs(via_r2 - via_r3) < 80  # within ~20% of an even split

    def test_uneven_split_at_a_is_respected(self, fibbed_fibs):
        flows = [
            Flow(flow_id=i, ingress="A", prefix=BLUE_PREFIX, demand=1.0) for i in range(600)
        ]
        outcome = route_flows_hashed(fibbed_fibs, flows, salt=3)
        via_b = outcome.loads.load("A", "B")
        via_r1 = outcome.loads.load("A", "R1")
        assert via_b + via_r1 == pytest.approx(600.0)
        # Expect roughly 1/3 vs 2/3.
        assert 0.22 < via_b / 600.0 < 0.45
        assert 0.55 < via_r1 / 600.0 < 0.78

    def test_deterministic_for_same_salt(self, fibbed_fibs):
        flows = self.build_flows(50)
        first = route_flows_hashed(fibbed_fibs, flows, salt=7)
        second = route_flows_hashed(fibbed_fibs, flows, salt=7)
        assert {
            fid: path.hops for fid, path in first.flow_paths.items()
        } == {fid: path.hops for fid, path in second.flow_paths.items()}

    def test_different_salt_changes_some_choices(self, fibbed_fibs):
        flows = self.build_flows(50)
        first = route_flows_hashed(fibbed_fibs, flows, salt=1)
        second = route_flows_hashed(fibbed_fibs, flows, salt=2)
        assert any(
            first.flow_paths[fid].hops != second.flow_paths[fid].hops for fid in range(50)
        )

    def test_undeliverable_flow_reported(self, baseline_fibs):
        flows = [Flow(flow_id=0, ingress="A", prefix=Prefix.parse("203.0.113.0/24"), demand=2.0)]
        outcome = route_flows_hashed(baseline_fibs, flows)
        assert outcome.undeliverable == 2.0
        assert not outcome.flow_paths[0].delivered

    def test_looping_fibs_flag_the_flow(self):
        prefix = BLUE_PREFIX
        loop_fibs = {
            "X": Fib("X", {prefix: PrefixFib(prefix, 1, (FibEntry("Y", 1),))}),
            "Y": Fib("Y", {prefix: PrefixFib(prefix, 1, (FibEntry("X", 1),))}),
        }
        flows = [Flow(flow_id=0, ingress="X", prefix=prefix, demand=1.0)]
        outcome = route_flows_hashed(loop_fibs, flows)
        assert outcome.flow_paths[0].looped
        assert not outcome.flow_paths[0].delivered

    def test_fibbing_never_creates_loops_in_demo(self, fibbed_fibs):
        flows = self.build_flows(100, ingress="A") + self.build_flows(100, ingress="B")
        # Re-number to keep ids unique.
        flows = [
            Flow(flow_id=i, ingress=flow.ingress, prefix=flow.prefix, demand=flow.demand)
            for i, flow in enumerate(flows)
        ]
        outcome = route_flows_hashed(fibbed_fibs, flows)
        assert not any(path.looped for path in outcome.flow_paths.values())
        assert all(path.delivered for path in outcome.flow_paths.values())
