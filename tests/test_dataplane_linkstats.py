"""Tests for repro.dataplane.linkstats."""

import pytest

from repro.dataplane.linkstats import LinkLoads, LinkUtilization
from repro.topologies.demo import build_demo_topology
from repro.util.errors import ValidationError


class TestLinkLoads:
    def test_add_and_read(self):
        loads = LinkLoads()
        loads.add("A", "B", 10.0)
        loads.add("A", "B", 5.0)
        assert loads.load("A", "B") == 15.0
        assert loads.load("B", "A") == 0.0

    def test_negative_rate_rejected(self):
        with pytest.raises(ValidationError):
            LinkLoads().add("A", "B", -1.0)

    def test_iteration_sorted(self):
        loads = LinkLoads()
        loads.add("B", "C", 1.0)
        loads.add("A", "B", 1.0)
        assert [key for key, _ in loads] == [("A", "B"), ("B", "C")]


class TestUtilization:
    def test_utilization_against_demo_capacities(self):
        topology = build_demo_topology(capacity=100.0)
        loads = LinkLoads()
        loads.add("B", "R2", 50.0)
        view = loads.utilization_of(topology, "B", "R2")
        assert view.utilization == pytest.approx(0.5)

    def test_oversubscribed_link_exceeds_one(self):
        topology = build_demo_topology(capacity=100.0)
        loads = LinkLoads()
        loads.add("B", "R2", 150.0)
        assert loads.utilization_of(topology, "B", "R2").utilization == pytest.approx(1.5)

    def test_max_utilization(self):
        topology = build_demo_topology(capacity=100.0)
        loads = LinkLoads()
        loads.add("B", "R2", 80.0)
        loads.add("A", "B", 20.0)
        assert loads.max_utilization(topology) == pytest.approx(0.8)

    def test_max_utilization_empty_is_zero(self):
        assert LinkLoads().max_utilization(build_demo_topology()) == 0.0

    def test_utilizations_cover_every_directed_link(self):
        topology = build_demo_topology()
        views = LinkLoads().utilizations(topology)
        assert len(views) == len(topology.links)

    def test_unknown_link_raises(self):
        from repro.util.errors import TopologyError

        with pytest.raises(TopologyError):
            LinkLoads().utilization_of(build_demo_topology(), "A", "C")

    def test_zero_capacity_guard(self):
        view = LinkUtilization(link=("A", "B"), load=10.0, capacity=0.0)
        assert view.utilization == 0.0
