"""Tests for repro.igp.topology."""

import pytest

from repro.igp.topology import Link, Topology
from repro.util.errors import TopologyError, ValidationError
from repro.util.prefixes import Prefix


def simple_topology() -> Topology:
    topo = Topology("simple")
    topo.add_routers(["X", "Y", "Z"])
    topo.add_link("X", "Y", weight=1)
    topo.add_link("Y", "Z", weight=2)
    return topo


class TestRouters:
    def test_add_and_lookup_router(self):
        topo = Topology()
        info = topo.add_router("A")
        assert topo.has_router("A")
        assert topo.router("A") is info
        assert info.router_id == 1

    def test_router_ids_are_unique_and_increasing(self):
        topo = Topology()
        first = topo.add_router("A")
        second = topo.add_router("B")
        assert second.router_id > first.router_id

    def test_explicit_router_id_respected(self):
        topo = Topology()
        info = topo.add_router("A", router_id=42)
        assert info.router_id == 42
        assert topo.add_router("B").router_id == 43

    def test_duplicate_router_rejected(self):
        topo = Topology()
        topo.add_router("A")
        with pytest.raises(TopologyError):
            topo.add_router("A")

    def test_empty_name_rejected(self):
        with pytest.raises(TopologyError):
            Topology().add_router("")

    def test_unknown_router_lookup_raises(self):
        with pytest.raises(TopologyError):
            Topology().router("missing")

    def test_contains_and_iteration(self):
        topo = simple_topology()
        assert "X" in topo
        assert list(topo) == ["X", "Y", "Z"]


class TestLinks:
    def test_add_link_creates_both_directions(self):
        topo = simple_topology()
        assert topo.has_link("X", "Y")
        assert topo.has_link("Y", "X")
        assert len(topo.links) == 4

    def test_directed_link_is_one_way(self):
        topo = Topology()
        topo.add_routers(["A", "B"])
        topo.add_directed_link("A", "B", weight=3)
        assert topo.has_link("A", "B")
        assert not topo.has_link("B", "A")

    def test_asymmetric_weights(self):
        topo = Topology()
        topo.add_routers(["A", "B"])
        topo.add_link("A", "B", weight=1, reverse_weight=5)
        assert topo.link("A", "B").weight == 1
        assert topo.link("B", "A").weight == 5

    def test_link_to_unknown_router_rejected(self):
        topo = Topology()
        topo.add_router("A")
        with pytest.raises(TopologyError):
            topo.add_link("A", "ghost")

    def test_self_loop_rejected(self):
        topo = Topology()
        topo.add_router("A")
        with pytest.raises(TopologyError):
            topo.add_directed_link("A", "A")

    def test_duplicate_link_rejected(self):
        topo = simple_topology()
        with pytest.raises(TopologyError):
            topo.add_link("X", "Y")

    def test_invalid_weight_rejected(self):
        topo = Topology()
        topo.add_routers(["A", "B"])
        with pytest.raises(ValidationError):
            topo.add_link("A", "B", weight=0)

    def test_neighbors_sorted(self):
        topo = simple_topology()
        assert topo.neighbors("Y") == ["X", "Z"]

    def test_remove_link_both_directions(self):
        topo = simple_topology()
        topo.remove_link("X", "Y")
        assert not topo.has_link("X", "Y")
        assert not topo.has_link("Y", "X")
        assert "Y" not in topo.neighbors("X")

    def test_remove_unknown_link_raises(self):
        topo = simple_topology()
        with pytest.raises(TopologyError):
            topo.remove_link("X", "Z")

    def test_set_weight_changes_both_directions(self):
        topo = simple_topology()
        topo.set_weight("X", "Y", 7)
        assert topo.link("X", "Y").weight == 7
        assert topo.link("Y", "X").weight == 7

    def test_set_weight_one_direction(self):
        topo = simple_topology()
        topo.set_weight("X", "Y", 7, both_directions=False)
        assert topo.link("X", "Y").weight == 7
        assert topo.link("Y", "X").weight == 1

    def test_undirected_links_deduplicated(self):
        topo = simple_topology()
        assert topo.undirected_links == [("X", "Y"), ("Y", "Z")]

    def test_link_reversed_helper(self):
        link = Link(source="A", target="B", weight=2, capacity=10, delay=0.1)
        back = link.reversed()
        assert back.source == "B" and back.target == "A"
        assert back.capacity == 10

class TestPrefixes:
    def test_attach_and_list_prefix(self):
        topo = simple_topology()
        topo.attach_prefix("Z", "10.0.0.0/24", cost=5)
        assert topo.prefixes == [Prefix.parse("10.0.0.0/24")]
        attachment = topo.prefix_attachments("10.0.0.0/24")[0]
        assert attachment.router == "Z"
        assert attachment.cost == 5

    def test_attach_prefix_accepts_prefix_object(self):
        topo = simple_topology()
        prefix = Prefix.parse("10.0.0.0/24")
        topo.attach_prefix("X", prefix)
        assert topo.attachments_of("X")[0].prefix is prefix

    def test_prefix_on_unknown_router_rejected(self):
        topo = simple_topology()
        with pytest.raises(TopologyError):
            topo.attach_prefix("ghost", "10.0.0.0/24")

    def test_duplicate_attachment_rejected(self):
        topo = simple_topology()
        topo.attach_prefix("Z", "10.0.0.0/24")
        with pytest.raises(TopologyError):
            topo.attach_prefix("Z", "10.0.0.0/24")

    def test_multihomed_prefix_allowed(self):
        topo = simple_topology()
        topo.attach_prefix("X", "10.0.0.0/24")
        topo.attach_prefix("Z", "10.0.0.0/24")
        assert len(topo.prefix_attachments("10.0.0.0/24")) == 2

    def test_unknown_prefix_lookup_raises(self):
        with pytest.raises(TopologyError):
            simple_topology().prefix_attachments("10.9.9.0/24")


class TestWholeTopology:
    def test_copy_is_deep(self):
        topo = simple_topology()
        topo.attach_prefix("Z", "10.0.0.0/24")
        clone = topo.copy()
        clone.set_weight("X", "Y", 9)
        clone.attach_prefix("X", "10.0.0.0/24")
        assert topo.link("X", "Y").weight == 1
        assert len(topo.prefix_attachments("10.0.0.0/24")) == 1

    def test_validate_passes_on_consistent_topology(self, demo_topology):
        demo_topology.validate()

    def test_demo_topology_shape(self, demo_topology):
        assert demo_topology.num_routers == 7
        assert ("A", "B") in [link.key for link in demo_topology.links]
        assert demo_topology.link("A", "R1").weight == 2
        assert demo_topology.link("B", "R2").weight == 1
