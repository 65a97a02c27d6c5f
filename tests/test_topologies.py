"""Tests for the topology builders (demo, zoo, random, isp)."""

import pytest

from repro.igp.graph import ComputationGraph
from repro.igp.network import compute_static_fibs
from repro.igp.spf import compute_spf
from repro.topologies import (
    abilene,
    build_demo_scenario,
    build_demo_topology,
    demo_lies,
    dumbbell,
    grid,
    random_topology,
    ring,
    synthetic_isp,
    waxman_topology,
)
from repro.topologies.demo import BLUE_PREFIX, SOURCE_PREFIXES
from repro.topologies.random import attach_destination_prefixes
from repro.util.errors import ValidationError

from oracles import paths_to


def connected(topology):
    """Whether every router reaches every other router over directed links."""
    graph = ComputationGraph.from_topology(topology)
    routers = topology.routers
    return all(
        all(compute_spf(graph, root).reachable(router) for router in routers) for root in routers
    )


class TestDemoTopology:
    def test_paper_weights(self):
        topo = build_demo_topology()
        assert topo.link("A", "B").weight == 1
        assert topo.link("A", "R1").weight == 2
        assert topo.link("B", "R3").weight == 2
        assert topo.link("R2", "R3").weight == 2

    def test_shortest_paths_overlap_on_b_r2_c(self):
        """Fig. 1a: the IGP shortest paths from A and B overlap along B-R2-C."""
        graph = ComputationGraph.from_topology(build_demo_topology())
        spf_a = compute_spf(graph, "A")
        spf_b = compute_spf(graph, "B")
        assert paths_to(spf_a, "C") == [("A", "B", "R2", "C")]
        assert paths_to(spf_b, "C") == [("B", "R2", "C")]

    def test_blue_prefix_attached_at_c(self):
        topo = build_demo_topology()
        assert topo.prefix_attachments(BLUE_PREFIX)[0].router == "C"

    def test_server_prefixes_attached_at_ingresses(self):
        topo = build_demo_topology()
        assert topo.prefix_attachments(SOURCE_PREFIXES["S1"])[0].router == "B"
        assert topo.prefix_attachments(SOURCE_PREFIXES["S2"])[0].router == "A"

    def test_demo_lies_match_fig1c(self):
        lies = demo_lies()
        assert len(lies) == 3
        by_anchor = {}
        for lie in lies:
            by_anchor.setdefault(lie.anchor, []).append(lie)
        assert len(by_anchor["A"]) == 2
        assert len(by_anchor["B"]) == 1
        assert by_anchor["B"][0].forwarding_address == "R3"
        assert by_anchor["B"][0].total_cost == 2
        assert all(lie.forwarding_address == "R1" for lie in by_anchor["A"])
        assert all(lie.total_cost == 3 for lie in by_anchor["A"])

    def test_scenario_schedule_matches_paper(self):
        scenario = build_demo_scenario()
        assert scenario.flow_schedule == ((0.0, "S1", 1), (15.0, "S1", 30), (35.0, "S2", 31))
        assert scenario.controller_attachment == "R3"
        assert scenario.monitored_links == (("A", "R1"), ("B", "R2"), ("B", "R3"))

    def test_scenario_capacity_and_bitrate(self):
        scenario = build_demo_scenario()
        # 31 concurrent 1 Mbit/s flows come close to the 4e6 byte/s mark.
        assert 31 * scenario.video_bitrate <= scenario.link_capacity
        assert 62 * scenario.video_bitrate > scenario.link_capacity


class TestZooTopologies:
    def test_abilene_shape(self):
        topo = abilene()
        assert topo.num_routers == 11
        assert connected(topo)
        assert len(topo.prefixes) == 11

    def test_ring_size_and_connectivity(self):
        topo = ring(6)
        assert topo.num_routers == 6
        assert len(topo.links) == 12
        assert connected(topo)

    def test_ring_minimum_size(self):
        with pytest.raises(ValidationError):
            ring(2)

    def test_grid_shape(self):
        topo = grid(3, 4, with_loopbacks=False)
        assert topo.num_routers == 12
        assert connected(topo)

    def test_grid_rejects_degenerate_dimensions(self):
        with pytest.raises(ValidationError):
            grid(1, 1)

    def test_dumbbell_bottleneck_capacity(self):
        topo = dumbbell(pairs=2, edge_capacity=100.0)
        assert topo.link("Left", "Right").capacity == 50.0
        assert topo.num_routers == 6

    def test_dumbbell_needs_at_least_one_pair(self):
        with pytest.raises(ValidationError):
            dumbbell(pairs=0)

    def test_zoo_topologies_are_routable(self):
        for topo in [abilene(), ring(5), grid(3, 3), dumbbell(2)]:
            fibs = compute_static_fibs(topo)
            assert set(fibs) == set(topo.routers)


class TestRandomTopologies:
    def test_deterministic_for_same_seed(self):
        a = random_topology(10, seed=7)
        b = random_topology(10, seed=7)
        assert [link.key for link in a.links] == [link.key for link in b.links]
        assert [link.weight for link in a.links] == [link.weight for link in b.links]

    def test_different_seeds_differ(self):
        a = random_topology(10, seed=1)
        b = random_topology(10, seed=2)
        assert [link.key for link in a.links] != [link.key for link in b.links]

    def test_always_connected(self):
        for seed in range(5):
            assert connected(random_topology(15, edge_probability=0.05, seed=seed))

    def test_prefix_attachment_mapping(self):
        topo = random_topology(5, seed=0, with_prefixes=False)
        mapping = attach_destination_prefixes(topo)
        assert set(mapping) == set(topo.routers)
        assert len(set(mapping.values())) == 5

    def test_waxman_connected_and_deterministic(self):
        a = waxman_topology(12, seed=3)
        b = waxman_topology(12, seed=3)
        assert connected(a)
        assert [link.key for link in a.links] == [link.key for link in b.links]

    def test_minimum_size_enforced(self):
        with pytest.raises(ValidationError):
            random_topology(1)
        with pytest.raises(ValidationError):
            waxman_topology(1)

    def test_invalid_probability_rejected(self):
        with pytest.raises(ValidationError):
            random_topology(5, edge_probability=1.5)


class TestSyntheticIsp:
    def test_structure(self):
        topo = synthetic_isp(core_size=6, pops=3, prefixes_per_pop=2, seed=0)
        assert topo.num_routers == 6 + 3 * 2
        assert connected(topo)
        assert len(topo.prefixes) == 6

    def test_core_links_have_higher_capacity(self):
        topo = synthetic_isp(core_size=4, pops=1, seed=0)
        assert topo.link("Core0", "Core1").capacity > topo.link("Pop0A", "Pop0B").capacity

    def test_deterministic_for_seed(self):
        a = synthetic_isp(seed=5)
        b = synthetic_isp(seed=5)
        assert [link.key for link in a.links] == [link.key for link in b.links]

    def test_parameter_validation(self):
        with pytest.raises(ValidationError):
            synthetic_isp(core_size=2)
        with pytest.raises(ValidationError):
            synthetic_isp(pops=0)
        with pytest.raises(ValidationError):
            synthetic_isp(prefixes_per_pop=-1)
