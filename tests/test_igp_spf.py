"""Tests for repro.igp.spf (Dijkstra with ECMP)."""

import networkx as nx
import pytest

from repro.igp.graph import ComputationGraph
from repro.igp.rib import RouteContribution, compute_rib
from repro.igp.spf import compute_spf
from repro.topologies.demo import BLUE_PREFIX, build_demo_topology, demo_lies
from repro.topologies.zoo import grid
from repro.util.errors import RoutingError

from oracles import paths_to


def diamond_graph() -> ComputationGraph:
    """A diamond with two equal-cost paths S -> T."""
    graph = ComputationGraph()
    graph.add_edge("S", "L", 1)
    graph.add_edge("L", "S", 1)
    graph.add_edge("S", "R", 1)
    graph.add_edge("R", "S", 1)
    graph.add_edge("L", "T", 1)
    graph.add_edge("T", "L", 1)
    graph.add_edge("R", "T", 1)
    graph.add_edge("T", "R", 1)
    return graph


class TestDistances:
    def test_source_distance_is_zero(self):
        spf = compute_spf(diamond_graph(), "S")
        assert spf.distance_to("S") == 0.0

    def test_diamond_distances(self):
        spf = compute_spf(diamond_graph(), "S")
        assert spf.distance_to("L") == 1
        assert spf.distance_to("T") == 2

    def test_demo_topology_distances_from_a(self):
        graph = ComputationGraph.from_topology(build_demo_topology())
        spf = compute_spf(graph, "A")
        assert spf.distance_to("B") == 1
        assert spf.distance_to("R1") == 2
        assert spf.distance_to("C") == 3
        assert spf.distance_to("R4") == 3

    def test_demo_topology_distances_from_b(self):
        graph = ComputationGraph.from_topology(build_demo_topology())
        spf = compute_spf(graph, "B")
        assert spf.distance_to("C") == 2
        assert spf.distance_to("R3") == 2

    def test_unreachable_node_reported(self):
        graph = diamond_graph()
        graph.add_node("island")
        spf = compute_spf(graph, "S")
        assert not spf.reachable("island")
        with pytest.raises(RoutingError):
            spf.distance_to("island")

    def test_unknown_source_rejected(self):
        with pytest.raises(RoutingError):
            compute_spf(diamond_graph(), "nope")

    def test_matches_networkx_on_random_graphs(self):
        """SPF distances must agree with networkx's Dijkstra on many seeds."""
        from repro.topologies.random import random_topology

        for seed in range(5):
            topology = random_topology(num_routers=12, edge_probability=0.3, seed=seed, with_prefixes=False)
            graph = ComputationGraph.from_topology(topology)
            nx_graph = nx.DiGraph()
            for link in topology.links:
                nx_graph.add_edge(link.source, link.target, weight=link.weight)
            source = topology.routers[0]
            expected = nx.single_source_dijkstra_path_length(nx_graph, source)
            spf = compute_spf(graph, source)
            for node, distance in expected.items():
                assert spf.distance_to(node) == pytest.approx(distance)


class TestEcmpNextHops:
    def test_diamond_has_two_next_hops(self):
        spf = compute_spf(diamond_graph(), "S")
        assert spf.next_hops_to("T") == frozenset({"L", "R"})

    def test_direct_neighbor_next_hop_is_itself(self):
        spf = compute_spf(diamond_graph(), "S")
        assert spf.next_hops_to("L") == frozenset({"L"})

    def test_source_has_no_next_hops(self):
        spf = compute_spf(diamond_graph(), "S")
        assert spf.next_hops_to("S") == frozenset()

    def test_demo_single_path_next_hops(self):
        graph = ComputationGraph.from_topology(build_demo_topology())
        spf = compute_spf(graph, "A")
        assert spf.next_hops_to("C") == frozenset({"B"})

    def test_grid_corner_to_corner_uses_both_directions(self):
        graph = ComputationGraph.from_topology(grid(3, 3, with_loopbacks=False))
        spf = compute_spf(graph, "G0_0")
        assert spf.next_hops_to("G2_2") == frozenset({"G0_1", "G1_0"})

    def test_next_hops_of_unreachable_raise(self):
        graph = diamond_graph()
        graph.add_node("island")
        spf = compute_spf(graph, "S")
        with pytest.raises(RoutingError):
            spf.next_hops_to("island")


class TestPathEnumeration:
    def test_diamond_has_two_paths(self):
        spf = compute_spf(diamond_graph(), "S")
        paths = paths_to(spf, "T")
        assert paths == [("S", "L", "T"), ("S", "R", "T")]

    def test_paths_all_have_equal_cost(self):
        graph = ComputationGraph.from_topology(grid(3, 3, with_loopbacks=False))
        spf = compute_spf(graph, "G0_0")
        paths = paths_to(spf, "G2_2")
        assert len(paths) == 6  # binomial(4, 2) lattice paths
        assert all(len(path) == 5 for path in paths)

    def test_paths_over_limit_raise_unless_partial(self):
        graph = ComputationGraph.from_topology(grid(3, 3, with_loopbacks=False))
        spf = compute_spf(graph, "G0_0")
        with pytest.raises(RoutingError, match="equal-cost paths"):
            paths_to(spf, "G2_2", limit=2)

    def test_partial_paths_respect_limit(self):
        graph = ComputationGraph.from_topology(grid(3, 3, with_loopbacks=False))
        spf = compute_spf(graph, "G0_0")
        partial = paths_to(spf, "G2_2", limit=2, partial=True)
        assert len(partial) == 2
        assert set(partial) < set(paths_to(spf, "G2_2"))

    def test_limit_equal_to_path_count_is_not_truncation(self):
        graph = ComputationGraph.from_topology(grid(3, 3, with_loopbacks=False))
        spf = compute_spf(graph, "G0_0")
        assert len(paths_to(spf, "G2_2", limit=6)) == 6

    def test_path_to_unreachable_raises(self):
        graph = diamond_graph()
        graph.add_node("island")
        spf = compute_spf(graph, "S")
        with pytest.raises(RoutingError):
            paths_to(spf, "island")

    def test_contains_operator(self):
        spf = compute_spf(diamond_graph(), "S")
        assert "T" in spf
        assert "nothere" not in spf


class TestLiesAreLeaves:
    """A lie is no SPF node: routes reach its fake node through the anchor."""

    def test_fake_node_is_not_an_spf_node(self):
        graph = ComputationGraph.from_topology(build_demo_topology(), demo_lies())
        plain = ComputationGraph.from_topology(build_demo_topology())
        for router in ("B", "R2"):
            spf = compute_spf(graph, router)
            assert "fB" not in spf
            assert spf == compute_spf(plain, router)

    def test_anchor_routes_to_the_fake_node_itself(self):
        graph = ComputationGraph.from_topology(build_demo_topology(), demo_lies())
        route = compute_rib(graph, "B").route(BLUE_PREFIX)
        # dist(B, B) + fake link 1 + prefix cost 1.
        assert route.cost == 2.0
        assert RouteContribution("fB", "fB", True, True) in route.contributions

    def test_other_routers_reach_fake_node_through_anchor(self):
        graph = ComputationGraph.from_topology(build_demo_topology(), demo_lies())
        route = compute_rib(graph, "A").route(BLUE_PREFIX)
        # A reaches fB via B: cost 1 to B + 1 fake link + 1 prefix cost.
        assert route.cost == 3.0
        assert RouteContribution("fB", "B", True, False) in route.contributions


class TestLongChainPaths:
    """Regression: ``paths_to`` recursed once per hop and blew the stack
    at ~1000 hops; it must now handle arbitrarily long chains."""

    HOPS = 1500

    def chain_graph(self):
        graph = ComputationGraph()
        for i in range(self.HOPS):
            graph.add_edge(f"n{i}", f"n{i + 1}", 1.0)
            graph.add_edge(f"n{i + 1}", f"n{i}", 1.0)
        return graph

    def test_long_chain_single_path(self):
        spf = compute_spf(self.chain_graph(), "n0")
        last = f"n{self.HOPS}"
        assert spf.distance_to(last) == float(self.HOPS)
        paths = paths_to(spf, last)  # would raise RecursionError before
        assert len(paths) == 1
        assert len(paths[0]) == self.HOPS + 1
        assert paths[0][0] == "n0" and paths[0][-1] == last

    def test_long_chain_lp_cycle_removal(self):
        """Same depth hazard one layer up: the min-max LP's cycle removal
        walked the solved flow recursively, so a 1,200-router chain with
        the prefix at the far end solved fine and then blew the stack."""
        from repro.core.optimizer import MinMaxLoadOptimizer
        from repro.dataplane.demand import TrafficMatrix
        from repro.igp.topology import Topology

        routers = 1200
        topology = Topology("chain")
        topology.add_routers([f"n{i:04d}" for i in range(routers)])
        for i in range(routers - 1):
            topology.add_link(f"n{i:04d}", f"n{i + 1:04d}")
        topology.attach_prefix(f"n{routers - 1:04d}", "10.0.0.0/24")
        demands = TrafficMatrix.from_dict({("n0000", "10.0.0.0/24"): 1e6})

        result = MinMaxLoadOptimizer(topology).optimize(demands)  # RecursionError before
        flows = result.flows[demands.prefixes[0]]
        assert list(flows) == [(f"n{i:04d}", f"n{i + 1:04d}") for i in range(routers - 1)]
        assert all(value == pytest.approx(1e6) for value in flows.values())
