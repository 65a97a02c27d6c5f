"""Differential property tests for the incremental SPF engine.

Every test here enforces the same invariant from a different angle: after an
arbitrary sequence of weight changes, link failures/additions and fake-LSA
injections/withdrawals, the incrementally repaired SPF result (distances,
ECMP next-hop sets and the predecessor DAG) must be indistinguishable from a
from-scratch :func:`~repro.igp.spf.compute_spf` on the same graph.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.igp.graph import ComputationGraph, EdgeDelta
from repro.igp.lsa import FakeNodeLsa
from repro.igp.spf import compute_spf, costs_equal, update_spf
from repro.igp.spf_cache import SpfCache, SpfCounters
from repro.topologies.random import random_topology
from repro.util.prefixes import Prefix

TEST_PREFIX = Prefix.parse("10.99.0.0/24")


def assert_same_spf(incremental, full, context=""):
    """The strict differential oracle: identical reachability, ECMP and DAG."""
    assert set(incremental.distance) == set(full.distance), context
    for node, dist in full.distance.items():
        assert math.isclose(
            incremental.distance[node], dist, rel_tol=1e-9, abs_tol=1e-9
        ), f"{context}: distance to {node}: {incremental.distance[node]} != {dist}"
    assert incremental.next_hops == full.next_hops, context
    assert incremental.predecessors == full.predecessors, context


class MutationDriver:
    """Applies random topology/lie mutations and cross-checks every source."""

    def __init__(self, seed, num_routers=10, edge_probability=0.3):
        self.rng = random.Random(seed)
        self.topology = random_topology(
            num_routers, edge_probability=edge_probability, seed=seed
        )
        self.lies = {}
        self.cache = SpfCache()
        self.lie_counter = 0
        self.steps_applied = 0

    def apply(self, action):
        rng = self.rng
        topology = self.topology
        if action == "weight":
            links = topology.undirected_links
            source, target = links[rng.randrange(len(links))]
            weight = rng.choice([1, 2, 3, 5, round(rng.random() * 4 + 0.5, 3)])
            topology.set_weight(source, target, weight)
        elif action == "fail":
            links = topology.undirected_links
            if len(links) <= 2:
                return False
            source, target = links[rng.randrange(len(links))]
            topology.remove_link(source, target)
        elif action == "add_link":
            source, target = rng.sample(topology.routers, 2)
            if topology.has_link(source, target):
                return False
            topology.add_link(source, target, weight=rng.randint(1, 5))
        elif action == "inject":
            anchor = rng.choice(topology.routers)
            neighbors = topology.neighbors(anchor)
            if not neighbors:
                return False
            self.lie_counter += 1
            name = f"fake-{self.lie_counter}"
            self.lies[name] = FakeNodeLsa(
                origin="controller",
                fake_node=name,
                anchor=anchor,
                link_cost=round(rng.random() * 2 + 0.1, 4),
                prefix=TEST_PREFIX,
                prefix_cost=round(rng.random(), 4),
                forwarding_address=rng.choice(neighbors),
            )
        elif action == "withdraw":
            if not self.lies:
                return False
            self.lies.pop(rng.choice(sorted(self.lies)))
        else:  # pragma: no cover - defensive
            raise ValueError(action)
        self.steps_applied += 1
        return True

    def check_all_sources(self, context=""):
        graph = ComputationGraph.from_topology(self.topology, self.lies.values())
        graph = self.cache.observe(graph)
        for source in self.topology.routers:
            incremental = self.cache.spf(graph, source)
            full = compute_spf(graph, source)
            assert_same_spf(incremental, full, f"{context} source={source}")


ACTIONS = ("weight", "fail", "add_link", "inject", "withdraw")


class TestDifferentialRandomized:
    """Seeded randomized sequences; jointly >= 200 mutation steps."""

    @pytest.mark.parametrize("seed", range(10))
    def test_random_mutation_sequence(self, seed):
        driver = MutationDriver(seed)
        driver.check_all_sources(context=f"seed={seed} initial")
        steps = 0
        while steps < 25:
            action = driver.rng.choice(ACTIONS)
            if not driver.apply(action):
                continue
            steps += 1
            driver.check_all_sources(context=f"seed={seed} step={steps} action={action}")
        assert driver.steps_applied >= 25

    def test_cache_counters_reconcile_with_lookups(self):
        driver = MutationDriver(seed=42)
        steps = 0
        while steps < 10:
            if driver.apply(driver.rng.choice(ACTIONS)):
                steps += 1
                driver.check_all_sources()
        counters = driver.cache.counters
        assert counters.spf_lookups == (
            counters.hits
            + counters.incremental_updates
            + counters.full_recomputes
        )
        # 11 rounds x 10 sources were served through the cache.
        assert counters.spf_lookups >= 10 * len(driver.topology.routers)
        assert counters.incremental_updates > 0


class TestDifferentialHypothesis:
    """Hypothesis-driven action sequences on a smaller topology."""

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        actions=st.lists(st.sampled_from(ACTIONS), min_size=1, max_size=8),
    )
    def test_any_action_sequence_matches_full_spf(self, seed, actions):
        driver = MutationDriver(seed, num_routers=7, edge_probability=0.35)
        for index, action in enumerate(actions):
            if driver.apply(action):
                driver.check_all_sources(
                    context=f"seed={seed} step={index} action={action}"
                )


class TestUpdateSpfDirect:
    """Unit tests of update_spf on a live, mutated graph (no rebuild)."""

    def build_graph(self):
        graph = ComputationGraph()
        for source, target, cost in [
            ("S", "A", 1),
            ("A", "S", 1),
            ("S", "B", 1),
            ("B", "S", 1),
            ("A", "T", 1),
            ("T", "A", 1),
            ("B", "T", 1),
            ("T", "B", 1),
            ("T", "X", 2),
            ("X", "T", 2),
        ]:
            graph.add_edge(source, target, cost)
        return graph

    def test_weight_increase_on_tree_edge(self):
        graph = self.build_graph()
        prev = compute_spf(graph, "S")
        version = graph.version
        graph.add_edge("A", "T", 5)
        graph.add_edge("T", "A", 5)
        deltas = graph.deltas_since(version)
        repaired = update_spf(prev, graph, deltas)
        assert_same_spf(repaired, compute_spf(graph, "S"))
        # The ECMP set toward T collapsed onto B.
        assert repaired.next_hops["T"] == frozenset({"B"})

    def test_edge_removal_disconnects_subtree(self):
        graph = self.build_graph()
        graph.add_edge("X", "Y", 1)
        graph.add_edge("Y", "X", 1)
        prev = compute_spf(graph, "S")
        version = graph.version
        graph.remove_edge("T", "X")
        graph.remove_edge("X", "T")
        repaired = update_spf(prev, graph, graph.deltas_since(version))
        assert_same_spf(repaired, compute_spf(graph, "S"))
        assert not repaired.reachable("X")
        assert not repaired.reachable("Y")

    def test_decrease_creates_new_equal_cost_path(self):
        graph = self.build_graph()
        graph.add_edge("S", "T", 9)
        prev = compute_spf(graph, "S")
        version = graph.version
        graph.add_edge("S", "T", 2)  # ties with the two 2-hop paths
        repaired = update_spf(prev, graph, graph.deltas_since(version))
        assert_same_spf(repaired, compute_spf(graph, "S"))
        assert repaired.next_hops["T"] == frozenset({"A", "B", "T"})

    def test_fake_node_insert_and_remove(self):
        graph = self.build_graph()
        prev = compute_spf(graph, "S")
        version = graph.version
        graph.add_fake_node(
            name="fake-1",
            anchor="T",
            link_cost=0.5,
            prefix=TEST_PREFIX,
            prefix_cost=0.5,
            forwarding_address="X",
        )
        # A lie is a leaf: it logs no edge delta and moves no distance.
        assert graph.version > version and graph.deltas_since(version) == ()
        assert_same_spf(prev, compute_spf(graph, "S"))
        assert not prev.reachable("fake-1")

        version = graph.version
        graph.remove_fake_node("fake-1")
        assert graph.version > version and graph.deltas_since(version) == ()
        assert_same_spf(prev, compute_spf(graph, "S"))

    def test_empty_deltas_return_prev_object(self):
        graph = self.build_graph()
        prev = compute_spf(graph, "S")
        assert update_spf(prev, graph, ()) is prev

    def test_oversized_delta_is_repaired(self):
        graph = self.build_graph()
        prev = compute_spf(graph, "S")
        version = graph.version
        # Rewrite every edge: every node but the source is invalidated.
        for source in list(graph.nodes):
            for target, cost in list(graph.successors(source).items()):
                graph.add_edge(source, target, cost + 10)
        counters = SpfCounters()
        repaired = update_spf(prev, graph, graph.deltas_since(version), counters)
        assert_same_spf(repaired, compute_spf(graph, "S"))
        assert counters.incremental_updates == 1

    def test_failing_the_sources_only_uplink_invalidates_everything(self):
        # A tree hanging off S through its single uplink S-A: failing the
        # uplink invalidates every node but S, the largest delta a repair
        # can face; restoring it then grows the result back from S alone.
        graph = ComputationGraph()
        for parent, child, cost in [
            ("S", "A", 1), ("A", "B", 2), ("A", "C", 1),
            ("B", "D", 1), ("B", "E", 3), ("C", "F", 2),
        ]:
            graph.add_edge(parent, child, cost)
            graph.add_edge(child, parent, cost)
        prev = compute_spf(graph, "S")
        assert set(prev.distance) == set(graph.nodes)
        counters = SpfCounters()

        version = graph.version
        graph.remove_edge("S", "A")
        graph.remove_edge("A", "S")
        cut = update_spf(prev, graph, graph.deltas_since(version), counters)
        assert_same_spf(cut, compute_spf(graph, "S"))
        assert set(cut.distance) == {"S"}

        version = graph.version
        graph.add_edge("S", "A", 4)
        graph.add_edge("A", "S", 4)
        restored = update_spf(cut, graph, graph.deltas_since(version), counters)
        assert_same_spf(restored, compute_spf(graph, "S"))
        assert restored.next_hops["F"] == frozenset({"A"})
        assert counters.incremental_updates == 2


class TestDeltaLog:
    """The dirty-edge delta log and version counter on ComputationGraph."""

    def test_mutations_bump_version(self):
        graph = ComputationGraph()
        version = graph.version
        graph.add_edge("A", "B", 1)
        assert graph.version > version
        version = graph.version
        graph.add_edge("A", "B", 1)  # idempotent: same cost
        assert graph.version == version
        graph.add_edge("A", "B", 2)
        assert graph.version > version

    def test_deltas_since_replays_changes(self):
        graph = ComputationGraph()
        graph.add_edge("A", "B", 1)
        version = graph.version
        graph.add_edge("A", "B", 3)
        graph.add_edge("B", "C", 2)
        graph.remove_edge("A", "B")
        deltas = graph.deltas_since(version)
        assert deltas == (
            EdgeDelta("A", "B", 1.0, 3.0),
            EdgeDelta("B", "C", None, 2.0),
            EdgeDelta("A", "B", 3.0, None),
        )
        assert graph.deltas_since(graph.version) == ()

    def test_deltas_since_unknown_version_is_none(self):
        graph = ComputationGraph()
        graph.add_edge("A", "B", 1)
        assert graph.deltas_since(graph.version + 5) is None

    def test_builders_start_with_clean_history(self):
        topology = random_topology(5, seed=0)
        graph = ComputationGraph.from_topology(topology)
        assert graph.version == 0
        assert graph.deltas_since(0) == ()

    def test_continue_from_identical_state_keeps_version(self):
        topology = random_topology(5, seed=0)
        first = ComputationGraph.from_topology(topology)
        first.add_edge("N0", "N1", 7)
        second = ComputationGraph.from_topology(topology)
        second.add_edge("N0", "N1", 7)
        second.continue_from(first)
        assert second.version == first.version
        assert second.deltas_since(first.version) == ()

    def test_continue_from_changed_state_appends_one_step(self):
        topology = random_topology(5, seed=0)
        first = ComputationGraph.from_topology(topology)
        topology.set_weight(*topology.undirected_links[0], 9)
        second = ComputationGraph.from_topology(topology)
        second.continue_from(first)
        assert second.version == first.version + 1
        deltas = second.deltas_since(first.version)
        assert deltas is not None and len(deltas) == 2  # both directions

    def test_log_truncation_forces_full_recompute(self):
        graph = ComputationGraph()
        graph.add_edge("A", "B", 1)
        stale_version = graph.version
        for step in range(2000):
            graph.add_edge("A", "B", 2 + (step % 7))
        assert graph.deltas_since(stale_version) is None


class TestEpsilonConsistency:
    """The ECMP tolerance is relative, so optimizer-emitted fractional and
    large-magnitude costs still tie exactly like small integer costs do."""

    def test_costs_equal_is_relative(self):
        assert costs_equal(0.1 + 0.2, 0.3)
        # 1e12-scale equal paths accumulate rounding far above the absolute
        # 1e-9 that the old comparison used.
        assert costs_equal(1e12 + 0.0001, 1e12)
        assert not costs_equal(1.0, 1.0 + 1e-6)

    def test_fractional_costs_still_form_ecmp(self):
        graph = ComputationGraph()
        # Two two-hop paths whose float sums differ only by rounding noise.
        graph.add_edge("S", "A", 0.1)
        graph.add_edge("A", "T", 0.2)
        graph.add_edge("S", "B", 0.3 - (0.1 + 0.2 - 0.3))
        graph.add_edge("B", "T", 1e-17)
        spf = compute_spf(graph, "S")
        assert spf.next_hops["T"] == frozenset({"A", "B"})

    def test_large_magnitude_costs_form_ecmp(self):
        graph = ComputationGraph()
        # Equal-cost paths at 3e12: the float spacing up there is ~0.00049,
        # so an absolute 1e-9 tolerance would (wrongly) break the tie.
        graph.add_edge("S", "A", 1e12)
        graph.add_edge("A", "T", 2e12)
        graph.add_edge("S", "B", 2e12)
        graph.add_edge("B", "T", 1e12 + 0.001)
        spf = compute_spf(graph, "S")
        assert spf.next_hops["T"] == frozenset({"A", "B"})

    def test_rib_keeps_equal_cost_announcers_at_large_magnitude(self):
        # The RIB tie-break must use the same relative tolerance as SPF:
        # two announcers of the same prefix at ~3e12 total cost (float
        # spacing ~5e-4) must both contribute to the route.
        from repro.igp.rib import compute_rib

        graph = ComputationGraph()
        graph.add_edge("S", "A", 1e12)
        graph.add_edge("A", "T", 2e12)
        graph.add_edge("S", "B", 2e12)
        graph.add_edge("B", "U", 1e12 + 0.001)
        graph.announce("T", TEST_PREFIX, 0.0)
        graph.announce("U", TEST_PREFIX, 0.0)
        rib = compute_rib(graph, "S")
        route = rib.route(TEST_PREFIX)
        assert {c.announcer for c in route.contributions} == {"T", "U"}

    def test_incremental_repair_with_fractional_costs(self):
        graph = ComputationGraph()
        graph.add_edge("S", "A", 0.1)
        graph.add_edge("A", "T", 0.2)
        graph.add_edge("S", "T", 0.9)
        prev = compute_spf(graph, "S")
        version = graph.version
        graph.add_edge("S", "T", 0.1 + 0.2)
        repaired = update_spf(prev, graph, graph.deltas_since(version))
        assert_same_spf(repaired, compute_spf(graph, "S"))
        assert repaired.next_hops["T"] == frozenset({"A", "T"})
