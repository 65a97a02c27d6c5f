"""Differential property tests for the incremental RIB/FIB engine.

Mirror of ``tests/test_igp_spf_incremental.py`` one layer up the stack: after
an arbitrary sequence of weight changes, link failures/additions, prefix
attachments/detachments and fake-LSA injections/withdrawals, the per-prefix
dirty repair served by :class:`~repro.igp.rib_cache.RibCache` must be
indistinguishable from a from-scratch :func:`~repro.igp.rib.compute_rib` —
contributions, costs and fake-node flags bit-identical — and the repaired
FIBs must equal a from-scratch :func:`~repro.igp.fib.resolve_rib_to_fib`.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.igp.fib import resolve_rib_to_fib
from repro.igp.graph import ComputationGraph
from repro.igp.lsa import FakeNodeLsa
from repro.igp.rib import compute_rib
from repro.igp.rib_cache import RibCache
from repro.topologies.random import random_topology
from repro.util.errors import TopologyError
from repro.util.prefixes import Prefix

TEST_PREFIX = Prefix.parse("10.99.0.0/24")
MAX_ECMP = 16


def assert_same_rib(incremental, full, context=""):
    """The strict differential oracle: identical prefixes, costs, contributions."""
    assert incremental.router == full.router, context
    assert incremental.prefixes == full.prefixes, context
    for prefix in full.prefixes:
        mine = incremental.route(prefix)
        want = full.route(prefix)
        assert mine.cost == want.cost, f"{context} prefix={prefix}"
        assert mine.contributions == want.contributions, f"{context} prefix={prefix}"


def assert_same_fib(incremental, full, context=""):
    assert incremental.prefixes == full.prefixes, context
    for prefix in full.prefixes:
        assert incremental.lookup(prefix) == full.lookup(prefix), (
            f"{context} prefix={prefix}"
        )


class MutationDriver:
    """Applies random topology/prefix/lie mutations and cross-checks every router."""

    def __init__(self, seed, num_routers=10, edge_probability=0.3):
        self.rng = random.Random(seed)
        self.topology = random_topology(
            num_routers, edge_probability=edge_probability, seed=seed
        )
        self.lies = {}
        self.cache = RibCache()
        self.lie_counter = 0
        self.prefix_counter = 0
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
            # A real controller withdraws lies whose forwarding address rode
            # on the failed link; keep the lie set resolvable like it would.
            self.lies = {
                name: lie
                for name, lie in self.lies.items()
                if {lie.anchor, lie.forwarding_address} != {source, target}
            }
        elif action == "add_link":
            source, target = rng.sample(topology.routers, 2)
            if topology.has_link(source, target):
                return False
            topology.add_link(source, target, weight=rng.randint(1, 5))
        elif action == "attach":
            router = rng.choice(topology.routers)
            if rng.random() < 0.5:
                # Fresh prefix behind a random router.
                self.prefix_counter += 1
                prefix = Prefix.parse(f"10.200.{self.prefix_counter % 256}.0/24")
            else:
                # Second announcer for an existing prefix (anycast-style).
                prefix = rng.choice(topology.prefixes)
            try:
                topology.attach_prefix(router, prefix, cost=rng.choice([0, 1, 2]))
            except TopologyError:
                return False  # already attached there
        elif action == "detach":
            prefixes = topology.prefixes
            if not prefixes:
                return False
            prefix = rng.choice(prefixes)
            attachment = rng.choice(topology.prefix_attachments(prefix))
            topology.detach_prefix(attachment.router, prefix)
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
                prefix=rng.choice([TEST_PREFIX] + topology.prefixes),
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

    def check_all_routers(self, context=""):
        graph = ComputationGraph.from_topology(self.topology, self.lies.values())
        graph = self.cache.observe(graph)
        for router in self.topology.routers:
            rib, fib = self.cache.resolve(graph, router, max_ecmp=MAX_ECMP)
            full_rib = compute_rib(graph, router)
            assert_same_rib(rib, full_rib, f"{context} router={router}")
            full_fib = resolve_rib_to_fib(graph, full_rib, max_ecmp=MAX_ECMP)
            assert_same_fib(fib, full_fib, f"{context} router={router}")


ACTIONS = (
    "weight",
    "fail",
    "add_link",
    "attach",
    "detach",
    "inject",
    "withdraw",
)


class TestDifferentialRandomized:
    """Seeded randomized sequences; jointly >= 250 mutation steps."""

    @pytest.mark.parametrize("seed", range(10))
    def test_random_mutation_sequence(self, seed):
        driver = MutationDriver(seed)
        driver.check_all_routers(context=f"seed={seed} initial")
        steps = 0
        while steps < 25:
            action = driver.rng.choice(ACTIONS)
            if not driver.apply(action):
                continue
            steps += 1
            driver.check_all_routers(context=f"seed={seed} step={steps} action={action}")
        assert driver.steps_applied >= 25

    def test_cache_counters_reconcile_with_lookups(self):
        driver = MutationDriver(seed=42)
        steps = 0
        while steps < 10:
            if driver.apply(driver.rng.choice(ACTIONS)):
                steps += 1
                driver.check_all_routers()
        counters = driver.cache.counters
        assert counters.rib_lookups == (
            counters.hits
            + counters.incremental_updates
            + counters.full_recomputes
        )
        # 10 mutation rounds x every router went through the cache.
        assert counters.rib_lookups >= 10 * len(driver.topology.routers)
        assert counters.incremental_updates > 0
        # Dirty tracking must actually pay off: across a long churn most
        # routes are carried over, not re-resolved.
        assert counters.prefixes_reused > counters.prefixes_repaired


class TestDifferentialHypothesis:
    """Hypothesis-driven action sequences on a smaller topology."""

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        actions=st.lists(st.sampled_from(ACTIONS), min_size=1, max_size=8),
    )
    def test_any_action_sequence_matches_full_rib(self, seed, actions):
        driver = MutationDriver(seed, num_routers=7, edge_probability=0.35)
        for index, action in enumerate(actions):
            if driver.apply(action):
                driver.check_all_routers(
                    context=f"seed={seed} step={index} action={action}"
                )


class TestCacheStaleness:
    """Version gaps, all-dirty changes and no-op deltas all behave."""

    def build(self, seed=3):
        driver = MutationDriver(seed)
        driver.check_all_routers()  # warm every router at the initial version
        return driver

    def test_repair_across_a_multi_step_version_gap(self):
        """Several uncheckpointed mutations are repaired in one incremental step."""
        driver = self.build()
        incremental_before = driver.cache.counters.incremental_updates
        full_before = driver.cache.counters.full_recomputes
        applied = 0
        while applied < 3:
            if driver.apply(driver.rng.choice(("weight", "inject", "attach"))):
                applied += 1
        driver.check_all_routers(context="after 3-step gap")
        counters = driver.cache.counters
        assert counters.incremental_updates > incremental_before
        assert counters.full_recomputes == full_before

    def test_truncated_delta_log_forces_full_recompute(self):
        """A version gap beyond the delta log's reach is a counted full miss."""
        driver = self.build()
        full_before = driver.cache.counters.full_recomputes
        graph = ComputationGraph.from_topology(driver.topology, driver.lies.values())
        graph = driver.cache.observe(graph)
        source, target = driver.topology.undirected_links[0]
        # Overflow the per-graph delta log (bounded steps) on the live graph.
        for step in range(2000):
            graph.add_edge(source, target, 2 + (step % 7))
        assert graph.changes_since(0) is None
        driver.check_all_routers(context="after log truncation")
        counters = driver.cache.counters
        assert counters.full_recomputes >= full_before + len(driver.topology.routers)

    def test_change_dirtying_every_prefix_is_repaired(self):
        """A change dirtying every announced prefix is still a repair.

        Re-attaching every prefix at a new cost moves every announcer map,
        so each router re-resolves 100 % of its prefixes through
        ``update_rib`` — and must land on ``compute_rib`` and
        ``resolve_rib_to_fib`` exactly.
        """
        driver = self.build(seed=5)
        topology = driver.topology
        prefixes = topology.prefixes
        routers = topology.routers
        assert prefixes and not driver.lies
        counters = driver.cache.counters
        incremental_before = counters.incremental_updates
        full_before = counters.full_recomputes
        repaired_before = counters.prefixes_repaired
        for prefix in prefixes:
            for attachment in topology.prefix_attachments(prefix):
                topology.detach_prefix(attachment.router, prefix)
                topology.attach_prefix(attachment.router, prefix, attachment.cost + 1)
        driver.check_all_routers(context="every prefix dirty")
        assert counters.incremental_updates == incremental_before + len(routers)
        assert counters.full_recomputes == full_before
        assert counters.prefixes_repaired == repaired_before + len(routers) * len(prefixes)

    def test_noop_delta_is_a_pure_hit(self):
        """Rebuilding an identical graph keeps the version: pure cache hits."""
        driver = self.build()
        hits_before = driver.cache.counters.hits
        incremental_before = driver.cache.counters.incremental_updates
        full_before = driver.cache.counters.full_recomputes
        driver.check_all_routers(context="no-op rebuild")
        counters = driver.cache.counters
        assert counters.hits >= hits_before + len(driver.topology.routers)
        assert counters.incremental_updates == incremental_before
        assert counters.full_recomputes == full_before

    def test_lost_forwarding_adjacency_matches_full_resolution(self):
        """An edge removal can strip a lie's forwarding-address adjacency
        while the route itself stays byte-identical (the fake node's own
        distance is untouched).  The repaired FIB must reproduce what a
        from-scratch resolution does — here: raise, not serve a stale entry
        forwarding onto the dead link."""
        from repro.util.errors import RoutingError

        graph = ComputationGraph()
        for source, target in [("A", "B"), ("A", "C"), ("B", "C")]:
            graph.add_edge(source, target, 1.0)
            graph.add_edge(target, source, 1.0)
        graph.add_fake_node(
            name="F",
            anchor="A",
            link_cost=0.5,
            prefix=TEST_PREFIX,
            prefix_cost=0.0,
            forwarding_address="B",
        )
        cache = RibCache()
        cache.observe(graph)
        _, fib = cache.resolve(graph, "A", max_ecmp=MAX_ECMP)
        assert fib.lookup(TEST_PREFIX).entries[0].via_fake == ("F",)

        graph.remove_edge("A", "B")
        graph.remove_edge("B", "A")
        with pytest.raises(RoutingError):
            resolve_rib_to_fib(graph, compute_rib(graph, "A"), max_ecmp=MAX_ECMP)
        with pytest.raises(RoutingError):
            cache.resolve(graph, "A", max_ecmp=MAX_ECMP)

    def test_invalidate_drops_entries_but_keeps_counters(self):
        driver = self.build()
        lookups_before = driver.cache.counters.rib_lookups
        full_before = driver.cache.counters.full_recomputes
        driver.cache.invalidate()
        driver.check_all_routers(context="after invalidate")
        counters = driver.cache.counters
        assert counters.rib_lookups > lookups_before
        assert counters.full_recomputes >= full_before + len(driver.topology.routers)


class TestFloatTieRegression:
    """Announcers tied within the SPF tolerance must all contribute.

    ``compute_rib`` used to compare ``total > best_cost +
    cost_tolerance(best_cost)`` with ``best_cost`` collected by exact
    ``min()`` — an asymmetric form that under-estimates the tolerance of the
    larger total compared to SPF's own ``costs_equal`` (which scales with the
    larger magnitude).  The tie-break now uses ``costs_equal`` itself; these
    tests pin the behaviour at the magnitudes where it matters.
    """

    def test_sub_tolerance_announcers_both_contribute_at_large_magnitude(self):
        graph = ComputationGraph()
        # Totals 3e12 and 3e12 + 2000: the relative tolerance up there is
        # 3000, so the two announcers are an ECMP tie despite the huge
        # absolute difference.
        graph.add_edge("S", "A", 1e12)
        graph.add_edge("A", "T", 2e12)
        graph.add_edge("S", "B", 2e12)
        graph.add_edge("B", "U", 1e12 + 2000.0)
        graph.announce("T", TEST_PREFIX, 0.0)
        graph.announce("U", TEST_PREFIX, 0.0)
        rib = compute_rib(graph, "S")
        route = rib.route(TEST_PREFIX)
        assert {c.announcer for c in route.contributions} == {"T", "U"}
        assert route.cost == 3e12

    def test_sub_tolerance_announcers_both_contribute_with_float_noise(self):
        graph = ComputationGraph()
        # 0.1 + 0.2 != 0.3 in binary floating point; the two announcer
        # totals differ by ~5.5e-17, far below the 1e-9 floor tolerance.
        graph.add_edge("S", "A", 0.1)
        graph.add_edge("A", "T", 0.2)
        graph.add_edge("S", "U", 0.3)
        graph.announce("T", TEST_PREFIX, 0.0)
        graph.announce("U", TEST_PREFIX, 0.0)
        rib = compute_rib(graph, "S")
        route = rib.route(TEST_PREFIX)
        assert {c.announcer for c in route.contributions} == {"T", "U"}

    def test_beyond_tolerance_announcer_is_dropped(self):
        graph = ComputationGraph()
        graph.add_edge("S", "T", 1.0)
        graph.add_edge("S", "U", 1.0 + 1e-6)
        graph.announce("T", TEST_PREFIX, 0.0)
        graph.announce("U", TEST_PREFIX, 0.0)
        rib = compute_rib(graph, "S")
        route = rib.route(TEST_PREFIX)
        assert {c.announcer for c in route.contributions} == {"T"}

    def test_incremental_repair_preserves_the_tie(self):
        graph = ComputationGraph()
        graph.add_edge("S", "A", 1e12)
        graph.add_edge("A", "T", 2e12)
        graph.add_edge("S", "B", 9e12)
        graph.add_edge("B", "U", 1e12)
        graph.announce("T", TEST_PREFIX, 0.0)
        graph.announce("U", TEST_PREFIX, 0.0)
        cache = RibCache()
        cache.observe(graph)
        first = cache.rib(graph, "S")
        assert {c.announcer for c in first.route(TEST_PREFIX).contributions} == {"T"}
        # Cheapen the B branch so U ties with T within the relative tolerance.
        graph.add_edge("S", "B", 2e12)
        graph.add_edge("B", "U", 1e12 + 2000.0)
        repaired = cache.rib(graph, "S")
        assert_same_rib(repaired, compute_rib(graph, "S"), "tie repair")
        assert {c.announcer for c in repaired.route(TEST_PREFIX).contributions} == {
            "T",
            "U",
        }


class TestFloatTieDistanceRegression:
    """Two equal-cost paths whose float sums differ in the last ulp.

    ``compute_spf`` kept the distance of whichever path relaxed a node
    first, while ``update_spf`` kept the distance it already had
    (``dist >= current - tolerance``), so a repair could settle on the other
    sum: N5's route to 172.16.4.0/24 cost ``4.8759999999999994`` repaired
    but ``4.876`` from scratch (N5–N6 0.876 + N6–N4 4, versus N5–N6 + N6–N1
    1 + N1–N4 3).  Both paths now keep the smallest sum among tied paths.
    """

    def test_hypothesis_counter_example_seed_15523(self):
        driver = MutationDriver(15523, num_routers=7, edge_probability=0.35)
        # Replayed exactly as the Hypothesis test does: the add_link draw
        # hits an existing link and is skipped, but still consumes the rng.
        for index, action in enumerate(["weight", "fail", "add_link", "weight", "weight"]):
            if driver.apply(action):
                driver.check_all_routers(context=f"step={index} action={action}")
        assert driver.steps_applied == 4

    def test_tied_paths_keep_the_smallest_sum_in_both_spf_paths(self):
        from repro.igp.spf import compute_spf, update_spf

        graph = ComputationGraph()
        graph.add_edge("S", "A", 0.876)
        graph.add_edge("A", "T", 4.0)
        graph.add_edge("A", "B", 1.0)
        before = compute_spf(graph, "S")
        version = graph.version
        graph.add_edge("B", "T", 3.0)
        full = compute_spf(graph, "S")
        repaired = update_spf(before, graph, graph.changes_since(version).edges)
        smallest = min(0.876 + 4.0, 0.876 + 1.0 + 3.0)
        assert full.distance["T"] == repaired.distance["T"] == smallest
        assert full.predecessors["T"] == repaired.predecessors["T"] == {"A", "B"}
