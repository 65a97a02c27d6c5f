"""Differential tests for the controller's lazy lie-free view.

:meth:`~repro.core.controller.FibbingController.baseline_fibs` resolves a
``(router, prefix)`` entry only when it is read, on SPF trees the baseline
lineage repairs from whatever version a router was last read at.  After any
sequence of link failures, restorations and weight changes, each answer it
gives must be the one of a from-scratch :func:`compute_static_fibs`: the
same ``has_entry`` and the same :class:`~repro.igp.fib.PrefixFib`, cost bits
included.  Reads are sparse on purpose, so that some routers fall many
versions behind and one falls past the graph's delta log.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.controller import FibbingController
from repro.core.loadbalancer import OnDemandLoadBalancer
from repro.dataplane.demand import TrafficMatrix
from repro.igp import graph as graph_module
from repro.igp.network import compute_static_fibs
from repro.igp.topology import Topology
from repro.topologies.isp import synthetic_isp
from repro.topologies.random import random_topology
from repro.util.errors import RoutingError
from repro.util.prefixes import Prefix

UNANNOUNCED = Prefix.parse("10.250.0.0/24")
#: Float weights whose path sums tie exactly (0.5 + 0.25 == 0.75) or only
#: within the ECMP tolerance (0.1 + 0.2 != 0.3; 0.876 + 4 vs 0.876 + 1 + 3).
WEIGHTS = (1, 2, 3, 4.0, 0.5, 0.25, 0.75, 0.1, 0.2, 0.3, 0.876)
ACTIONS = ("fail", "restore", "weight")


def make_topology(kind, seed):
    if kind == "isp":
        return synthetic_isp(4, 3, prefixes_per_pop=2, seed=seed)
    return random_topology(9, edge_probability=0.3, seed=seed)


class ViewProbe:
    """Mutates one topology and reads the controller's baseline view sparsely."""

    def __init__(self, topology, seed=0):
        self.rng = random.Random(seed)
        self.topology = topology
        self.controller = FibbingController(topology)
        self.failed = []  # saved directed links of failed undirected pairs

    def apply(self, action):
        rng, topology = self.rng, self.topology
        links = topology.undirected_links
        if action == "fail" and len(links) > 2:
            first, second = links[rng.randrange(len(links))]
            saved = [topology.link(first, second), topology.link(second, first)]
            topology.remove_link(first, second)
            self.failed.append(saved)
        elif action == "restore" and self.failed:
            for link in self.failed.pop(rng.randrange(len(self.failed))):
                topology.add_directed_link(
                    link.source, link.target, link.weight, link.capacity, link.delay
                )
        else:
            first, second = links[rng.randrange(len(links))]
            topology.set_weight(first, second, rng.choice(WEIGHTS))

    def read(self, routers, prefixes):
        """Read ``routers`` x ``prefixes`` and hold each answer to the oracle."""
        view = self.controller.baseline_fibs()
        oracle = compute_static_fibs(self.topology)
        for router in routers:
            fib, want = view.get(router), oracle[router]
            for prefix in prefixes:
                context = f"router={router} prefix={prefix}"
                assert fib.has_entry(prefix) == want.has_entry(prefix), context
                if not want.has_entry(prefix):
                    with pytest.raises(RoutingError):
                        fib.lookup(prefix)
                    continue
                mine, full = fib.lookup(prefix), want.lookup(prefix)
                assert mine.cost.hex() == full.cost.hex(), context
                assert mine.entries == full.entries, context
                assert (mine.local, mine.truncated) == (full.local, full.truncated), context
                assert mine == full, context

    def read_random(self):
        rng, topology = self.rng, self.topology
        routers = rng.sample(topology.routers, rng.randint(0, 3))
        prefixes = rng.sample(topology.prefixes, min(2, len(topology.prefixes)))
        self.read(routers, prefixes + [UNANNOUNCED])

    def read_all(self):
        self.read(self.topology.routers, self.topology.prefixes + [UNANNOUNCED])


class TestMatchesStaticFibs:
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        kind=st.sampled_from(["isp", "random"]),
        actions=st.lists(st.sampled_from(ACTIONS), min_size=1, max_size=25),
    )
    @settings(max_examples=60, deadline=None)
    def test_sparse_reads_after_random_events(self, seed, kind, actions):
        probe = ViewProbe(make_topology(kind, seed), seed)
        probe.read_random()
        for action in actions:
            probe.apply(action)
            probe.read_random()
        probe.read_all()

    def test_router_read_past_the_delta_log_is_recomputed_cold(self):
        probe = ViewProbe(make_topology("isp", 3), 3)
        probe.read_all()
        cache = probe.controller.baseline_route_cache
        before, version = cache.counters.full_recomputes, cache.version
        # One observed graph a step, until the log no longer reaches back.
        steps = 0
        while probe.controller.baseline_fibs().graph.deltas_since(version) is not None:
            probe.apply(probe.rng.choice(ACTIONS))
            steps += 1
        assert steps > graph_module._MAX_LOG_STEPS // 2
        probe.read_all()
        assert cache.counters.full_recomputes - before == probe.topology.num_routers

    def test_float_tie_keeps_the_smallest_sum(self):
        # N5 reaches N4 over N6 either directly (0.876 + 4) or through N1
        # (0.876 + 1 + 3): tied within the ECMP tolerance, one ulp apart.
        topology = Topology("float-tie")
        topology.add_routers(["N5", "N6", "N1", "N4"])
        topology.add_link("N5", "N6", weight=0.876)
        topology.add_link("N6", "N4", weight=4.0)
        topology.add_link("N6", "N1", weight=5.0)
        topology.add_link("N1", "N4", weight=3.0)
        topology.attach_prefix("N4", "172.16.4.0/24")
        probe = ViewProbe(topology)
        probe.read_all()
        topology.set_weight("N6", "N1", 1.0)
        probe.read(["N5"], topology.prefixes)
        route = probe.controller.baseline_fibs().get("N5").lookup(topology.prefixes[0])
        assert route.cost == min(0.876 + 4.0, 0.876 + 1.0 + 3.0)
        assert route.next_hops() == ("N6",)


class TestViewContract:
    def test_unknown_router_has_no_fib(self):
        probe = ViewProbe(make_topology("isp", 1))
        assert probe.controller.baseline_fibs().get("ghost") is None

    def test_view_is_memoised_per_revision(self):
        probe = ViewProbe(make_topology("isp", 1))
        view = probe.controller.baseline_fibs()
        assert probe.controller.baseline_fibs() is view
        probe.apply("weight")
        assert probe.controller.baseline_fibs() is not view

    def test_stale_view_refuses_to_resolve(self):
        # A view read after a newer, different graph was observed would
        # chain the lineage backwards; it raises instead.
        probe = ViewProbe(make_topology("isp", 1))
        stale = probe.controller.baseline_fibs()
        links = probe.topology.undirected_links
        probe.topology.set_weight(*links[0], 17)
        probe.controller.baseline_fibs()
        with pytest.raises(RoutingError):
            stale.get(probe.topology.routers[0]).has_entry(probe.topology.prefixes[0])


class StubClients:
    """A directly mutable demand matrix in place of the client registry."""

    def __init__(self, matrix):
        self.matrix = matrix

    def demand_matrix(self):
        return self.matrix


class TestReactionReadsOnlyNamedRouters:
    """One reaction pays one baseline SPF per router its requirements name."""

    def test_spf_lookups_equal_named_routers_and_no_rib_lookups(self):
        topology = synthetic_isp(6, 6, seed=0)
        controller = FibbingController(topology)
        matrix = TrafficMatrix()
        prefixes = topology.prefixes[:3]
        for index, router in enumerate(topology.routers[::3]):
            matrix.add(router, prefixes[index % len(prefixes)], 4e9)
        balancer = OnDemandLoadBalancer(controller, StubClients(matrix))
        built = []
        build = balancer.build_requirements
        balancer.build_requirements = lambda result: built.append(build(result)) or built[-1]

        action = balancer.rebalance_now()

        assert action is not None and action.lies_injected > 0
        named = {router for requirement in built[0] for router in requirement.routers}
        assert 0 < len(named) < topology.num_routers
        stats = controller.stats.snapshot()
        assert controller.baseline_route_cache.counters.spf_lookups == len(named)
        assert stats["spf_full_recomputes"] == len(named)
        rib_lookups = (
            stats["rib_cache_hits"]
            + stats["rib_incremental_updates"]
            + stats["rib_full_recomputes"]
        )
        assert rib_lookups == 0
