"""Tests for the event-driven IGP network (flooding, router processes, convergence)."""

import pytest

from repro.igp.network import IgpNetwork, compute_static_fibs
from repro.igp.router import RouterTimers
from repro.igp.rib_cache import RibCache
from repro.igp.topology import Topology
from repro.topologies.demo import BLUE_PREFIX, build_demo_topology, demo_lies
from repro.util.errors import TopologyError
from repro.util.timeline import Timeline


@pytest.fixture
def converged_network():
    network = IgpNetwork(build_demo_topology())
    network.start()
    network.converge()
    return network


class TestStartupConvergence:
    def test_every_router_installs_a_fib(self, converged_network):
        for router in converged_network.topology.routers:
            assert converged_network.fib_of(router) is not None
        assert converged_network.converged()

    def test_fib_before_convergence_raises(self):
        network = IgpNetwork(build_demo_topology())
        with pytest.raises(TopologyError):
            network.fib_of("A")

    def test_converged_fibs_match_static_computation(self, converged_network):
        static = compute_static_fibs(converged_network.topology)
        for router in converged_network.topology.routers:
            live = converged_network.fib_of(router)
            expected = static[router]
            for prefix in expected.prefixes:
                assert live.split_ratios(prefix) == expected.split_ratios(prefix)

    def test_convergence_takes_positive_simulated_time(self):
        network = IgpNetwork(build_demo_topology())
        network.start()
        duration = network.converge()
        assert duration > 0

    def test_start_is_idempotent(self, converged_network):
        stats_before = converged_network.flooding_stats
        converged_network.start()
        converged_network.converge()
        assert converged_network.flooding_stats == stats_before

    def test_flooding_stats_counters(self, converged_network):
        stats = converged_network.flooding_stats
        assert stats["messages_sent"] > 0
        assert stats["bytes_sent"] > 0
        assert stats["deliveries"] > 0
        assert stats["duplicates_suppressed"] > 0

    def test_spf_batching_limits_runs(self, converged_network):
        # Each router must have run SPF far fewer times than the number of
        # LSAs it received (the spf_delay hold-down batches them).
        for process in converged_network.routers.values():
            assert process.spf_runs < len(process.lsdb)


class TestLieInjection:
    def test_injected_lies_reach_every_router(self, converged_network):
        converged_network.inject(demo_lies(), at_router="R3")
        converged_network.converge()
        fib_a = converged_network.fib_of("A")
        fib_b = converged_network.fib_of("B")
        assert fib_a.split_ratios(BLUE_PREFIX) == {
            "B": pytest.approx(1 / 3),
            "R1": pytest.approx(2 / 3),
        }
        assert fib_b.split_ratios(BLUE_PREFIX) == {"R2": 0.5, "R3": 0.5}

    def test_withdrawing_lies_restores_baseline(self, converged_network):
        lies = demo_lies()
        converged_network.inject(lies, at_router="R3")
        converged_network.converge()
        converged_network.inject([lie.withdraw() for lie in lies], at_router="R3")
        converged_network.converge()
        assert converged_network.fib_of("A").split_ratios(BLUE_PREFIX) == {"B": 1.0}
        assert converged_network.fib_of("B").split_ratios(BLUE_PREFIX) == {"R2": 1.0}

    def test_injection_at_unknown_router_rejected(self, converged_network):
        with pytest.raises(TopologyError):
            converged_network.inject(demo_lies(), at_router="ghost")

    def test_fib_change_listener_fires(self, converged_network):
        changed = []
        converged_network.on_fib_change(lambda router, fib: changed.append(router))
        converged_network.inject(demo_lies(), at_router="R3")
        converged_network.converge()
        assert "A" in changed and "B" in changed


class TestLieWaveConvergence:
    def test_every_router_installs_a_fib_after_a_lie_wave(self, converged_network):
        installs = []
        converged_network.on_fib_change(
            lambda router, fib: installs.append((converged_network.timeline.now, router))
        )
        started_at = converged_network.timeline.now
        converged_network.inject(demo_lies(), at_router="R3")
        duration = converged_network.converge()
        assert {router for _, router in installs} == set(converged_network.topology.routers)
        assert 0 < max(time for time, _ in installs) - started_at <= duration


class TestSpfCacheInvalidation:
    """The versioned SPF caches must bump on every event and never go stale."""

    def graph_versions(self, network):
        return {name: process.graph_version for name, process in network.routers.items()}

    def test_graph_version_bumps_on_inject(self, converged_network):
        before = self.graph_versions(converged_network)
        converged_network.inject(demo_lies(), at_router="R3")
        converged_network.converge()
        after = self.graph_versions(converged_network)
        for router, version in after.items():
            assert version > before[router], router

    def test_graph_version_bumps_on_fail_link(self, converged_network):
        before = self.graph_versions(converged_network)
        converged_network.fail_link("R1", "R4")
        converged_network.converge()
        after = self.graph_versions(converged_network)
        for router, version in after.items():
            assert version > before[router], router

    def test_graph_version_bumps_on_change_weight(self, converged_network):
        before = self.graph_versions(converged_network)
        converged_network.change_weight("A", "B", 7)
        converged_network.converge()
        after = self.graph_versions(converged_network)
        for router, version in after.items():
            assert version > before[router], router

    def test_no_stale_fibs_after_event_sequence(self, converged_network):
        """Cached SPF state must never leak into the FIBs after any event."""
        converged_network.inject(demo_lies(), at_router="R3")
        converged_network.converge()
        converged_network.change_weight("A", "R1", 5)
        converged_network.converge()
        converged_network.fail_link("B", "R2")
        converged_network.converge()
        oracle = compute_static_fibs(converged_network.topology, demo_lies())
        for router in converged_network.topology.routers:
            live = converged_network.fib_of(router)
            expected = oracle[router]
            assert set(live.prefixes) == set(expected.prefixes), router
            for prefix in expected.prefixes:
                assert live.split_ratios(prefix) == expected.split_ratios(prefix), (
                    router,
                    prefix,
                )

    def test_lie_injection_is_repaired_incrementally(self, converged_network):
        before = converged_network.spf_stats
        converged_network.inject(demo_lies(), at_router="R3")
        converged_network.converge()
        stats = converged_network.spf_stats
        # Lies are leaves: no router reran or repaired SPF, and every router
        # re-resolved the lies' prefix from the tree it already had.
        assert stats["spf_full_recomputes"] == before["spf_full_recomputes"]
        assert stats["spf_incremental_updates"] == before["spf_incremental_updates"]
        assert stats["rib_incremental_updates"] >= (
            before["rib_incremental_updates"] + len(converged_network.routers)
        )

    def test_spf_counters_reconcile_with_runs_and_flooding(self, converged_network):
        converged_network.inject(demo_lies(), at_router="R3")
        converged_network.converge()
        converged_network.change_weight("A", "B", 9)
        converged_network.converge()
        stats = converged_network.spf_stats
        lookups = (
            stats["spf_cache_hits"]
            + stats["spf_incremental_updates"]
            + stats["spf_full_recomputes"]
        )
        total_runs = sum(p.spf_runs for p in converged_network.routers.values())
        # Every SPF trigger is served by at most one cache lookup, and SPF
        # triggers only come from effective LSDB changes, which in turn only
        # come from delivered (non-duplicate) floods or self-origination.
        assert 0 < lookups <= total_runs
        flooding = converged_network.flooding_stats
        lsdb_changes = sum(len(p.lsdb) for p in converged_network.routers.values())
        assert flooding["deliveries"] >= lookups - lsdb_changes

    def test_refresh_without_graph_change_is_a_pure_hit(self, converged_network):
        router = converged_network.routers["A"]
        hits_before = router.spf_cache.counters.hits
        fib_version_before = router.fib_version
        # Re-originating the same router LSA (sequence bump, same content)
        # must not recompute or reinstall anything.
        router.originate([converged_network._router_lsa("A")])
        converged_network.converge()
        assert router.spf_cache.counters.hits > hits_before
        assert router.fib_version == fib_version_before

    def test_static_cache_serves_fib_set_without_recompute(self):
        topology = build_demo_topology()
        cache = RibCache()
        first = compute_static_fibs(topology, rib_cache=cache)
        full_after_first = cache.counters.full_recomputes
        hits_before = cache.counters.hits
        second = compute_static_fibs(topology, rib_cache=cache)
        assert cache.counters.hits == hits_before + len(topology.routers)
        assert cache.counters.full_recomputes == full_after_first
        for router in topology.routers:
            assert second[router] is first[router]

    def test_static_cache_never_serves_stale_results(self):
        topology = build_demo_topology()
        cache = RibCache()
        compute_static_fibs(topology, rib_cache=cache)
        topology.set_weight("A", "B", 50)
        cached = compute_static_fibs(topology, rib_cache=cache)
        fresh = compute_static_fibs(topology)
        for router in topology.routers:
            for prefix in fresh[router].prefixes:
                assert cached[router].split_ratios(prefix) == fresh[router].split_ratios(prefix)


class TestStaticComputation:
    def test_static_fibs_cover_all_routers(self):
        topology = build_demo_topology()
        fibs = compute_static_fibs(topology)
        assert set(fibs) == set(topology.routers)

    def test_static_fibs_with_lies_match_paper(self):
        fibs = compute_static_fibs(build_demo_topology(), demo_lies())
        assert fibs["A"].split_ratios(BLUE_PREFIX)["R1"] == pytest.approx(2 / 3)

    def test_shared_timeline_can_be_supplied(self):
        timeline = Timeline()
        network = IgpNetwork(build_demo_topology(), timeline=timeline)
        network.start()
        network.converge()
        assert timeline.now > 0

    def test_custom_router_timers_slow_convergence(self):
        fast = IgpNetwork(build_demo_topology(), timers=RouterTimers(spf_delay=0.01, fib_delay=0.01))
        slow = IgpNetwork(build_demo_topology(), timers=RouterTimers(spf_delay=0.5, fib_delay=0.5))
        fast.start()
        slow.start()
        assert slow.converge() > fast.converge()

    def test_disconnected_topology_still_converges(self):
        topology = Topology("split")
        topology.add_routers(["A", "B", "C"])
        topology.add_link("A", "B")
        topology.attach_prefix("C", "10.0.0.0/24")
        network = IgpNetwork(topology)
        network.start()
        network.converge()
        # A has no route to the isolated prefix.
        assert not network.fib_of("A").has_entry(BLUE_PREFIX)
