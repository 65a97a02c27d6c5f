"""Tests for live topology events: link failures and weight changes."""

import pytest

from repro.igp.network import IgpNetwork
from repro.topologies.demo import BLUE_PREFIX, build_demo_topology, demo_lies
from repro.util.errors import TopologyError


@pytest.fixture
def live_network():
    network = IgpNetwork(build_demo_topology())
    network.start()
    network.converge()
    return network


class TestLinkFailure:
    def test_failure_reroutes_around_the_dead_link(self, live_network):
        assert live_network.fib_of("B").split_ratios(BLUE_PREFIX) == {"R2": 1.0}
        live_network.fail_link("B", "R2")
        live_network.converge()
        # B's best remaining path is B-R3-C (cost 3).
        assert live_network.fib_of("B").split_ratios(BLUE_PREFIX) == {"R3": 1.0}
        assert live_network.fib_of("B").lookup(BLUE_PREFIX).cost == pytest.approx(3.0)

    def test_failure_updates_upstream_routers_too(self, live_network):
        live_network.fail_link("B", "R2")
        live_network.converge()
        # A's path via B now costs 4; the A-R1-R4-C path also costs 4 -> ECMP.
        ratios = live_network.fib_of("A").split_ratios(BLUE_PREFIX)
        assert ratios == {"B": 0.5, "R1": 0.5}

    def test_failure_before_start_rejected(self):
        network = IgpNetwork(build_demo_topology())
        with pytest.raises(TopologyError):
            network.fail_link("B", "R2")

    def test_failing_unknown_link_rejected(self, live_network):
        with pytest.raises(TopologyError):
            live_network.fail_link("A", "C")

    def test_stale_lies_after_failure_must_be_withdrawn(self, live_network):
        """Lies do not adapt to topology changes by themselves.

        After R1-R4 fails, the Fig. 1c lies at A still steer 2/3 of the
        traffic toward R1, whose only remaining path to C goes back through
        A — a forwarding loop.  This is exactly why the controller must
        react to failures; once the stale lies are withdrawn, the IGP's own
        re-convergence restores loop-free delivery.
        """
        from repro.dataplane.flows import Flow
        from repro.dataplane.forwarding import route_flows_hashed

        lies = demo_lies()
        live_network.inject(lies, at_router="R3")
        live_network.converge()
        live_network.fail_link("R1", "R4")
        live_network.converge()

        flows = [Flow(flow_id=i, ingress="A", prefix=BLUE_PREFIX, demand=1.0) for i in range(20)]
        stale = route_flows_hashed(live_network.fibs(), flows)
        assert any(path.looped for path in stale.flow_paths.values())

        live_network.inject([lie.withdraw() for lie in lies], at_router="R3")
        live_network.converge()
        recovered = route_flows_hashed(live_network.fibs(), flows)
        assert all(path.delivered and not path.looped for path in recovered.flow_paths.values())

    def test_convergence_time_after_failure_is_short(self, live_network):
        live_network.fail_link("B", "R2")
        assert 0 < live_network.converge() < 1.0


class TestLinkRestore:
    @staticmethod
    def _fib_state(network):
        """Value snapshot of every router's full FIB (frozen dataclasses)."""
        return {
            name: {prefix: fib.lookup(prefix) for prefix in fib.prefixes}
            for name, fib in network.fibs().items()
        }

    def test_restore_returns_to_pre_failure_fibs_byte_identically(self, live_network):
        before = self._fib_state(live_network)
        live_network.fail_link("B", "R2")
        live_network.converge()
        assert self._fib_state(live_network) != before
        live_network.restore_link("B", "R2")
        live_network.converge()
        assert self._fib_state(live_network) == before

    def test_restore_accepts_endpoints_in_either_order(self, live_network):
        before = self._fib_state(live_network)
        live_network.fail_link("B", "R2")
        live_network.converge()
        live_network.restore_link("R2", "B")
        live_network.converge()
        assert self._fib_state(live_network) == before

    def test_restore_before_start_rejected(self):
        network = IgpNetwork(build_demo_topology())
        with pytest.raises(TopologyError):
            network.restore_link("B", "R2")

    def test_restore_without_recorded_failure_rejected(self, live_network):
        with pytest.raises(TopologyError):
            live_network.restore_link("B", "R2")

    def test_restore_preserves_asymmetric_weights(self):
        # Make the pair asymmetric before starting, then round-trip it
        # through a failure: the restored links must carry the saved
        # per-direction weights, not a symmetric reconstruction.
        topology = build_demo_topology()
        topology.set_weight("B", "R2", 7, both_directions=False)
        network = IgpNetwork(topology)
        network.start()
        network.converge()
        before = self._fib_state(network)
        network.fail_link("B", "R2")
        network.converge()
        network.restore_link("B", "R2")
        network.converge()
        assert topology.link("B", "R2").weight == 7
        assert topology.link("R2", "B").weight == 1
        assert self._fib_state(network) == before

    def test_repeated_fail_restore_cycles_are_stable(self, live_network):
        before = self._fib_state(live_network)
        for _ in range(3):
            live_network.fail_link("R1", "R4")
            live_network.converge()
            live_network.restore_link("R1", "R4")
            live_network.converge()
        assert self._fib_state(live_network) == before

    def test_lie_is_ignored_while_its_forwarding_adjacency_is_down(self, live_network):
        """Regression: failing the link between a lie's anchor and its
        forwarding address raised ``RoutingError`` out of every router's SPF
        event.  Like an OSPF external LSA with an unreachable forwarding
        address, the lie must be ignored until the adjacency returns."""
        live_network.inject(demo_lies(), at_router="R3")
        live_network.converge()
        before = self._fib_state(live_network)
        assert live_network.fib_of("B").split_ratios(BLUE_PREFIX) == {"R2": 0.5, "R3": 0.5}
        live_network.fail_link("B", "R3")
        live_network.converge()
        # B falls back to its plain IGP path; the lies at A are untouched.
        assert live_network.fib_of("B").split_ratios(BLUE_PREFIX) == {"R2": 1.0}
        assert live_network.fib_of("A").lookup(BLUE_PREFIX).total_weight == 3
        live_network.restore_link("B", "R3")
        live_network.converge()
        assert self._fib_state(live_network) == before


class TestWeightChange:
    def test_weight_change_moves_traffic(self, live_network):
        # Making B-R2 expensive makes B prefer B-R3-C.
        live_network.change_weight("B", "R2", 10)
        live_network.converge()
        assert live_network.fib_of("B").split_ratios(BLUE_PREFIX) == {"R3": 1.0}

    def test_weight_change_affects_other_destinations_too(self, live_network):
        """The bluntness the paper criticises: a weight change is global."""
        from repro.topologies.demo import SOURCE_PREFIXES

        before = live_network.fib_of("R2").split_ratios(SOURCE_PREFIXES["S1"])
        live_network.change_weight("B", "R2", 10)
        live_network.converge()
        after = live_network.fib_of("R2").split_ratios(SOURCE_PREFIXES["S1"])
        assert before == {"B": 1.0}
        assert after != before  # R2 now reaches B's prefix through R3 or C

    def test_weight_change_before_start_rejected(self):
        network = IgpNetwork(build_demo_topology())
        with pytest.raises(TopologyError):
            network.change_weight("B", "R2", 5)
