"""Differential suite: controller crash/recovery vs. a never-crashed twin.

The tentpole robustness guarantee: a controller that crashes (losing every
piece of volatile state — installed-lie registry, plan cache, naming
counter) and then resynchronises *from the network's LSDB*
(:meth:`~repro.core.controller.FibbingController.resync`) must be
indistinguishable from a controller that never crashed.  Two live worlds
replay the same seeded requirement churn; world A crashes and resyncs every
``CRASH_EVERY`` waves, world B never does.  The suite compares the full
installed lie sets (fake-node names included, via
:func:`~repro.core.lies.lie_set_digest`) every few waves and the complete
per-router FIBs and split ratios at the end — bit-identical.
"""

import random

import pytest

from repro.core.controller import FibbingController
from repro.core.lies import lie_set_digest
from repro.experiments.scaling import build_ring_topology, churn_requirement
from repro.igp.lsa import FakeNodeLsa
from repro.igp.network import IgpNetwork
from repro.util.errors import ControllerError

RING = 8
COUNT = 12
WAVES = 250
CRASH_EVERY = 50
CHECK_EVERY = 10


def build_world():
    topology = build_ring_topology(RING, COUNT)
    network = IgpNetwork(topology)
    network.start()
    network.converge()
    controller = FibbingController(topology, network=network, attachment="R0")
    return network, controller


def fib_state(network):
    """Value snapshot of every router's full FIB (frozen dataclasses)."""
    return {
        name: {prefix: fib.lookup(prefix) for prefix in fib.prefixes}
        for name, fib in network.fibs().items()
    }


def split_ratio_state(network):
    """Per-router, per-prefix traffic split ratios (the data-plane rates)."""
    return {
        name: {prefix: fib.split_ratios(prefix) for prefix in fib.prefixes}
        for name, fib in network.fibs().items()
    }


def run_differential(waves=WAVES, crash_every=CRASH_EVERY, seed=0):
    """Replay one seeded churn through a crashing and a pristine world."""
    net_a, ctl_a = build_world()  # crashes and resyncs
    net_b, ctl_b = build_world()  # never crashes
    rng = random.Random(seed)
    generations = {index: 0 for index in range(COUNT)}
    crashes = 0
    for wave in range(waves):
        if wave and wave % crash_every == 0:
            ctl_a.detach()
            ctl_a.resync()
            crashes += 1
        target = rng.randrange(COUNT)
        generations[target] += 1
        for ctl, net in ((ctl_a, net_a), (ctl_b, net_b)):
            ctl.enforce(
                [
                    churn_requirement(net.topology, index, generations[index])
                    for index in range(COUNT)
                ]
            )
            net.converge()
        if wave % CHECK_EVERY == 0 or wave == waves - 1:
            assert lie_set_digest(ctl_a.active_lies()) == lie_set_digest(
                ctl_b.active_lies()
            ), f"lie sets diverged at wave {wave}"
    assert crashes == (waves - 1) // crash_every
    assert fib_state(net_a) == fib_state(net_b)
    assert split_ratio_state(net_a) == split_ratio_state(net_b)
    return ctl_a, ctl_b, crashes


class TestCrashRecoveryDifferential:
    def test_single_controller_crash_resync_is_bit_identical(self):
        ctl_a, ctl_b, crashes = run_differential()
        stats = ctl_a.stats.snapshot()
        assert stats["ctl_resyncs"] == crashes
        assert stats["ctl_resync_lies_recovered"] > 0
        # The pristine world never resynced.
        assert ctl_b.stats.snapshot()["ctl_resyncs"] == 0

    @pytest.mark.parametrize("seed", [1, 2])
    def test_other_seeds_stay_identical_on_shorter_churns(self, seed):
        run_differential(waves=60, crash_every=20, seed=seed)


    def test_resync_after_a_long_churn_recovers_only_the_live_lies(self):
        """A restarted controller's registry holds what the network still
        runs — none of the withdrawn history — indexed by the same prefixes."""
        net, controller = build_world()
        generations = [0] * COUNT
        # Six bumps a requirement: its weights wrap round, so lies retire.
        for wave in range(6 * COUNT):
            generations[wave % COUNT] += 1
            controller.enforce([
                churn_requirement(net.topology, index, generation)
                for index, generation in enumerate(generations)
            ])
            net.converge()
        registry = controller.registry
        assert len(registry.history()) > registry.active_count()
        digest = lie_set_digest(controller.active_lies())
        per_prefix = {prefix: registry.active_count(prefix) for prefix in registry.prefixes()}
        controller.detach()
        assert controller.resync() == sum(per_prefix.values())
        assert len(registry.history()) == registry.active_count()
        assert lie_set_digest(controller.active_lies()) == digest
        assert {
            prefix: registry.active_count(prefix) for prefix in registry.prefixes()
        } == per_prefix


class TestDetachSemantics:
    def test_enforce_while_detached_raises(self):
        _net, controller = build_world()
        controller.enforce([churn_requirement(controller.topology, 0, 0)])
        controller.detach()
        with pytest.raises(ControllerError):
            controller.enforce([churn_requirement(controller.topology, 0, 1)])

    def test_detach_forgets_the_lies_but_the_network_keeps_them(self):
        net, controller = build_world()
        controller.enforce(
            [churn_requirement(controller.topology, index, 1) for index in range(4)]
        )
        net.converge()
        installed = len(controller.active_lies())
        assert installed > 0
        controller.detach()
        # The crashed controller's view is empty; the routers keep forwarding
        # on the fake LSAs in their LSDBs (the paper's robustness property).
        assert controller.active_lies() == []
        lsdb = net.routers["R0"].lsdb
        surviving = [
            lsa
            for lsa in lsdb.live_lsas()
            if isinstance(lsa, FakeNodeLsa) and lsa.origin == controller.name
        ]
        assert len(surviving) == installed

    def test_resync_restores_the_exact_lie_set(self):
        net, controller = build_world()
        controller.enforce(
            [churn_requirement(controller.topology, index, 1) for index in range(6)]
        )
        net.converge()
        before = lie_set_digest(controller.active_lies())
        controller.detach()
        recovered = controller.resync()
        assert recovered == len(controller.active_lies())
        assert lie_set_digest(controller.active_lies()) == before

    def test_resync_recovers_the_naming_counter_from_withdrawn_lsas(self):
        """Fresh lies after a resync must not reuse retired fake-node names.

        Withdraw every lie, crash, resync (zero live lies recovered), then
        enforce a new requirement: the new fake-node names must continue the
        committed sequence, which only survives in the *withdrawn* LSA
        instances of the LSDB.
        """
        net, controller = build_world()
        controller.enforce([churn_requirement(controller.topology, 0, 1)])
        net.converge()
        names_before = {lsa.fake_node for lsa in controller.active_lies()}
        assert names_before, "the first requirement must install lies"
        controller.clear_all()  # retract everything
        net.converge()
        controller.detach()
        assert controller.resync() == 0
        controller.enforce([churn_requirement(controller.topology, 0, 2)])
        net.converge()
        names_after = {lsa.fake_node for lsa in controller.active_lies()}
        assert names_after, "the re-enforced requirement must install lies"
        assert not names_before & names_after, "retired names must not be reused"

    def test_resync_without_a_network_raises(self):
        topology = build_ring_topology(RING, COUNT)
        controller = FibbingController(topology)
        controller.detach()
        with pytest.raises(ControllerError):
            controller.resync()

