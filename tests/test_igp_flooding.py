"""Tests for the LSA flooding fabric.

``TestRunsMatchPerMessage`` judges the fabric's delivery runs against the
one-event-per-LSA-hop oracle in ``tests/oracles.py``.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.igp.flooding import FloodingFabric
from repro.igp.lsa import FakeNodeLsa, RouterLsa
from repro.igp.network import IgpNetwork
from repro.igp.router import RouterTimers
from repro.igp.topology import Topology
from repro.topologies.demo import build_demo_topology, demo_lies
from repro.topologies.isp import synthetic_isp
from repro.util.errors import TopologyError
from repro.util.timeline import Timeline

from oracles import flood_per_message


class TestFabricBasics:
    def test_unbound_fabric_refuses_to_send(self):
        fabric = FloodingFabric(build_demo_topology(), Timeline())
        with pytest.raises(TopologyError):
            fabric.send("A", "B", RouterLsa(origin="A"))

    def test_injection_at_unknown_router_rejected(self):
        fabric = FloodingFabric(build_demo_topology(), Timeline())
        fabric.bind(lambda router, lsa, neighbor: None)
        with pytest.raises(TopologyError):
            fabric.inject("ghost", RouterLsa(origin="ctrl"))

    def test_delivery_happens_after_link_delay(self):
        topology = build_demo_topology()
        timeline = Timeline()
        fabric = FloodingFabric(topology, timeline, processing_delay=0.002)
        deliveries = []
        fabric.bind(lambda router, lsa, neighbor: deliveries.append((timeline.now, router, neighbor)))
        fabric.send("A", "B", RouterLsa(origin="A"))
        assert deliveries == []  # nothing delivered before the timeline runs
        timeline.run_all()
        assert len(deliveries) == 1
        time, router, neighbor = deliveries[0]
        assert router == "B" and neighbor == "A"
        assert time == pytest.approx(topology.link("A", "B").delay + 0.002)

    def test_flood_from_skips_excluded_neighbor(self):
        topology = build_demo_topology()
        timeline = Timeline()
        fabric = FloodingFabric(topology, timeline)
        deliveries = []
        fabric.bind(lambda router, lsa, neighbor: deliveries.append(router))
        fabric.flood_from("B", RouterLsa(origin="B"), exclude="A")
        timeline.run_all()
        assert sorted(deliveries) == ["R2", "R3"]

    def test_stats_count_messages_and_bytes(self):
        topology = build_demo_topology()
        timeline = Timeline()
        fabric = FloodingFabric(topology, timeline)
        fabric.bind(lambda router, lsa, neighbor: None)
        fabric.flood_from("A", RouterLsa(origin="A", links=(("B", 1.0),)))
        stats = fabric.stats.snapshot()
        assert stats["messages_sent"] == 2  # A has two neighbors: B and R1
        assert stats["bytes_sent"] > 0


class TestDomainWideFlooding:
    def test_every_router_learns_every_router_lsa(self):
        network = IgpNetwork(build_demo_topology())
        network.start()
        network.converge()
        for name, process in network.routers.items():
            for other in network.topology.routers:
                assert process.lsdb.get(RouterLsa(origin=other).key) is not None, (
                    f"{name} never learnt the router LSA of {other}"
                )

    def test_duplicates_are_suppressed_not_reflooded(self):
        network = IgpNetwork(build_demo_topology())
        network.start()
        network.converge()
        stats = network.flooding_stats
        # Flooding over a meshy topology necessarily delivers duplicates, but
        # they must be absorbed (suppressed) rather than re-flooded forever.
        assert stats["duplicates_suppressed"] > 0
        assert stats["deliveries"] == stats["messages_sent"]


class TestDeliveryRuns:
    def test_same_instant_sends_share_one_event(self):
        topology = build_demo_topology()
        timeline = Timeline()
        fabric = FloodingFabric(topology, timeline)
        deliveries = []
        fabric.bind(lambda router, lsa, neighbor: deliveries.append(router))
        fabric.flood_from("R1", RouterLsa(origin="R1"))
        assert timeline.pending == 1
        assert timeline.run_all() == 1
        assert deliveries == topology.neighbors("R1")
        assert fabric.stats.deliveries == len(deliveries)

    def test_an_intervening_event_opens_a_new_run(self):
        timeline = Timeline()
        fabric = FloodingFabric(build_demo_topology(), timeline, processing_delay=0.0)
        order = []
        fabric.bind(lambda router, lsa, neighbor: order.append(router))
        fabric.inject("A", RouterLsa(origin="c1"))
        timeline.schedule(0.0, lambda: order.append("timer"))
        fabric.inject("B", RouterLsa(origin="c2"))
        fabric.inject("R1", RouterLsa(origin="c3"))
        assert timeline.run_all() == 3
        assert order == ["A", "timer", "B", "R1"]

    def test_a_fired_run_takes_no_more_sends(self):
        # Zero delays: the injection is due at the instant of the run that
        # just fired, which is still the last event the timeline scheduled.
        timeline = Timeline()
        fabric = FloodingFabric(build_demo_topology(), timeline, processing_delay=0.0)
        deliveries = []
        fabric.bind(lambda router, lsa, neighbor: deliveries.append(router))
        fabric.inject("A", RouterLsa(origin="c1"))
        timeline.run_all()
        fabric.inject("B", RouterLsa(origin="c2"))
        assert timeline.run_all() == 1
        assert deliveries == ["A", "B"]

    def test_deliveries_and_injections_do_not_share_a_run(self):
        timeline = Timeline()
        topology = with_link_delay(build_demo_topology(), 0.0)
        fabric = FloodingFabric(topology, timeline, processing_delay=0.0)
        fabric.bind(lambda router, lsa, neighbor: None)
        fabric.send("A", "B", RouterLsa(origin="A"))
        fabric.inject("B", RouterLsa(origin="c1"))
        fabric.inject("A", RouterLsa(origin="c2"))
        labels = []
        while timeline.peek_time() is not None:
            labels.append(timeline.step().label)
        assert labels == ["lsa-delivery", "lsa-injection"]


# --------------------------------------------------------------------------- #
# Delivery runs against the per-message oracle
# --------------------------------------------------------------------------- #


class RecordingTimeline(Timeline):
    """A timeline that logs every non-flooding event as it fires.

    It overrides :meth:`schedule` the way a tracing wrapper does, so the
    fabric's read of ``last_scheduled`` is exercised through one.
    """

    def __init__(self, log):
        super().__init__()
        self._log = log

    def schedule(self, time, action, label=""):
        if label.startswith("lsa-"):
            return super().schedule(time, action, label)

        def logged():
            self._log.append(("event", self.now, label))
            action()

        return super().schedule(time, logged, label)


class Twin:
    """One network and one log of LSA receipts, FIB installs and non-flooding
    events, in the order they happened."""

    def __init__(self, topology, per_message, timers=RouterTimers(), processing_delay=None):
        self.log = []
        self.network = IgpNetwork(topology.copy(), RecordingTimeline(self.log), timers=timers)
        if processing_delay is not None:
            self.network.fabric.processing_delay = processing_delay
        if per_message:
            flood_per_message(self.network)
        timeline, fabric = self.network.timeline, self.network.fabric
        deliver = fabric._deliver

        def receive(router, lsa, source):
            self.log.append(("receipt", timeline.now, router, str(lsa.key), lsa.sequence, source))
            deliver(router, lsa, source)

        fabric.bind(receive)
        self.network.on_fib_change(
            lambda router, fib: self.log.append(("fib", timeline.now, router, splits(fib)))
        )

    def final_state(self):
        return {
            "lsdbs": {
                name: sorted(process.lsdb.all_lsas(), key=lambda lsa: lsa.key)
                for name, process in self.network.routers.items()
            },
            "stats": self.network.fabric.stats.snapshot(),
        }


def splits(fib):
    return tuple(
        (str(prefix), tuple(sorted(fib.split_ratios(prefix).items()))) for prefix in fib.prefixes
    )


def with_link_delay(topology, delay):
    clone = Topology(topology.name)
    clone.add_routers(topology.routers)
    for link in topology.links:
        clone.add_directed_link(link.source, link.target, link.weight, link.capacity, delay)
    for prefix in topology.prefixes:
        for attachment in topology.prefix_attachments(prefix):
            clone.attach_prefix(attachment.router, prefix, attachment.cost)
    return clone


def assert_runs_match_per_message(topology, play, **twin_options):
    """Run ``play(network)`` on a delivery-run network and its per-message twin."""
    runs = Twin(topology, per_message=False, **twin_options)
    oracle = Twin(topology, per_message=True, **twin_options)
    for twin in (runs, oracle):
        play(twin.network)
    for index, (mine, theirs) in enumerate(zip(runs.log, oracle.log)):
        assert mine == theirs, f"log entry {index} differs"
    assert len(runs.log) == len(oracle.log)
    assert runs.final_state() == oracle.final_state()
    # The per-message twin really is one event per LSA-hop; the runs are not.
    stats = oracle.network.fabric.stats
    flooding_events = oracle.network.timeline.fired - sum(e[0] == "event" for e in oracle.log)
    assert flooding_events == stats.messages_sent - stats.messages_dropped
    if flooding_events > 1:
        assert runs.network.timeline.fired < oracle.network.timeline.fired
    return runs


def converge(network):
    network.start()
    network.converge()


def isp_lies(topology, sequence=1, withdrawn=False):
    """One lie per core router, sending one Pop prefix to its ring successor."""
    core = [name for name in topology.routers if name.startswith("Core")]
    return [
        FakeNodeLsa(
            origin="ctl", fake_node=f"f{index}", anchor=anchor, link_cost=1.0,
            prefix=topology.prefixes[2 * index], forwarding_address=core[(index + 1) % len(core)],
            sequence=sequence, withdrawn=withdrawn,
        )
        for index, anchor in enumerate(core)
    ]


def isp_waves(network, step):
    """Boot, then lie waves with link events landing in the middle of them."""
    topology = network.topology
    converge(network)
    network.inject(isp_lies(topology), at_router="Core0")
    network.run_until(network.timeline.now + step)
    network.fail_link("Core0", "Core6")
    network.run_until(network.timeline.now + step)
    network.inject(isp_lies(topology, sequence=2, withdrawn=True)[:4], at_router="Core3")
    network.change_weight("Core2", "Core7", 5.0)
    network.converge()
    network.inject(isp_lies(topology, sequence=3), at_router="Pop0A")
    network.restore_link("Core0", "Core6")
    network.run_until(network.timeline.now + step)
    network.inject(isp_lies(topology, sequence=4, withdrawn=True), at_router="Core5")
    network.converge()


DYADIC = {"timers": RouterTimers(spf_delay=0.5, fib_delay=0.25), "processing_delay": 0.25}


class TestRunsMatchPerMessage:
    """Delivery runs change how many timeline events flooding takes, nothing else."""

    def test_demo_boot(self):
        assert_runs_match_per_message(build_demo_topology(), converge)

    def test_demo_lies_and_failure(self):
        def play(network):
            converge(network)
            network.inject(demo_lies(), at_router="R3")
            network.fail_link("R1", "R4")
            network.converge()

        assert_runs_match_per_message(build_demo_topology(), play)

    def test_isp_boot(self):
        runs = assert_runs_match_per_message(synthetic_isp(8, 8), converge)
        assert all(process.fib is not None for process in runs.network.routers.values())

    def test_isp_lie_waves_with_link_events(self):
        assert_runs_match_per_message(synthetic_isp(8, 8), lambda net: isp_waves(net, 0.003))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_lsa_loss(self, seed):
        def play(network):
            network.fabric.set_loss(0.05, random.Random(seed))
            isp_waves(network, 0.003)

        runs = assert_runs_match_per_message(synthetic_isp(8, 8), play)
        assert runs.network.fabric.stats.messages_dropped > 0

    def test_dyadic_timers_land_on_delivery_instants(self):
        # Link 0.25 + processing 0.25: every hop is 0.5, the SPF hold-down;
        # FIB installs (0.25) land on injection instants.  Every tie between
        # a timer and a delivery is broken by sequence order alone.
        topology = with_link_delay(synthetic_isp(8, 8), 0.25)
        assert_runs_match_per_message(topology, lambda net: isp_waves(net, 0.75), **DYADIC)

    def test_zero_delays(self):
        # Every re-flood is due at the instant of the run being delivered.
        def play(network):
            converge(network)
            network.inject(demo_lies(), at_router="R3")
            network.fail_link("R1", "R4")
            network.converge()
            # Duplicates only: their run fires and schedules nothing, so it is
            # still the last event when the withdrawals arrive at its instant.
            network.inject(demo_lies(), at_router="R3")
            network.converge()
            network.inject([lie.withdraw() for lie in demo_lies()], at_router="A")
            network.restore_link("R1", "R4")
            network.converge()

        assert_runs_match_per_message(
            with_link_delay(build_demo_topology(), 0.0), play,
            timers=RouterTimers(0.0, 0.0), processing_delay=0.0,
        )

    @settings(deadline=None, max_examples=30, suppress_health_check=[HealthCheck.too_slow])
    @given(
        st.lists(
            st.one_of(
                st.tuples(st.sampled_from(["inject", "withdraw", "fail", "restore"]), st.integers(0, 7)),
                st.tuples(st.just("weight"), st.integers(0, 7), st.sampled_from([1.0, 2.0, 3.0])),
                st.tuples(st.just("run"), st.integers(0, 6)),
            ),
            max_size=12,
        )
    )
    def test_random_operations_with_dyadic_delays(self, ops):
        topology = with_link_delay(synthetic_isp(4, 4), 0.25)
        assert_runs_match_per_message(topology, lambda net: play_ops(net, ops), **DYADIC)


def play_ops(network, ops):
    """Interpret abstract ``ops`` against ``network``'s current state.

    Lies ride the core ring, which is never failed, so every forwarding
    address stays adjacent to its anchor.
    """
    converge(network)
    lies = {}
    failed = []
    ring = {tuple(sorted((f"Core{i}", f"Core{(i + 1) % 4}"))) for i in range(4)}
    for op, index, *rest in ops:
        chords = [pair for pair in network.topology.undirected_links if pair not in ring]
        if op in ("inject", "withdraw"):
            lie = isp_lies(network.topology)[index % 4]
            current = lies.get(index % 4)
            if op == "inject":
                lie = lie if current is None else current.refresh()
            elif current is None or current.withdrawn:
                continue
            else:
                lie = current.withdraw()
            lies[index % 4] = lie
            network.inject([lie], at_router=f"Core{index % 4}")
        elif op == "fail" and chords:
            pair = chords[index % len(chords)]
            network.fail_link(*pair)
            failed.append(pair)
        elif op == "restore" and failed:
            network.restore_link(*failed.pop(index % len(failed)))
        elif op == "weight" and chords:
            network.change_weight(*chords[index % len(chords)], rest[0])
        elif op == "run":
            network.run_until(network.timeline.now + 0.25 * index)
    network.converge()
