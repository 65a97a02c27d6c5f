"""Tests for the fault-injection harness and the degraded monitoring path."""

import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import churn_candidates_per_link
from repro.core.chaos import (
    FaultCounters,
    FaultEvent,
    FaultInjector,
    FaultPlan,
    build_link_churn,
    churn_candidates,
)
from repro.dataplane.engine import DataPlaneEngine
from repro.igp.network import IgpNetwork, compute_static_fibs
from repro.monitoring.alarms import UtilizationAlarm
from repro.monitoring.collector import LoadCollector
from repro.monitoring.counters import build_agents
from repro.monitoring.poller import PollSample, SnmpPoller
from repro.igp.topology import Topology
from repro.topologies.demo import build_demo_topology
from repro.topologies.isp import synthetic_isp
from repro.topologies.random import random_topology
from repro.topologies.zoo import abilene, dumbbell, grid, ring
from repro.util.errors import MonitoringError, ValidationError
from repro.util.timeline import Timeline


@pytest.fixture
def live_network():
    network = IgpNetwork(build_demo_topology())
    network.start()
    network.converge()
    return network


@pytest.fixture
def monitored_engine():
    topology = build_demo_topology()
    fibs = compute_static_fibs(topology)
    timeline = Timeline()
    engine = DataPlaneEngine(topology, lambda: fibs, timeline, sample_interval=1.0)
    engine.start()
    return topology, timeline, engine


class TestFaultEvent:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValidationError):
            FaultEvent(time=1.0, kind="meteor_strike")

    def test_negative_time_rejected(self):
        with pytest.raises(ValidationError):
            FaultEvent(time=-1.0, kind="controller_crash")

    def test_link_events_need_both_endpoints(self):
        with pytest.raises(ValidationError):
            FaultEvent(time=1.0, kind="link_down", first="A")
        with pytest.raises(ValidationError):
            FaultEvent(time=1.0, kind="link_up", second="B")

    def test_controller_events_take_no_endpoints(self):
        with pytest.raises(ValidationError):
            FaultEvent(time=1.0, kind="controller_crash", first="A", second="B")


class TestFaultPlan:
    def test_rates_validated(self):
        with pytest.raises(ValidationError):
            FaultPlan(lsa_loss_rate=1.5)
        with pytest.raises(ValidationError):
            FaultPlan(poll_timeout_rate=-0.1)
        with pytest.raises(ValidationError):
            FaultPlan(poll_max_retries=-1)

    def test_empty_plan_is_the_degenerate_point(self):
        assert FaultPlan().is_empty
        assert not FaultPlan(events=(FaultEvent(time=1.0, kind="controller_crash"),)).is_empty
        assert not FaultPlan(lsa_loss_rate=0.1).is_empty
        assert not FaultPlan(poll_timeout_rate=0.1).is_empty

    def test_seeded_streams_are_independent_and_deterministic(self):
        plan = FaultPlan(seed=7)
        # Same seed, same stream — and the two knobs draw from *different*
        # streams, so toggling one never shifts the other's outcomes.
        assert plan.loss_rng().random() == FaultPlan(seed=7).loss_rng().random()
        assert plan.timeout_rng().random() == FaultPlan(seed=7).timeout_rng().random()
        assert plan.loss_rng().random() != plan.timeout_rng().random()
        assert plan.loss_rng().random() != FaultPlan(seed=8).loss_rng().random()


class TestBuildLinkChurn:
    def test_generates_down_up_pairs_with_hold(self):
        topology = build_demo_topology()
        events = build_link_churn(
            topology, random.Random(0), count=3, start=5.0, spacing=10.0, hold=4.0
        )
        assert len(events) == 6
        for index in range(3):
            down, up = events[2 * index], events[2 * index + 1]
            assert down.kind == "link_down" and up.kind == "link_up"
            assert (down.first, down.second) == (up.first, up.second)
            assert down.time == 5.0 + index * 10.0
            assert up.time == down.time + 4.0

    def test_same_seed_same_schedule(self):
        topology = build_demo_topology()
        build = lambda seed: build_link_churn(
            topology, random.Random(seed), count=5, start=1.0, spacing=3.0, hold=1.0
        )
        assert build(3) == build(3)
        assert build(3) != build(4)

    def test_excluded_routers_are_never_churned(self):
        topology = build_demo_topology()
        events = build_link_churn(
            topology,
            random.Random(0),
            count=20,
            start=0.0,
            spacing=1.0,
            hold=0.5,
            exclude_routers=("A", "B"),
        )
        touched = {event.first for event in events} | {event.second for event in events}
        assert "A" not in touched and "B" not in touched

    def test_churn_never_partitions_the_domain(self, live_network):
        events = build_link_churn(
            live_network.topology,
            random.Random(1),
            count=6,
            start=1.0,
            spacing=2.0,
            hold=1.0,
        )
        injector = FaultInjector(live_network, FaultPlan(events=tuple(events)))
        injector.start()
        live_network.converge()
        # Every episode executed (no partition, no TopologyError) and the
        # final topology is back to full strength.
        assert injector.counters.link_downs == 6
        assert injector.counters.link_ups == 6
        assert len(live_network.topology.links) == len(build_demo_topology().links)

    def test_hold_must_stay_below_spacing(self):
        topology = build_demo_topology()
        with pytest.raises(ValidationError):
            build_link_churn(
                topology, random.Random(0), count=1, start=0.0, spacing=2.0, hold=2.0
            )

    def test_zero_count_is_empty(self):
        topology = build_demo_topology()
        assert (
            build_link_churn(
                topology, random.Random(0), count=0, start=0.0, spacing=1.0, hold=0.5
            )
            == []
        )


def _stub_topology(routers, pairs):
    """The two attributes churn reads, with links listed as given (repeats kept)."""
    links = [SimpleNamespace(source=a, target=b) for a, b in pairs]
    links += [SimpleNamespace(source=b, target=a) for a, b in pairs]
    return SimpleNamespace(routers=sorted(routers), links=links)


PRODUCT_TOPOLOGIES = {
    "demo": build_demo_topology,
    "abilene": abilene,
    "ring": lambda: ring(6),
    "grid": lambda: grid(3, 4),
    "dumbbell": dumbbell,
    "isp_120": lambda: synthetic_isp(core_size=40, pops=40, seed=0),
    "isp_small": lambda: synthetic_isp(core_size=6, pops=6, seed=7),
    "random_tree": lambda: random_topology(12, edge_probability=0.0, seed=3),
    "random_sparse": lambda: random_topology(20, edge_probability=0.08, seed=5),
    "random_dense": lambda: random_topology(15, edge_probability=0.4, seed=9),
}


class TestChurnCandidates:
    """The one bridge pass picks exactly the links the per-link search keeps."""

    @pytest.mark.parametrize("name", sorted(PRODUCT_TOPOLOGIES))
    def test_product_topologies_match_the_per_link_oracle(self, name):
        topology = PRODUCT_TOPOLOGIES[name]()
        routers = topology.routers
        rng = random.Random(name)
        for excluded in ((), routers[:1], rng.sample(routers, len(routers) // 3)):
            assert churn_candidates(topology, excluded) == churn_candidates_per_link(
                topology, excluded
            )

    def test_isp_churn_draws_the_links_the_per_link_filter_drew(self):
        topology = synthetic_isp(core_size=40, pops=40, seed=0)
        excluded = ("Core3", "Pop7A")
        events = build_link_churn(
            topology, random.Random(11), count=8, start=5.0, spacing=6.0, hold=4.0,
            exclude_routers=excluded,
        )
        candidates = churn_candidates_per_link(topology, excluded)
        rng = random.Random(11)
        drawn = [candidates[rng.randrange(len(candidates))] for _ in range(8)]
        assert [(event.first, event.second) for event in events[::2]] == drawn

    def test_a_tree_has_no_candidate(self):
        topology = random_topology(12, edge_probability=0.0, seed=3)
        assert churn_candidates(topology) == []
        with pytest.raises(ValidationError):
            build_link_churn(topology, random.Random(0), count=1, start=0.0, spacing=2.0, hold=1.0)

    def test_a_disconnected_graph_has_no_candidate(self):
        topology = Topology()
        topology.add_routers(["a", "b", "c", "d", "e", "f"])
        for first, second in ("ab", "bc", "ca", "de", "ef", "fd"):
            topology.add_link(first, second)
        assert churn_candidates(topology) == churn_candidates_per_link(topology) == []

    def test_parallel_links_fail_together(self):
        # a-b-c is a triangle; d hangs off c by two parallel links, which
        # fail as one pair, so c-d is still a bridge.
        pairs = [("a", "b"), ("b", "c"), ("a", "c"), ("c", "d"), ("c", "d")]
        topology = _stub_topology("abcd", pairs)
        assert churn_candidates(topology) == churn_candidates_per_link(topology)
        assert churn_candidates(topology) == [("a", "b"), ("a", "c"), ("b", "c")]
        assert churn_candidates(topology, ["a"]) == [("b", "c")]

    @settings(max_examples=200, deadline=None)
    @given(
        size=st.integers(min_value=1, max_value=9),
        edges=st.lists(
            st.tuples(st.integers(0, 8), st.integers(0, 8)), max_size=24
        ),
        excluded=st.lists(st.integers(0, 8), max_size=3),
    )
    def test_arbitrary_graphs_match_the_per_link_oracle(self, size, edges, excluded):
        routers = [f"r{index}" for index in range(size)]
        pairs = [
            (routers[first], routers[second])
            for first, second in edges
            if first < size and second < size and first != second
        ]
        topology = _stub_topology(routers, pairs)
        names = [routers[index] for index in excluded if index < size]
        assert churn_candidates(topology, names) == churn_candidates_per_link(topology, names)


class TestFaultInjector:
    def test_link_events_execute_and_count(self, live_network):
        plan = FaultPlan(
            events=(
                FaultEvent(time=1.0, kind="link_down", first="R1", second="R4"),
                FaultEvent(time=2.0, kind="link_up", first="R1", second="R4"),
            )
        )
        injector = FaultInjector(live_network, plan)
        injector.start()
        live_network.run_until(1.5)
        assert not live_network.topology.has_link("R1", "R4")
        assert injector.counters.link_downs == 1
        live_network.converge()
        assert live_network.topology.has_link("R1", "R4")
        assert injector.counters.link_ups == 1

    def test_controller_events_require_a_controller(self, live_network):
        plan = FaultPlan(events=(FaultEvent(time=1.0, kind="controller_crash"),))
        with pytest.raises(ValidationError):
            FaultInjector(live_network, plan)

    def test_poll_timeouts_require_a_poller(self, live_network):
        with pytest.raises(ValidationError):
            FaultInjector(live_network, FaultPlan(poll_timeout_rate=0.5))

    def test_past_events_rejected_at_start(self, live_network):
        live_network.run_until(live_network.timeline.now + 5.0)
        plan = FaultPlan(
            events=(FaultEvent(time=1.0, kind="link_down", first="R1", second="R4"),)
        )
        with pytest.raises(ValidationError):
            FaultInjector(live_network, plan).start()

    def test_counters_surface_through_the_network(self, live_network):
        plan = FaultPlan(
            events=(FaultEvent(time=1.0, kind="link_down", first="R1", second="R4"),)
        )
        injector = FaultInjector(live_network, plan)
        injector.start()
        live_network.converge()
        assert live_network.counter_sets()["faults"].link_downs == 1
        assert live_network.spf_stats["fault_link_downs"] == 1

    def test_clean_network_reports_zero_fault_counters(self, live_network):
        snapshot = live_network.counter_sets()["faults"].snapshot()
        assert set(snapshot) == set(FaultCounters().snapshot())
        assert all(value == 0 for value in snapshot.values())

    def test_lsa_loss_is_seed_deterministic(self):
        def dropped(seed):
            network = IgpNetwork(build_demo_topology())
            injector = FaultInjector(
                network, FaultPlan(lsa_loss_rate=0.3, seed=seed)
            )
            injector.start()
            network.start()
            network.converge()
            assert network.flooding_stats["messages_dropped"] == (
                injector.counters.lsas_dropped
            )
            return injector.counters.lsas_dropped

        assert dropped(0) > 0
        assert dropped(0) == dropped(0)
        assert dropped(0) != dropped(5)

    def test_zero_loss_rate_draws_nothing(self, live_network):
        injector = FaultInjector(live_network, FaultPlan(lsa_loss_rate=0.0))
        injector.start()
        assert live_network.fabric.loss_rate == 0.0
        assert live_network.fabric.loss_rng is None

    def test_start_is_idempotent(self, live_network):
        plan = FaultPlan(
            events=(FaultEvent(time=1.0, kind="link_down", first="R1", second="R4"),)
        )
        injector = FaultInjector(live_network, plan)
        injector.start()
        injector.start()
        live_network.converge()
        assert injector.counters.link_downs == 1


class _ScriptedRng:
    """Deterministic stand-in for random.Random: returns scripted draws."""

    def __init__(self, draws):
        self._draws = list(draws)

    def random(self):
        return self._draws.pop(0) if self._draws else 1.0


class TestPollerTimeouts:
    def _poller(self, monitored_engine, **kwargs):
        topology, timeline, engine = monitored_engine
        poller = SnmpPoller(build_agents(topology, engine), timeline, poll_interval=1.0)
        if kwargs:
            poller.set_timeouts(**kwargs)
        return timeline, poller

    def test_set_timeouts_validation(self, monitored_engine):
        _, poller = self._poller(monitored_engine)
        with pytest.raises(MonitoringError):
            poller.set_timeouts(1.5, random.Random(0))
        with pytest.raises(MonitoringError):
            poller.set_timeouts(0.5)  # no RNG
        with pytest.raises(MonitoringError):
            poller.set_timeouts(0.5, random.Random(0), max_retries=-1)

    def test_timeout_then_retry_recovers_with_backoff(self, monitored_engine):
        timeline, poller = self._poller(
            monitored_engine, rate=0.5, rng=_ScriptedRng([0.0, 1.0]), retry_backoff=0.1
        )
        poller.start()
        timeline.run_until(2.0)
        # First attempt at t=1.0 timed out; the retry fired 0.1 s later and
        # succeeded, so the round's sample lands at t=1.1.
        assert poller.poll_timeouts == 1
        assert poller.poll_omissions == 0
        assert poller.samples[0].time == pytest.approx(1.1)

    def test_backoff_doubles_per_retry(self, monitored_engine):
        timeline, poller = self._poller(
            monitored_engine,
            rate=0.5,
            rng=_ScriptedRng([0.0, 0.0, 1.0]),
            max_retries=2,
            retry_backoff=0.1,
        )
        poller.start()
        timeline.run_until(2.0)
        # Retries at +0.1 and then +0.2: the sample lands at t=1.3.
        assert poller.poll_timeouts == 2
        assert poller.samples[0].time == pytest.approx(1.3)

    def test_omission_extends_the_next_sample_interval(self, monitored_engine):
        timeline, poller = self._poller(
            monitored_engine,
            rate=0.5,
            rng=_ScriptedRng([0.0, 0.0, 0.0, 1.0]),
            max_retries=2,
            retry_backoff=0.1,
        )
        poller.start()
        timeline.run_until(3.0)
        # Round one (all three attempts timed out) produced no sample; the
        # baseline survived, so round two's sample covers the whole gap.
        assert poller.poll_omissions == 1
        assert poller.poll_timeouts == 3
        assert len(poller.samples) == 1
        assert poller.samples[0].interval == pytest.approx(poller.samples[0].time)

    def test_all_rounds_omitted_produces_no_samples(self, monitored_engine):
        timeline, poller = self._poller(
            monitored_engine, rate=1.0, rng=random.Random(0), max_retries=1
        )
        poller.start()
        timeline.run_until(4.0)
        assert poller.samples == []
        assert poller.poll_omissions >= 2
        assert poller.poll_timeouts == 2 * poller.poll_omissions


class TestAlarmStaleness:
    def _alarm(self, monitored_engine, horizon):
        topology, _, _ = monitored_engine
        collector = LoadCollector(topology, alpha=1.0)
        return collector, UtilizationAlarm(
            collector, raise_threshold=0.5, staleness_horizon=horizon
        )

    def _hot_sample(self, topology, time, interval):
        link = topology.links[0]
        return PollSample(
            time=time, interval=interval, rates={link.key: link.capacity}
        )

    def test_stale_sample_is_suppressed(self, monitored_engine):
        topology, _, _ = monitored_engine
        collector, alarm = self._alarm(monitored_engine, horizon=2.0)
        sample = self._hot_sample(topology, time=10.0, interval=5.0)
        collector.ingest(sample)
        assert alarm.check(sample) is None
        assert alarm.suppressed_stale == 1
        assert alarm.events == []

    def test_fresh_sample_still_fires(self, monitored_engine):
        topology, _, _ = monitored_engine
        collector, alarm = self._alarm(monitored_engine, horizon=2.0)
        sample = self._hot_sample(topology, time=10.0, interval=1.0)
        collector.ingest(sample)
        assert alarm.check(sample) is not None
        assert alarm.suppressed_stale == 0

    def test_no_horizon_never_suppresses(self, monitored_engine):
        topology, _, _ = monitored_engine
        collector, alarm = self._alarm(monitored_engine, horizon=None)
        sample = self._hot_sample(topology, time=10.0, interval=100.0)
        collector.ingest(sample)
        assert alarm.check(sample) is not None

    def test_negative_horizon_rejected(self, monitored_engine):
        with pytest.raises(ValidationError):
            self._alarm(monitored_engine, horizon=-1.0)
