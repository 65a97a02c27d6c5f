"""Differential property tests for the aggregate-demand data plane.

Mirror of ``tests/test_dataplane_incremental.py`` one aggregation level up:
after an arbitrary sequence of class arrivals (single and batched cohorts),
class departures and mid-stream FIB swaps (weight changes, lie injections
and withdrawals), the
:class:`~repro.dataplane.engine.AggregateDemandEngine` must be
indistinguishable — bit for bit — from the per-flow
:class:`~repro.dataplane.engine.DataPlaneEngine` oracle fed one count-1
flow per session: per-session rates, per-session byte counters, link rates,
cumulative link byte counters and periodic link samples all identical.

Three engines run in lockstep: the incremental aggregate engine, the
from-scratch aggregate engine of ``tests/oracles.py`` and the per-flow
oracle.  Session ids align by construction — :class:`ClassSet` hands out
contiguous id blocks from the same monotonic counter the per-flow
:class:`FlowSet` uses — so the deterministic ECMP hash walks identical
paths on every side.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataplane.demand import ClassSpec
from repro.dataplane.engine import AggregateDemandEngine, DataPlaneEngine
from repro.dataplane.flows import FlowSpec
from repro.igp.lsa import FakeNodeLsa
from repro.igp.network import compute_static_fibs
from repro.igp.rib_cache import RibCache
from repro.topologies.demo import BLUE_PREFIX, build_demo_topology, demo_lies
from repro.topologies.random import random_topology
from repro.util.errors import SimulationError, ValidationError
from repro.util.timeline import Timeline
from repro.util.units import mbps

from oracles import FromScratchAggregateEngine


class TriEngineDriver:
    """Drives both aggregate engines and the per-flow oracle in lockstep.

    All three engines see the same topology, the same FIB store and the
    same event sequence; their timelines advance to the same instants.  A
    class of ``count`` sessions on the aggregate side becomes ``count``
    identical count-1 flows on the oracle side, added in session-id order,
    so any divergence is an aggregation bug.
    """

    def __init__(self, seed, topology=None, max_count=12):
        self.rng = random.Random(seed)
        self.topology = (
            topology
            if topology is not None
            else random_topology(8, edge_probability=0.3, seed=seed)
        )
        self.max_count = max_count
        self.lies = {}
        self.lie_counter = 0
        self.rib_cache = RibCache()
        self.fibs = compute_static_fibs(self.topology, rib_cache=self.rib_cache)
        self.timelines = (Timeline(), Timeline(), Timeline())
        self.aggregate = AggregateDemandEngine(
            self.topology, lambda: self.fibs, self.timelines[0]
        )
        self.full = FromScratchAggregateEngine(
            self.topology, lambda: self.fibs, self.timelines[1]
        )
        self.oracle = DataPlaneEngine(
            self.topology, lambda: self.fibs, self.timelines[2]
        )
        for engine in self.engines:
            engine.start()
        self.active = []  # class ids, arrival order
        self.sessions = {}  # class id -> range of session ids
        self.steps_applied = 0

    @property
    def engines(self):
        return (self.aggregate, self.full, self.oracle)

    @property
    def aggregates(self):
        return (self.aggregate, self.full)

    # -------------------------------------------------------------- #
    # Mutations
    # -------------------------------------------------------------- #
    def _random_rate(self):
        # Deliberately non-round per-session rates so bit-identity means
        # something: any re-association of the arithmetic would show.
        return self.rng.uniform(0.3, 4.0) * 1e6

    def _random_count(self):
        return self.rng.randint(1, self.max_count)

    def _add_specs(self, specs):
        classes = []
        for engine in self.aggregates:
            classes = engine.add_classes(specs)
        self.oracle.add_flows(
            [
                FlowSpec(ingress=spec.ingress, prefix=spec.prefix, demand=spec.rate)
                for spec in specs
                for _ in range(spec.count)
            ]
        )
        for demand_class in classes:
            self.active.append(demand_class.class_id)
            self.sessions[demand_class.class_id] = demand_class.session_ids

    def apply(self, action):
        rng = self.rng
        if action == "arrive":
            prefixes = self.topology.prefixes
            if not prefixes:
                return False
            self._add_specs(
                [
                    ClassSpec(
                        ingress=rng.choice(self.topology.routers),
                        prefix=rng.choice(prefixes),
                        rate=self._random_rate(),
                        count=self._random_count(),
                        label="diff",
                    )
                ]
            )
        elif action == "arrive_batch":
            prefixes = self.topology.prefixes
            if not prefixes:
                return False
            self._add_specs(
                [
                    ClassSpec(
                        ingress=rng.choice(self.topology.routers),
                        prefix=rng.choice(prefixes),
                        rate=self._random_rate(),
                        count=self._random_count(),
                    )
                    for _ in range(rng.randint(2, 4))
                ]
            )
        elif action == "depart":
            if not self.active:
                return False
            class_id = self.active.pop(rng.randrange(len(self.active)))
            for engine in self.aggregates:
                engine.remove_class(class_id)
            for session_id in self.sessions.pop(class_id):
                self.oracle.remove_flow(session_id)
        elif action == "fib_swap":
            kind = rng.choice(("weight", "inject", "withdraw"))
            if kind == "weight":
                links = self.topology.undirected_links
                source, target = links[rng.randrange(len(links))]
                self.topology.set_weight(
                    source,
                    target,
                    rng.choice([1, 2, 3, 5, round(rng.random() * 4 + 0.5, 3)]),
                )
            elif kind == "inject":
                anchor = rng.choice(self.topology.routers)
                neighbors = self.topology.neighbors(anchor)
                prefixes = self.topology.prefixes
                if not neighbors or not prefixes:
                    return False
                self.lie_counter += 1
                name = f"fake-{self.lie_counter}"
                self.lies[name] = FakeNodeLsa(
                    origin="controller",
                    fake_node=name,
                    anchor=anchor,
                    link_cost=round(rng.random() * 2 + 0.1, 4),
                    prefix=rng.choice(prefixes),
                    prefix_cost=round(rng.random(), 4),
                    forwarding_address=rng.choice(neighbors),
                )
            else:
                if not self.lies:
                    return False
                self.lies.pop(rng.choice(sorted(self.lies)))
            self.fibs = compute_static_fibs(
                self.topology, self.lies.values(), rib_cache=self.rib_cache
            )
            for engine in self.engines:
                engine.notify_routing_change()
        elif action == "noop_routing":
            for engine in self.engines:
                engine.notify_routing_change()
        elif action == "advance":
            delta = rng.choice([0.5, 1.0, 2.5])
            target = self.timelines[0].now + delta
            for timeline in self.timelines:
                timeline.run_until(target)
        else:  # pragma: no cover - defensive
            raise ValueError(action)
        self.steps_applied += 1
        return True

    # -------------------------------------------------------------- #
    # The differential oracle
    # -------------------------------------------------------------- #
    def check_equivalent(self, context=""):
        agg, full, oracle = self.engines
        assert (
            self.timelines[0].now == self.timelines[1].now == self.timelines[2].now
        ), context
        assert len(oracle.flows) == agg.classes.total_sessions(), context
        for class_id in self.active:
            # The two aggregate engines must agree on the path-group level...
            assert agg.class_session_rates(class_id) == full.class_session_rates(
                class_id
            ), f"{context} class={class_id} session rates"
            assert agg.class_transmitted_bytes(class_id) == full.class_transmitted_bytes(
                class_id
            ), f"{context} class={class_id} bytes"
            # ...and the cohort total must reconcile with its per-session view.
            assert agg.class_transmitted_bytes(class_id) == pytest.approx(
                math.fsum(
                    agg.session_transmitted_bytes(session_id)
                    for session_id in self.sessions[class_id]
                )
            ), f"{context} class={class_id} bytes vs sessions"
            # Every session must be bitwise equal to its per-flow twin.
            for session_id in self.sessions[class_id]:
                assert agg.session_rate(session_id) == oracle.flow_rate(session_id), (
                    f"{context} session={session_id} rate"
                )
                assert agg.session_transmitted_bytes(
                    session_id
                ) == oracle.flow_transmitted_bytes(session_id), (
                    f"{context} session={session_id} bytes"
                )
        for link in self.topology.links:
            key = (link.source, link.target)
            rate = agg.link_rate(*key)
            assert rate == full.link_rate(*key), f"{context} link={key} agg-vs-full"
            assert rate == oracle.link_rate(*key), f"{context} link={key} agg-vs-oracle"
        counters = agg.all_link_counters()
        assert counters == full.all_link_counters(), f"{context} counters agg-vs-full"
        assert counters == oracle.all_link_counters(), f"{context} counters agg-vs-oracle"
        assert len(agg.samples) == len(full.samples) == len(oracle.samples), context
        for mine, twin, want in zip(agg.samples, full.samples, oracle.samples):
            assert mine.time == twin.time == want.time, context
            assert mine.interval == twin.interval == want.interval, context
            assert mine.rates == twin.rates, f"{context} sample@{mine.time} agg-vs-full"
            assert mine.rates == want.rates, f"{context} sample@{mine.time} agg-vs-oracle"
        # The from-scratch engine re-walks everything: any reuse would make
        # it a second incremental engine.
        assert full.counters.flows_reused == full.counters.classes_reused == 0, context


ACTIONS = (
    "arrive",
    "arrive",  # arrivals weighted up: flash crowds are arrival-heavy
    "arrive_batch",
    "depart",
    "fib_swap",
    "noop_routing",
    "advance",
)


class TestDifferentialRandomized:
    """Seeded randomized event sequences; jointly >= 250 steps."""

    @pytest.mark.parametrize("seed", range(10))
    def test_random_event_sequence(self, seed):
        driver = TriEngineDriver(seed)
        driver.check_equivalent(context=f"seed={seed} initial")
        steps = 0
        while steps < 25:
            action = driver.rng.choice(ACTIONS)
            if not driver.apply(action):
                continue
            steps += 1
            driver.check_equivalent(context=f"seed={seed} step={steps} action={action}")
        assert driver.steps_applied >= 25

    def test_demo_scenario_with_lie_swap(self):
        """The exact Fig. 2 state change, cohort-sized: the paper's lies
        land mid-stream and repartition the populations at ECMP branches."""
        driver = TriEngineDriver(seed=0, topology=build_demo_topology())
        driver._add_specs(
            [
                ClassSpec(
                    ingress="B",
                    prefix=BLUE_PREFIX,
                    rate=mbps(1) * (1 + 0.013 * index),
                    count=count,
                )
                for index, count in enumerate((1, 30, 31))
            ]
        )
        driver.apply("advance")
        driver.check_equivalent("before lies")
        driver.fibs = compute_static_fibs(
            driver.topology, demo_lies(), rib_cache=driver.rib_cache
        )
        for engine in driver.engines:
            engine.notify_routing_change()
        driver.check_equivalent("after lies")
        driver.apply("advance")
        driver.check_equivalent("after lies + time")
        assert driver.aggregate.link_rate("B", "R3") > 0.0
        # The lies split the blue prefix at A: the populations were
        # partitioned by per-session hashing at the branch.
        assert driver.aggregate.counters.class_splits > 0

    def test_counters_reconcile_with_events(self):
        driver = TriEngineDriver(seed=42)
        steps = 0
        while steps < 20:
            if driver.apply(driver.rng.choice(ACTIONS)):
                steps += 1
                driver.check_equivalent()
        counters = driver.aggregate.counters
        # Every event split the active classes into rewalked + reused.
        assert counters.classes_rewalked > 0
        assert counters.classes_reused > 0
        assert counters.alloc_events == counters.alloc_warm_starts + counters.alloc_full
        # The from-scratch aggregate engine never reuses a cached walk.
        reference = driver.full.counters
        assert reference.classes_reused == 0
        assert reference.alloc_warm_starts == 0
        assert reference.alloc_full >= counters.alloc_events


class TestDifferentialHypothesis:
    """Hypothesis-driven event sequences against the per-flow oracle."""

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        actions=st.lists(st.sampled_from(ACTIONS), min_size=1, max_size=8),
    )
    def test_any_event_sequence_matches_the_per_flow_oracle(self, seed, actions):
        driver = TriEngineDriver(seed, max_count=6)
        for index, action in enumerate(actions):
            if driver.apply(action):
                driver.check_equivalent(
                    context=f"seed={seed} step={index} action={action}"
                )


class TestCountMultiplicity:
    """One count-N class == N count-1 classes == N per-flow sessions."""

    def build(self, topology):
        fibs = compute_static_fibs(topology)
        return fibs

    def test_count_n_class_equals_n_count_1_classes(self):
        topology = build_demo_topology()
        fibs = compute_static_fibs(topology)
        bundled = AggregateDemandEngine(topology, lambda: fibs, Timeline())
        unbundled = AggregateDemandEngine(topology, lambda: fibs, Timeline())
        rate = mbps(1) * 1.0137
        count = 40
        bundled.add_class("B", BLUE_PREFIX, rate=rate, count=count)
        unbundled.add_classes(
            [
                ClassSpec(ingress="B", prefix=BLUE_PREFIX, rate=rate, count=1)
                for _ in range(count)
            ]
        )
        for timeline in (bundled.timeline, unbundled.timeline):
            timeline.run_until(3.0)
        # Session ids align (0..count-1 on both sides): every per-session
        # quantity and every link-level total must be bitwise equal.
        for session_id in range(count):
            assert bundled.session_rate(session_id) == unbundled.session_rate(session_id)
            assert bundled.session_transmitted_bytes(
                session_id
            ) == unbundled.session_transmitted_bytes(session_id)
        for link in topology.links:
            key = (link.source, link.target)
            assert bundled.link_rate(*key) == unbundled.link_rate(*key)
        assert bundled.all_link_counters() == unbundled.all_link_counters()

    def test_count_1_classes_match_flows_exactly(self):
        """The degenerate count=1 leg: a class per session is just a flow."""
        driver = TriEngineDriver(seed=3, max_count=1)
        steps = 0
        while steps < 15:
            if driver.apply(driver.rng.choice(ACTIONS)):
                steps += 1
                driver.check_equivalent(context=f"count1 step={steps}")


class TestClassLifecycle:
    """Validation, events and cache behaviour of the aggregate engine."""

    def build(self):
        topology = build_demo_topology()
        fibs = compute_static_fibs(topology)
        engine = AggregateDemandEngine(topology, lambda: fibs, Timeline())
        return topology, engine

    def test_invalid_specs_rejected_atomically(self):
        _, engine = self.build()
        good = ClassSpec(ingress="B", prefix=BLUE_PREFIX, rate=mbps(1), count=3)
        for bad_kwargs in (
            dict(ingress="ghost", prefix=BLUE_PREFIX, rate=mbps(1), count=1),
            dict(ingress="B", prefix=BLUE_PREFIX, rate=mbps(1), count=0),
        ):
            with pytest.raises((SimulationError, ValidationError)):
                engine.add_classes([good, ClassSpec(**bad_kwargs)])
        with pytest.raises((SimulationError, ValidationError)):
            engine.add_class("B", BLUE_PREFIX, rate=0.0, count=1)
        assert len(engine.classes) == 0

    def test_bool_count_rejected(self):
        _, engine = self.build()
        with pytest.raises(SimulationError):
            engine.add_class("B", BLUE_PREFIX, rate=mbps(1), count=True)

    def test_unknown_class_rejected(self):
        _, engine = self.build()
        with pytest.raises(Exception):
            engine.remove_class(99)

    def test_noop_routing_change_reuses_every_walk(self):
        _, engine = self.build()
        engine.add_class("B", BLUE_PREFIX, rate=mbps(1), count=10)
        rewalked_before = engine.counters.classes_rewalked
        alloc_before = engine.counters.alloc_events
        engine.notify_routing_change()  # FIBs identical: nothing is dirty
        assert engine.counters.classes_rewalked == rewalked_before
        assert engine.counters.classes_reused >= 1
        assert engine.counters.alloc_events == alloc_before
        for demand_class in engine.classes:
            assert engine.cached_class_valid(demand_class.class_id)

    def test_session_rate_of_unknown_session_raises(self):
        _, engine = self.build()
        engine.add_class("B", BLUE_PREFIX, rate=mbps(1), count=2)
        with pytest.raises(Exception):
            engine.session_rate(17)
