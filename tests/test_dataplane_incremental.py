"""Differential property tests for the incremental flow-level data plane.

Mirror of ``tests/test_igp_rib_incremental.py`` one layer down the stack:
after an arbitrary sequence of flow arrivals (single and batched),
departures and mid-stream FIB swaps (weight changes, lie injections and
withdrawals), :class:`~repro.dataplane.engine.DataPlaneEngine` — flows as
one-session classes of the class engine, with its path cache and
warm-start max-min repair — must be indistinguishable from the
self-contained per-flow engine of ``tests/oracles.py``: flow paths,
allocated rates, instantaneous link rates, cumulative byte counters and
periodic link samples all bit-identical.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataplane.engine import DataPlaneEngine
from repro.dataplane.flows import FlowSpec
from repro.igp.lsa import FakeNodeLsa
from repro.igp.network import compute_static_fibs
from repro.igp.rib_cache import RibCache
from repro.igp.topology import Topology
from repro.topologies.demo import BLUE_PREFIX, build_demo_topology, demo_lies
from repro.topologies.random import random_topology
from repro.util.prefixes import Prefix
from repro.util.timeline import Timeline
from repro.util.units import mbps

from oracles import FromScratchDataPlaneEngine


def build_pod_topology(pods, capacity=16e6):
    """``pods`` disjoint server->middle->client chains, one prefix per pod.

    The pods are disjoint connected components of the flow-link
    hypergraph, so the warm-start allocator can repair one region's
    arrivals without touching the rest.
    """
    topology = Topology(name=f"pods-{pods}")
    for pod in range(pods):
        names = [f"S{pod}", f"M{pod}", f"C{pod}"]
        topology.add_routers(names)
        topology.add_link(names[0], names[1], weight=1, capacity=capacity)
        topology.add_link(names[1], names[2], weight=1, capacity=capacity)
        topology.attach_prefix(names[2], Prefix.parse(f"10.{pod % 250}.{pod // 250}.0/24"))
    return topology


def pod_prefix(topology, pod):
    """The viewer prefix of one pod of :func:`build_pod_topology`."""
    return topology.attachments_of(f"C{pod}")[0].prefix


class DualEngineDriver:
    """Drives an incremental engine and a from-scratch oracle in lockstep.

    Both engines see the same topology, the same FIB store and the same
    event sequence; their timelines advance to the same instants.  Flow ids
    are allocated in the same order on both sides, so the deterministic ECMP
    hash walks the same paths — any divergence is a caching bug.
    """

    def __init__(self, seed, topology=None):
        self.rng = random.Random(seed)
        self.topology = (
            topology
            if topology is not None
            else random_topology(8, edge_probability=0.3, seed=seed)
        )
        self.lies = {}
        self.lie_counter = 0
        self.rib_cache = RibCache()
        self.fibs = compute_static_fibs(self.topology, rib_cache=self.rib_cache)
        self.timeline_inc = Timeline()
        self.timeline_ref = Timeline()
        self.incremental = DataPlaneEngine(
            self.topology, lambda: self.fibs, self.timeline_inc
        )
        self.reference = FromScratchDataPlaneEngine(
            self.topology, lambda: self.fibs, self.timeline_ref
        )
        self.incremental.start()
        self.reference.start()
        self.active = []
        self.steps_applied = 0

    @property
    def engines(self):
        return (self.incremental, self.reference)

    # -------------------------------------------------------------- #
    # Mutations
    # -------------------------------------------------------------- #
    def _random_demand(self):
        # Deliberately non-round demands so bit-identity is meaningful.
        return self.rng.uniform(0.3, 4.0) * 1e6

    def apply(self, action):
        rng = self.rng
        if action == "arrive":
            prefixes = self.topology.prefixes
            if not prefixes:
                return False
            ingress = rng.choice(self.topology.routers)
            prefix = rng.choice(prefixes)
            demand = self._random_demand()
            for engine in self.engines:
                flow = engine.add_flow(ingress, prefix, demand, label="diff")
            self.active.append(flow.flow_id)
        elif action == "arrive_batch":
            prefixes = self.topology.prefixes
            if not prefixes:
                return False
            specs = [
                FlowSpec(
                    ingress=rng.choice(self.topology.routers),
                    prefix=rng.choice(prefixes),
                    demand=self._random_demand(),
                )
                for _ in range(rng.randint(2, 6))
            ]
            for engine in self.engines:
                flows = engine.add_flows(specs)
            self.active.extend(flow.flow_id for flow in flows)
        elif action == "depart":
            if not self.active:
                return False
            flow_id = self.active.pop(rng.randrange(len(self.active)))
            for engine in self.engines:
                engine.remove_flow(flow_id)
        elif action == "fib_swap":
            kind = rng.choice(("weight", "inject", "withdraw"))
            if kind == "weight":
                links = self.topology.undirected_links
                source, target = links[rng.randrange(len(links))]
                self.topology.set_weight(
                    source, target, rng.choice([1, 2, 3, 5, round(rng.random() * 4 + 0.5, 3)])
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
            target = self.timeline_inc.now + delta
            self.timeline_inc.run_until(target)
            self.timeline_ref.run_until(target)
        else:  # pragma: no cover - defensive
            raise ValueError(action)
        self.steps_applied += 1
        return True

    # -------------------------------------------------------------- #
    # The differential oracle
    # -------------------------------------------------------------- #
    def check_equivalent(self, context=""):
        inc, ref = self.incremental, self.reference
        assert self.timeline_inc.now == self.timeline_ref.now, context
        assert len(inc.flows) == len(ref.flows), context
        for flow_id in self.active:
            assert inc.flow_path(flow_id) == ref.flow_path(flow_id), (
                f"{context} flow={flow_id} path"
            )
            assert inc.flow_rate(flow_id) == ref.flow_rate(flow_id), (
                f"{context} flow={flow_id} rate"
            )
            assert inc.flow_transmitted_bytes(flow_id) == ref.flow_transmitted_bytes(
                flow_id
            ), f"{context} flow={flow_id} bytes"
        for link in self.topology.links:
            key = (link.source, link.target)
            assert inc.link_rate(*key) == ref.link_rate(*key), f"{context} link={key} rate"
        assert inc.all_link_counters() == ref.all_link_counters(), f"{context} counters"
        assert len(inc.samples) == len(ref.samples), context
        for mine, want in zip(inc.samples, ref.samples):
            assert mine.time == want.time, context
            assert mine.interval == want.interval, context
            assert mine.rates == want.rates, f"{context} sample@{mine.time}"
        # The oracle re-routes everything: any reuse would make it a second
        # incremental engine.
        assert ref.counters.classes_reused == 0, context


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
        driver = DualEngineDriver(seed)
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
        """The exact Fig. 2 state change: the paper's lies land mid-stream."""
        driver = DualEngineDriver(seed=0, topology=build_demo_topology())
        for index in range(20):
            demand = mbps(1) * (1 + 0.013 * index)
            for engine in driver.engines:
                flow = engine.add_flow("B", BLUE_PREFIX, demand)
            driver.active.append(flow.flow_id)
            driver.steps_applied += 1
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
        assert driver.incremental.link_rate("B", "R3") > 0.0

    def test_counters_reconcile_with_events(self):
        driver = DualEngineDriver(seed=42)
        steps = 0
        while steps < 20:
            if driver.apply(driver.rng.choice(ACTIONS)):
                steps += 1
                driver.check_equivalent()
        counters = driver.incremental.counters
        # Every event split the active flows into re-walked + reused.
        assert counters.classes_rewalked > 0
        assert counters.classes_reused > 0
        assert counters.alloc_events == counters.alloc_warm_starts + counters.alloc_full
        # The reference engine never reuses anything: every event is a full
        # reroute + full allocation (no-op routing changes skip the
        # allocator on the incremental side only).
        reference = driver.reference.counters
        assert reference.classes_reused == 0
        assert reference.alloc_warm_starts == 0
        assert reference.alloc_full >= counters.alloc_events
        assert reference.classes_rewalked >= counters.classes_rewalked


class TestDifferentialHypothesis:
    """Hypothesis-driven event sequences on a smaller topology."""

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        actions=st.lists(st.sampled_from(ACTIONS), min_size=1, max_size=10),
    )
    def test_any_event_sequence_matches_from_scratch(self, seed, actions):
        driver = DualEngineDriver(seed)
        for index, action in enumerate(actions):
            if driver.apply(action):
                driver.check_equivalent(
                    context=f"seed={seed} step={index} action={action}"
                )


class TestBatchArrivals:
    """One batched arrival wave == the same arrivals added one by one."""

    def test_batch_equals_sequential(self):
        topology = build_demo_topology()
        fibs = compute_static_fibs(topology)
        specs = [
            FlowSpec(ingress="B", prefix=BLUE_PREFIX, demand=mbps(1) * (1 + 0.01 * i))
            for i in range(12)
        ]
        batched = DataPlaneEngine(topology, lambda: fibs, Timeline())
        sequential = DataPlaneEngine(topology, lambda: fibs, Timeline())
        flows = batched.add_flows(specs)
        for spec in specs:
            sequential.add_flow(spec.ingress, spec.prefix, spec.demand)
        for flow in flows:
            assert batched.flow_rate(flow.flow_id) == sequential.flow_rate(flow.flow_id)
            assert batched.flow_path(flow.flow_id) == sequential.flow_path(flow.flow_id)
        for link in topology.links:
            assert batched.link_rate(link.source, link.target) == sequential.link_rate(
                link.source, link.target
            )
        # The batch paid for one allocation pass, the loop for twelve.
        assert batched.counters.alloc_events == 1
        assert sequential.counters.alloc_events == len(specs)

    def test_empty_batch_is_a_noop(self):
        topology = build_demo_topology()
        fibs = compute_static_fibs(topology)
        engine = DataPlaneEngine(topology, lambda: fibs, Timeline())
        assert engine.add_flows([]) == []
        assert engine.counters.alloc_events == 0

    def test_invalid_batch_is_rejected_atomically(self):
        """A bad spec mid-batch must not leave earlier flows half-created
        (they would never be routed: arrivals are only treated once)."""
        topology = build_demo_topology()
        fibs = compute_static_fibs(topology)
        engine = DataPlaneEngine(topology, lambda: fibs, Timeline())
        good = FlowSpec(ingress="B", prefix=BLUE_PREFIX, demand=mbps(1))
        for bad in (
            FlowSpec(ingress="ghost", prefix=BLUE_PREFIX, demand=mbps(1)),
            FlowSpec(ingress="B", prefix=BLUE_PREFIX, demand=0.0),
        ):
            with pytest.raises(Exception):
                engine.add_flows([good, bad])
        assert len(engine.flows) == 0


class TestCacheBehaviour:
    """Staleness, all-dirty repairs, no-op events and component tracking."""

    def build(self, pods=4):
        topology = build_pod_topology(pods=pods)
        fibs = compute_static_fibs(topology)
        engine = DataPlaneEngine(topology, lambda: fibs, Timeline())
        return topology, engine

    def test_noop_routing_change_reuses_every_path(self):
        topology, engine = self.build()
        for pod in range(4):
            engine.add_flow(f"S{pod}", pod_prefix(topology, pod), mbps(2))
        rewalked_before = engine.counters.classes_rewalked
        reused_before = engine.counters.classes_reused
        alloc_before = engine.counters.alloc_events
        engine.notify_routing_change()  # FIBs identical: nothing is dirty
        assert engine.counters.classes_rewalked == rewalked_before
        assert engine.counters.classes_reused == reused_before + 4
        assert engine.counters.alloc_events == alloc_before

    def test_arrival_warm_starts_only_its_component(self):
        topology, engine = self.build()
        rates = {}
        for pod in range(4):
            flow = engine.add_flow(
                f"S{pod}", pod_prefix(topology, pod), mbps(20)
            )
            rates[pod] = (flow.flow_id, engine.flow_rate(flow.flow_id))
        assert engine.counters.alloc_full == 1  # the cold start only
        warm_before = engine.counters.alloc_warm_starts
        # A second flow in pod 0 halves pod 0's share, touches nobody else.
        engine.add_flow("S0", pod_prefix(topology, 0), mbps(20))
        assert engine.counters.alloc_warm_starts == warm_before + 1
        flow_id, old_rate = rates[0]
        assert engine.flow_rate(flow_id) == pytest.approx(mbps(8))
        assert engine.flow_rate(flow_id) != old_rate
        for pod in range(1, 4):
            flow_id, old_rate = rates[pod]
            assert engine.flow_rate(flow_id) == old_rate

    def test_event_dirtying_every_flow_is_a_warm_repair(self):
        """An arrival on the bottleneck every flow shares dirties 100 % of
        the flows; the repair is still warm and bitwise equal to the
        oracle's from-scratch ``max_min_fair_allocation``."""
        driver = DualEngineDriver(seed=3, topology=build_pod_topology(pods=2))
        engine = driver.incremental
        prefix = pod_prefix(driver.topology, 0)
        for index in range(5):
            flows = [each.add_flow("S0", prefix, mbps(2 + 3 * index)) for each in driver.engines]
            driver.active.append(flows[0].flow_id)
        assert engine.counters.alloc_full == 1  # the cold start only
        warm_before = engine.counters.alloc_warm_starts
        flows = [each.add_flow("S0", prefix, mbps(7)) for each in driver.engines]
        driver.active.append(flows[0].flow_id)
        assert engine.counters.alloc_warm_starts == warm_before + 1
        assert engine.counters.alloc_full == 1
        driver.check_equivalent("every flow dirty")

    def test_fib_swap_invalidates_only_crossing_flows(self):
        """A FIB entry change re-routes the flows through it, nobody else."""
        driver = DualEngineDriver(seed=7, topology=build_pod_topology(pods=3))
        engine = driver.incremental
        for pod in range(3):
            prefix = pod_prefix(driver.topology, pod)
            for each in driver.engines:
                each.add_flow(f"S{pod}", prefix, mbps(2))
            driver.active.append(pod)
        rewalked_before = engine.counters.classes_rewalked
        # Twiddle pod 1's internal weight: only pod 1's FIB entries change.
        driver.topology.set_weight("S1", "M1", 3)
        driver.fibs = compute_static_fibs(
            driver.topology, rib_cache=driver.rib_cache
        )
        for e in driver.engines:
            e.notify_routing_change()
        assert engine.counters.classes_rewalked == rewalked_before + 1
        driver.check_equivalent("after pod-1 weight change")

    def test_noop_change_and_departure_rewalk_nothing(self):
        topology, engine = self.build()
        engine.add_flow("S0", pod_prefix(topology, 0), mbps(2))
        engine.add_flow("S1", pod_prefix(topology, 1), mbps(2))
        rewalked = engine.counters.classes_rewalked
        engine.notify_routing_change()
        engine.remove_flow(0)
        assert engine.counters.classes_rewalked == rewalked
        assert engine.flow_path(0) is None
        assert engine.flow_rate(0) == 0.0
        assert engine.flow_path(1).delivered

    def test_flash_crowd_wave_rewalks_only_the_arrivals(self):
        """An arrival wave round-robin over the pods, then departures of the
        earliest viewers: each arrival re-routes itself only and every event
        warm-starts one component."""
        pods, flows, churn = 8, 120, 30
        topology, engine = self.build(pods=pods)
        for index in range(flows):
            pod = index % pods
            engine.add_flow(f"S{pod}", pod_prefix(topology, pod), 1e6 + 1000.0 * index)
        for flow_id in range(churn):
            engine.remove_flow(flow_id)
        engine.notify_routing_change()
        counters = engine.counters
        assert counters.classes_rewalked == flows
        assert counters.classes_reused > 10 * counters.classes_rewalked
        assert counters.alloc_full == 1  # the cold start only
        assert counters.alloc_warm_starts == flows + churn - 1

    def test_disabled_cache_counts_only_full_allocations(self):
        topology = build_pod_topology(pods=2)
        fibs = compute_static_fibs(topology)
        engine = FromScratchDataPlaneEngine(topology, lambda: fibs, Timeline())
        for _ in range(3):
            engine.add_flow("S0", pod_prefix(topology, 0), mbps(2))
        engine.notify_routing_change()
        counters = engine.counters
        assert counters.alloc_full == 4
        assert counters.alloc_warm_starts == 0
        assert counters.classes_reused == 0
        assert counters.classes_rewalked == 1 + 2 + 3 + 3
