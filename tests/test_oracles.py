"""Checks on the from-scratch oracles of ``tests/oracles.py`` themselves.

The differential suites trust these oracles to define what the product's
incremental paths must produce.  This module pins the two properties that
trust rests on:

* the product exposes no way back to a from-scratch mode — no
  ``incremental`` switch, clear-and-replay threshold or second controller
  shape is left in any signature or module under ``src/repro`` — so the
  oracles are the only from-scratch paths there are;
* each oracle really recomputes from scratch (its reuse counters stay at
  zero on every event) and still lands on the product's exact answer.
"""

import inspect
import pathlib
import re

import pytest

import repro
from repro.core.controller import FibbingController
from repro.core.loadbalancer import LoadBalancerPolicy, OnDemandLoadBalancer
from repro.core.merger import LieMerger
from repro.core.optimizer import MinMaxLoadOptimizer
from repro.core.requirements import DestinationRequirement, RequirementSet
from repro.core.scheduler import ControlLoopScheduler
from repro.dataplane.demand import ClassSpec, TrafficMatrix
from repro.dataplane.engine import (
    AggregateDemandEngine,
    DataPlaneEngine,
    DataPlaneEngineBase,
)
from repro.experiments.fig1 import fig1_lie_digests
from repro.experiments.fig2 import run_demo_timeseries
from repro.experiments.flashcrowd_classes import run_flashcrowd_classes
from repro.dataplane.path_cache import WarmStartAllocator
from repro.experiments.reaction import run_reaction_curves
from repro.igp import spf
from repro.igp.network import compute_static_fibs
from repro.igp.rib_cache import RibCache
from repro.topologies.demo import BLUE_PREFIX, build_demo_scenario, demo_lies
from repro.util.timeline import Timeline
from repro.util.units import mbps

from oracles import (
    ClearAndReplayBalancer,
    ClearAndReplayController,
    FromScratchAggregateEngine,
    FromScratchDataPlaneEngine,
)

SRC = pathlib.Path(repro.__file__).resolve().parent


class TestNoFromScratchModeInTheProduct:
    """The settable values that used to select a from-scratch path, a
    clear-and-replay fallback, a dirty-share fallback threshold, an LP
    solution memo or a sharded controller."""

    @pytest.mark.parametrize(
        "target, parameter",
        [
            (DataPlaneEngineBase.__init__, "incremental"),
            (DataPlaneEngine.__init__, "incremental"),
            (AggregateDemandEngine.__init__, "incremental"),
            (FibbingController.__init__, "incremental"),
            (fig1_lie_digests, "incremental"),
            (run_demo_timeseries, "dataplane_incremental"),
            (run_demo_timeseries, "controller_incremental"),
            (run_flashcrowd_classes, "dataplane_incremental"),
            (FibbingController.__init__, "plan_dirty_threshold"),
            (ControlLoopScheduler.__init__, "shard_stagger"),
            (fig1_lie_digests, "shards"),
            (run_demo_timeseries, "controller_shards"),
            (run_demo_timeseries, "shard_stagger"),
            (run_reaction_curves, "controller_shards"),
            (run_reaction_curves, "shard_stagger"),
            (RibCache.__init__, "dirty_threshold"),
            (WarmStartAllocator.__init__, "dirty_threshold"),
            (DataPlaneEngine.__init__, "alloc_dirty_threshold"),
            (AggregateDemandEngine.__init__, "alloc_dirty_threshold"),
            (MinMaxLoadOptimizer.__init__, "plan_cache"),
            (MinMaxLoadOptimizer.__init__, "background_quantum"),
        ],
        ids=[
            "DataPlaneEngineBase",
            "DataPlaneEngine",
            "AggregateDemandEngine",
            "FibbingController",
            "fig1_lie_digests",
            "run_demo_timeseries-dataplane",
            "run_demo_timeseries-controller",
            "run_flashcrowd_classes",
            "FibbingController-plan_dirty_threshold",
            "ControlLoopScheduler-shard_stagger",
            "fig1_lie_digests-shards",
            "run_demo_timeseries-controller_shards",
            "run_demo_timeseries-shard_stagger",
            "run_reaction_curves-controller_shards",
            "run_reaction_curves-shard_stagger",
            "RibCache-dirty_threshold",
            "WarmStartAllocator-dirty_threshold",
            "DataPlaneEngine-alloc_dirty_threshold",
            "AggregateDemandEngine-alloc_dirty_threshold",
            "MinMaxLoadOptimizer-plan_cache",
            "MinMaxLoadOptimizer-background_quantum",
        ],
    )
    def test_option_is_gone(self, target, parameter):
        assert parameter not in inspect.signature(target).parameters

    def test_spf_has_no_full_threshold(self):
        assert not hasattr(spf, "FULL_THRESHOLD")

    def test_merger_has_no_spf_cache_shim(self):
        assert "spf_cache" not in inspect.signature(LieMerger.__init__).parameters

    def test_no_module_reads_or_sets_an_incremental_switch(self):
        pattern = re.compile(r"incremental\s*[:=]|\.incremental\b|_incremental\s*=")
        offenders = [
            f"{path.relative_to(SRC)}:{number}: {line.strip()}"
            for path in sorted(SRC.rglob("*.py"))
            for number, line in enumerate(path.read_text().splitlines(), start=1)
            if pattern.search(line)
        ]
        assert offenders == []


def _demo_fib_pair():
    scenario = build_demo_scenario()
    topology = scenario.topology
    plain = compute_static_fibs(topology)
    fibbed = compute_static_fibs(topology, demo_lies())
    return topology, plain, fibbed


class TestEngineOracles:
    """Both engine oracles re-route everything and agree with the product."""

    def test_per_flow_oracle_reroutes_every_flow_on_every_event(self):
        topology, plain, fibbed = _demo_fib_pair()
        store = {"fibs": plain}
        product = DataPlaneEngine(topology, lambda: store["fibs"], Timeline())
        oracle = FromScratchDataPlaneEngine(topology, lambda: store["fibs"], Timeline())
        for engine in (product, oracle):
            engine.start()
            for index in range(6):
                engine.add_flow("AB"[index % 2], BLUE_PREFIX, mbps(1.7 + index))
        store["fibs"] = fibbed
        for engine in (product, oracle):
            engine.notify_routing_change()
            engine.notify_routing_change()  # a no-op change: the product reuses

        assert oracle.counters.classes_reused == 0
        # Six single-flow arrivals (1 + 2 + ... + 6) then two six-flow events.
        assert oracle.counters.classes_rewalked == 21 + 2 * 6
        assert product.counters.classes_reused > 0
        for link in topology.links:
            assert product.link_rate(*link.key) == oracle.link_rate(*link.key)
        for flow in oracle.flows:
            assert product.flow_rate(flow.flow_id) == oracle.flow_rate(flow.flow_id)

    def test_aggregate_oracle_rewalks_every_class_on_every_event(self):
        topology, plain, fibbed = _demo_fib_pair()
        store = {"fibs": plain}
        product = AggregateDemandEngine(topology, lambda: store["fibs"], Timeline())
        oracle = FromScratchAggregateEngine(topology, lambda: store["fibs"], Timeline())
        specs = [
            ClassSpec(ingress="A", prefix=BLUE_PREFIX, rate=mbps(1.3), count=40),
            ClassSpec(ingress="B", prefix=BLUE_PREFIX, rate=mbps(2.9), count=25),
        ]
        for engine in (product, oracle):
            engine.start()
            engine.add_classes(specs)
        store["fibs"] = fibbed
        for engine in (product, oracle):
            engine.notify_routing_change()
            engine.notify_routing_change()

        assert oracle.counters.classes_reused == 0
        assert oracle.counters.classes_rewalked == 3 * len(specs)
        assert product.counters.classes_reused > 0
        for link in topology.links:
            assert product.link_rate(*link.key) == oracle.link_rate(*link.key)


def _demo_requirements(topology, scenario):
    demands = TrafficMatrix.from_dict(
        {
            (scenario.server_routers[server], scenario.blue_prefix): rate
            for server, rate in scenario.static_demands.items()
        }
    )
    result = MinMaxLoadOptimizer(topology).optimize(demands, [scenario.blue_prefix])
    requirement = DestinationRequirement.from_fractions(
        scenario.blue_prefix, result.to_fractions()[scenario.blue_prefix]
    )
    reduced, _ = LieMerger(topology).optimize(RequirementSet([requirement]))
    return reduced


class TestControllerOracles:
    """The clear-and-replay controller and balancer never reuse a plan."""

    def test_clear_and_replay_replans_every_wave_and_matches(self):
        scenario = build_demo_scenario()
        topology = scenario.topology
        requirements = _demo_requirements(topology, scenario)
        product = FibbingController(topology)
        oracle = ClearAndReplayController(topology)
        for _ in range(2):  # the second wave is a no-op for the product
            for controller in (product, oracle):
                controller.enforce(requirements)

        counters = oracle.reconciler.counters
        assert counters.plan_cache_hits == 0
        assert counters.merge_cache_hits == 0
        assert product.reconciler.counters.plan_cache_hits > 0
        assert oracle.registry.active_lsas() == product.registry.active_lsas()
        assert oracle.active_lie_count() > 0
        mine, want = product.current_fibs(), oracle.current_fibs()
        assert set(mine) == set(want)
        for router, fib in want.items():
            assert mine[router].prefixes == fib.prefixes
            for prefix in fib.prefixes:
                assert mine[router].lookup(prefix) == fib.lookup(prefix)

    def test_clear_and_replay_balancer_bypasses_the_merge_cache(self):
        topology = build_demo_scenario().topology
        clients = TrafficMatrix()

        class Clients:
            def demand_matrix(self):
                return clients

        policy = LoadBalancerPolicy()
        product = OnDemandLoadBalancer(FibbingController(topology), Clients(), policy=policy)
        oracle = ClearAndReplayBalancer(
            ClearAndReplayController(topology), Clients(), policy=policy
        )
        assert oracle.merger.plan_cache is None
        assert product.merger.plan_cache is not None
