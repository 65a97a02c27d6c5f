"""The static Fig. 1 experiment.

Fig. 1b of the paper shows the relative link loads when both sources push
100 units of traffic toward the blue prefix over the unmodified IGP: the
shared segment B–R2–C carries 200 units and overloads.  Fig. 1d shows the
loads after the controller injects the Fig. 1c lies: router A splits 1/3–2/3
and router B 1/2–1/2, bringing every link down to roughly 66 units.

:func:`run_fig1` reproduces both states with the exact lie set of Fig. 1c
(:func:`repro.topologies.demo.demo_lies`) or, optionally, with lies derived
by the controller's own optimisation pipeline — the two coincide, which is
itself a useful check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.core.controller import FibbingController
from repro.core.loadbalancer import OnDemandLoadBalancer  # noqa: F401  (documented entry point)
from repro.core.merger import LieMerger
from repro.core.optimizer import MinMaxLoadOptimizer
from repro.core.requirements import DestinationRequirement, RequirementSet
from repro.dataplane.demand import TrafficMatrix
from repro.dataplane.forwarding import route_fractional
from repro.igp.graph import ComputationGraph
from repro.igp.network import compute_static_fibs
from repro.igp.rib import compute_rib, rib_digest
from repro.topologies.demo import DemoScenario, build_demo_scenario, demo_lies

__all__ = ["Fig1Result", "run_fig1", "fig1_rib_digests", "fig1_lie_digests"]

LinkKey = Tuple[str, str]


@dataclass(frozen=True)
class Fig1Result:
    """Relative per-link loads of one Fig. 1 state (baseline or fibbed)."""

    label: str
    link_loads: Dict[LinkKey, float]
    max_load: float
    lie_count: int
    split_at_a: Dict[str, float]
    split_at_b: Dict[str, float]

    def load_of(self, source: str, target: str) -> float:
        """Relative load on the directed link ``source -> target``."""
        return self.link_loads.get((source, target), 0.0)


def run_fig1(
    with_fibbing: bool,
    use_controller_pipeline: bool = False,
    scenario: DemoScenario | None = None,
) -> Fig1Result:
    """Reproduce Fig. 1b (``with_fibbing=False``) or Fig. 1d (``True``).

    With ``use_controller_pipeline=True`` the lies are not the hand-written
    Fig. 1c set but the output of the controller's LP + approximation +
    merger pipeline; the resulting loads are identical.
    """
    if scenario is None:
        scenario = build_demo_scenario()
    topology = scenario.topology
    prefix = scenario.blue_prefix
    demands = TrafficMatrix.from_dict(
        {
            (scenario.server_routers[server], prefix): rate
            for server, rate in scenario.static_demands.items()
        }
    )

    lie_count = 0
    if not with_fibbing:
        fibs = compute_static_fibs(topology)
        label = "fig1b-baseline"
    elif not use_controller_pipeline:
        lies = demo_lies()
        lie_count = len(lies)
        fibs = compute_static_fibs(topology, lies)
        label = "fig1d-paper-lies"
    else:
        controller = FibbingController(topology)
        optimizer = MinMaxLoadOptimizer(topology)
        result = optimizer.optimize(demands, [prefix])
        fractions = result.to_fractions()
        requirement = DestinationRequirement.from_fractions(prefix, fractions[prefix])
        reduced, _ = LieMerger(topology).optimize(RequirementSet([requirement]))
        controller.enforce(reduced)
        lie_count = controller.active_lie_count()
        fibs = controller.static_fibs()
        label = "fig1d-controller-pipeline"

    outcome = route_fractional(fibs, demands)
    loads = {link: load for link, load in outcome.loads}
    split_a = fibs["A"].split_ratios(prefix)
    split_b = fibs["B"].split_ratios(prefix)
    return Fig1Result(
        label=label,
        link_loads=loads,
        max_load=max(loads.values(), default=0.0),
        lie_count=lie_count,
        split_at_a=split_a,
        split_at_b=split_b,
    )


def fig1_lie_digests(
    scenario: DemoScenario | None = None,
    shards: int = 0,
) -> Dict[str, str]:
    """Per-prefix digests of the lies the controller pipeline installs.

    Runs the full LP → approximation → merger → enforcement pipeline on the
    Fig. 1 scenario and digests the installed :class:`FakeNodeLsa` set per
    prefix (names included, so the controller's deterministic naming is
    pinned too).  The golden snapshot requires the plan-cache controller,
    the clear-and-replay oracle of ``tests/oracles.py`` *and* the sharded
    facade (``shards > 0`` builds a
    :class:`~repro.core.shard.ShardedFibbingController`) to land on the
    exact same digests.
    """
    from repro.core.lies import per_prefix_lie_digests

    if scenario is None:
        scenario = build_demo_scenario()
    topology = scenario.topology
    prefix = scenario.blue_prefix
    demands = TrafficMatrix.from_dict(
        {
            (scenario.server_routers[server], prefix): rate
            for server, rate in scenario.static_demands.items()
        }
    )
    if shards > 0:
        from repro.core.shard import ShardedFibbingController

        controller = ShardedFibbingController(topology, shards=shards)
    else:
        controller = FibbingController(topology)
    result = MinMaxLoadOptimizer(topology).optimize(demands, [prefix])
    requirement = DestinationRequirement.from_fractions(
        prefix, result.to_fractions()[prefix]
    )
    reduced, _ = LieMerger(topology).optimize(RequirementSet([requirement]))
    controller.enforce(reduced)
    return per_prefix_lie_digests(controller.active_lies())


def fig1_rib_digests(
    with_fibbing: bool,
    scenario: DemoScenario | None = None,
) -> Dict[str, str]:
    """Per-router RIB digests of a static Fig. 1 state.

    The golden regression snapshots pin these so that route-level changes
    (contributions, costs, fake-node flags) fail loudly even when the link
    loads happen to agree — two different RIBs can induce the same loads.
    """
    if scenario is None:
        scenario = build_demo_scenario()
    lies = demo_lies() if with_fibbing else []
    graph = ComputationGraph.from_topology(scenario.topology, lies)
    return {
        router: rib_digest(compute_rib(graph, router))
        for router in scenario.topology.routers
    }
