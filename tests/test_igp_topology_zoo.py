"""The event-driven IGP converges to the static oracle on every topology builder.

Most IGP suites drive the paper's seven-router demo.  These run the same
differential checks on the topologies the product builds (the demo, Abilene,
random graphs of ``experiments/optimality`` and ``overhead``, the synthetic
ISPs of ``perf/`` and ``examples/``), unit weights included for equal-cost
ties: boot, every single-link failure and its restore, a weight change, the
min-max optimizer's lies enforced by a live controller, a weight change under
those lies, and clearing them.  The reference is always
``compute_static_fibs`` on a freshly built copy of the topology with the same
edit applied, never the topology object the live network mutates.
"""

from __future__ import annotations

from typing import Callable, Dict, Mapping

import pytest

from repro.core.controller import FibbingController
from repro.core.optimizer import MinMaxLoadOptimizer
from repro.core.requirements import DestinationRequirement, RequirementSet
from repro.experiments.overhead import build_flash_crowd_demands
from repro.igp.fib import Fib
from repro.igp.network import IgpNetwork, compute_static_fibs
from repro.igp.topology import Topology
from repro.topologies.demo import build_demo_topology
from repro.topologies.isp import synthetic_isp
from repro.topologies.random import random_topology
from repro.topologies.zoo import abilene

BUILDERS: Dict[str, Callable[[], Topology]] = {
    "demo": build_demo_topology,
    "abilene": abilene,
    "random-8": lambda: random_topology(8, seed=1),
    "random-12": lambda: random_topology(12, seed=42),
    "random-10-unit": lambda: random_topology(10, seed=2, weight_range=(1, 1)),
    "random-9-dense": lambda: random_topology(9, edge_probability=0.5, seed=3),
    "random-11-sparse": lambda: random_topology(11, edge_probability=0.15, seed=4),
    "isp-4x3": lambda: synthetic_isp(core_size=4, pops=3, prefixes_per_pop=1, seed=0),
    "isp-6x4": lambda: synthetic_isp(core_size=6, pops=4, prefixes_per_pop=2, seed=1),
    "isp-5x5": lambda: synthetic_isp(core_size=5, pops=5, prefixes_per_pop=1, seed=2),
}
NEW_WEIGHT = 7

pytestmark = pytest.mark.parametrize("name", sorted(BUILDERS))


def converged(topology: Topology) -> IgpNetwork:
    network = IgpNetwork(topology)
    network.start()
    network.converge()
    return network


def assert_same_fibs(live: Mapping[str, Fib], expected: Mapping[str, Fib]) -> None:
    assert set(live) == set(expected)
    for router, fib in expected.items():
        assert live[router].prefixes == fib.prefixes, router
        assert not live[router].changed_prefixes(fib), router


def edited(name: str, edit: Callable[[Topology], None]) -> Topology:
    """A fresh build of topology ``name`` with ``edit`` applied."""
    topology = BUILDERS[name]()
    edit(topology)
    return topology


def optimizer_requirements(topology: Topology) -> RequirementSet:
    """The min-max optimizer's requirements for a seeded flash crowd."""
    demands = build_flash_crowd_demands(
        topology, destinations=min(2, len(topology.prefixes)), sources_per_destination=3
    )
    fractions = MinMaxLoadOptimizer(topology).optimize(demands).to_fractions()
    return RequirementSet(
        DestinationRequirement.from_fractions(prefix, per_router)
        for prefix, per_router in fractions.items()
    )


def lied_network(topology: Topology):
    """A converged network whose controller enforces the optimizer's lies."""
    network = converged(topology)
    controller = FibbingController(topology, network=network, attachment=topology.routers[0])
    requirements = optimizer_requirements(topology)
    controller.enforce(requirements)
    network.converge()
    return network, controller, requirements


def test_boot_matches_the_static_oracle(name):
    network = converged(BUILDERS[name]())
    assert network.converged()
    assert_same_fibs(network.fibs(), compute_static_fibs(BUILDERS[name]()))


def test_every_link_failure_matches_the_oracle_without_it(name):
    network = converged(BUILDERS[name]())
    for first, second in BUILDERS[name]().undirected_links:
        network.fail_link(first, second)
        network.converge()
        oracle = edited(name, lambda topology: topology.remove_link(first, second))
        assert_same_fibs(network.fibs(), compute_static_fibs(oracle))
        network.restore_link(first, second)
        network.converge()


def test_every_restore_returns_to_the_boot_fibs(name):
    network = converged(BUILDERS[name]())
    boot = network.fibs()
    for first, second in BUILDERS[name]().undirected_links:
        network.fail_link(first, second)
        network.converge()
        network.restore_link(first, second)
        network.converge()
        assert_same_fibs(network.fibs(), boot)


def test_weight_change_matches_the_oracle(name):
    network = converged(BUILDERS[name]())
    first, second = network.topology.undirected_links[0]
    network.change_weight(first, second, NEW_WEIGHT)
    network.converge()
    oracle = edited(name, lambda topology: topology.set_weight(first, second, NEW_WEIGHT))
    assert_same_fibs(network.fibs(), compute_static_fibs(oracle))


def test_optimizer_lies_realise_every_requirement(name):
    network, controller, requirements = lied_network(BUILDERS[name]())
    assert len(requirements) > 0
    for requirement in requirements:
        assert controller.verify_requirement(requirement) == []
    expected = compute_static_fibs(BUILDERS[name](), controller.active_lies())
    assert_same_fibs(network.fibs(), expected)


def test_lies_under_a_weight_change_match_the_oracle(name):
    network, controller, _ = lied_network(BUILDERS[name]())
    first, second = network.topology.undirected_links[0]
    network.change_weight(first, second, NEW_WEIGHT)
    network.converge()
    oracle = edited(name, lambda topology: topology.set_weight(first, second, NEW_WEIGHT))
    assert_same_fibs(network.fibs(), compute_static_fibs(oracle, controller.active_lies()))


def test_clearing_the_lies_restores_the_lie_free_fibs(name):
    network, controller, _ = lied_network(BUILDERS[name]())
    controller.clear_all()
    network.converge()
    assert controller.active_lie_count() == 0
    assert_same_fibs(network.fibs(), compute_static_fibs(BUILDERS[name]()))
