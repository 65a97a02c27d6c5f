"""Extended ablations: lie-count scaling and split-approximation error.

These back the design-choice discussions of DESIGN.md:

* **A2 — lie-count scaling**: how many fake-node LSAs the controller needs
  as the topology and the number of rebalanced destinations grow, with and
  without the merger pass (which prunes requirements the IGP already
  satisfies and reduces weight vectors).
* **A3 — split approximation**: the error between a requested fractional
  split and what a bounded number of ECMP entries can realise, as a
  function of the table size.

:func:`build_ring_topology` and :func:`churn_requirement` describe the
controller-churn workload the recovery tests and the chaos benchmark drive.

No row times a fast path against its from-scratch twin: speed is measured
against what ships (``perf/``), and the from-scratch engines of
``tests/oracles.py`` judge correctness only.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.core.merger import LieMerger
from repro.core.optimizer import MinMaxLoadOptimizer
from repro.core.requirements import DestinationRequirement, RequirementSet
from repro.core.splitting import approximate_ratios, split_error
from repro.core.augmentation import synthesize_lies
from repro.experiments.overhead import build_flash_crowd_demands
from repro.igp.network import compute_static_fibs
from repro.igp.topology import Topology
from repro.topologies.isp import synthetic_isp
from repro.util.errors import ValidationError
from repro.util.prefixes import Prefix

__all__ = [
    "LieScalingRow",
    "SplitApproximationRow",
    "run_lie_scaling",
    "run_split_approximation",
    "build_ring_topology",
    "churn_requirement",
]


@dataclass(frozen=True)
class LieScalingRow:
    """Lie counts for one (topology size, destination count) instance."""

    core_size: int
    pops: int
    routers: int
    destinations: int
    lies_without_merger: int
    lies_with_merger: int

    @property
    def reduction(self) -> float:
        """Fraction of lies saved by the merger pass."""
        if self.lies_without_merger == 0:
            return 0.0
        return 1.0 - self.lies_with_merger / self.lies_without_merger


@dataclass(frozen=True)
class SplitApproximationRow:
    """Average/worst split approximation error for one ECMP table size."""

    max_entries: int
    mean_error: float
    worst_error: float


def run_lie_scaling(
    core_sizes: Sequence[int] = (4, 6, 8),
    pops: int = 3,
    destinations: int = 3,
    seed: int = 0,
) -> List[LieScalingRow]:
    """Measure lie counts on synthetic ISP topologies of growing size."""
    rows: List[LieScalingRow] = []
    for core_size in core_sizes:
        topology = synthetic_isp(core_size=core_size, pops=pops, prefixes_per_pop=2, seed=seed)
        demands = build_flash_crowd_demands(
            topology, destinations=destinations, sources_per_destination=3, seed=seed
        )
        optimizer = MinMaxLoadOptimizer(topology)
        result = optimizer.optimize(demands)
        fractions = result.to_fractions()

        requirements = RequirementSet(
            DestinationRequirement.from_fractions(prefix, per_router)
            for prefix, per_router in fractions.items()
        )
        baseline_fibs = compute_static_fibs(topology)

        lies_without = 0
        for requirement in requirements:
            lies_without += len(
                synthesize_lies(topology, requirement, baseline_fibs=baseline_fibs)
            )

        reduced, _report = LieMerger(topology).optimize(requirements, baseline_fibs)
        lies_with = 0
        for requirement in reduced:
            lies_with += len(
                synthesize_lies(topology, requirement, baseline_fibs=baseline_fibs)
            )

        rows.append(
            LieScalingRow(
                core_size=core_size,
                pops=pops,
                routers=topology.num_routers,
                destinations=destinations,
                lies_without_merger=lies_without,
                lies_with_merger=lies_with,
            )
        )
    return rows


def build_ring_topology(size: int, prefixes: int) -> Topology:
    """A ring of ``size`` routers announcing ``prefixes`` round-robin.

    This is the controller-churn workload shape: every prefix's requirement
    constrains the announcer's antipode, whose two ring directions tie in
    cost, so weighted requirements there always need lies (tie mode) and a
    weight change always moves the desired lie set.
    """
    if size < 4 or size % 2:
        raise ValidationError(f"ring size must be even and >= 4, got {size}")
    topology = Topology(name=f"ring-{size}")
    names = [f"R{i}" for i in range(size)]
    topology.add_routers(names)
    for i in range(size):
        topology.add_link(names[i], names[(i + 1) % size], weight=1)
    for index in range(prefixes):
        topology.attach_prefix(
            names[index % size],
            Prefix.parse(f"10.{index % 250}.{index // 250}.0/24"),
        )
    return topology


def churn_requirement(
    topology: Topology, index: int, generation: int
) -> DestinationRequirement:
    """The requirement of prefix ``index`` at churn ``generation``.

    Constrains the announcer's antipode to split over both ring directions
    with a generation-dependent weight; consecutive generations always map
    to different weights, so bumping a requirement's generation by one is
    guaranteed to change its digest.
    """
    size = topology.num_routers
    announcer = index % size
    antipode = f"R{(announcer + size // 2) % size}"
    left = f"R{(announcer + size // 2 - 1) % size}"
    right = f"R{(announcer + size // 2 + 1) % size}"
    prefix = topology.attachments_of(f"R{announcer}")[index // size].prefix
    return DestinationRequirement(
        prefix=prefix,
        next_hops={antipode: {left: 1 + generation % 5, right: 1}},
    )


def run_split_approximation(
    table_sizes: Sequence[int] = (2, 4, 8, 16, 32),
    samples: int = 200,
    next_hops: int = 3,
    seed: int = 0,
) -> List[SplitApproximationRow]:
    """Measure the L1 error of bounded-denominator split approximation."""
    if samples < 1:
        raise ValidationError(f"samples must be >= 1, got {samples}")
    rng = random.Random(seed)
    targets: List[Dict[str, float]] = []
    for _ in range(samples):
        raw = [rng.random() + 1e-6 for _ in range(next_hops)]
        total = sum(raw)
        targets.append({f"nh{i}": value / total for i, value in enumerate(raw)})

    rows: List[SplitApproximationRow] = []
    for max_entries in table_sizes:
        errors = []
        for target in targets:
            weights = approximate_ratios(target, max_entries=max_entries)
            errors.append(split_error(target, weights))
        rows.append(
            SplitApproximationRow(
                max_entries=max_entries,
                mean_error=sum(errors) / len(errors),
                worst_error=max(errors),
            )
        )
    return rows
