"""Extended ablations: lie-count scaling, split-approximation error and
sharded-controller scaling.

These back the design-choice discussions of DESIGN.md:

* **A2 — lie-count scaling**: how many fake-node LSAs the controller needs
  as the topology and the number of rebalanced destinations grow, with and
  without the merger pass (which prunes requirements the IGP already
  satisfies and reduces weight vectors).
* **A3 — split approximation**: the error between a requested fractional
  split and what a bounded number of ECMP entries can realise, as a
  function of the table size.
* **A6 — sharded controller scaling**: how the sharded facade behaves on
  disjoint-prefix reaction waves (each wave churning every requirement of
  exactly one shard), versus the single incremental controller whose
  dirty-threshold fallback re-plans the *whole* wave.  Sharding evaluates
  the threshold per shard sub-wave, confining the clear-and-replay blast
  radius to the shard that actually churned — the controller-layer mirror
  of the data plane's per-component warm-start repair.

No row times a fast path against its from-scratch twin: speed is measured
against what ships (``perf/``), and the from-scratch engines of
``tests/oracles.py`` judge correctness only.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.core.merger import LieMerger
from repro.core.optimizer import MinMaxLoadOptimizer
from repro.core.requirements import DestinationRequirement, RequirementSet
from repro.core.splitting import approximate_ratios, split_error
from repro.core.augmentation import synthesize_lies
from repro.experiments.overhead import build_flash_crowd_demands
from repro.igp.network import compute_static_fibs
from repro.igp.rib_cache import RibCache
from repro.igp.topology import Topology
from repro.topologies.isp import synthetic_isp
from repro.util.errors import ValidationError
from repro.util.prefixes import Prefix

__all__ = [
    "LieScalingRow",
    "SplitApproximationRow",
    "ShardScalingRow",
    "run_lie_scaling",
    "run_split_approximation",
    "run_shard_scaling",
    "build_ring_topology",
    "churn_requirement",
    "replay_shard_churn",
    "ring_shard_assignment",
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
        # One versioned route cache per instance: the merger's own baseline
        # recomputation becomes a pure cache hit.
        rib_cache = RibCache()
        baseline_fibs = compute_static_fibs(topology, rib_cache=rib_cache)

        lies_without = 0
        for requirement in requirements:
            lies_without += len(
                synthesize_lies(topology, requirement, baseline_fibs=baseline_fibs)
            )

        merger = LieMerger(topology, rib_cache=rib_cache)
        reduced, _report = merger.optimize(requirements)
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


@dataclass(frozen=True)
class ShardScalingRow:
    """One shard count, replayed through single and sharded controllers."""

    shards: int
    requirements: int
    waves: int
    single_seconds: float
    sharded_seconds: float
    single_plans_recomputed: int
    single_fallbacks: int
    sharded_plans_recomputed: int
    sharded_plan_cache_hits: int
    shard_dirty: int
    shard_clean: int
    waves_serial: int

    @property
    def speedup(self) -> float:
        """Wall-clock advantage of the sharded facade on this churn."""
        if self.sharded_seconds <= 0:
            return float("inf")
        return self.single_seconds / self.sharded_seconds


def ring_shard_assignment(topology: Topology, count: int, shards: int):
    """Pin the ring prefixes round-robin to shards, by churn index.

    :func:`churn_requirement` addresses prefixes by index; this assignment
    puts index ``i`` into shard ``i % shards``, so a wave that churns every
    index of one residue class dirties exactly one shard — the
    disjoint-prefix reaction-wave shape of the A6 study.
    """
    size = topology.num_routers
    mapping = {}
    for index in range(count):
        prefix = topology.attachments_of(f"R{index % size}")[index // size].prefix
        mapping[prefix] = index % shards

    def assign(prefix: Prefix, _shards: int) -> int:
        return mapping[prefix]

    return assign


def replay_shard_churn(
    controller,
    topology: Topology,
    count: int,
    waves: int,
    shards: int,
    rng: Optional[random.Random] = None,
) -> float:
    """Drive ``waves`` enforce waves, each churning every requirement of
    exactly one shard (index residue ``wave % shards``, rotating) while the
    other shards' requirements stay untouched; returns the wall-clock
    seconds spent planning and reconciling the churn waves.  The initial
    all-new wave (and with it the one-time baseline-FIB computation, which
    both engines pay identically) runs before the clock starts: the study
    object is the steady-state reaction cost.  With an explicit ``rng`` the
    churned shard is drawn per wave instead of rotating — equally-seeded
    instances replay identical churns, keeping the single/sharded
    comparison exact under seeded sweeps.  Shared with
    ``benchmarks/test_bench_shard_scaling.py`` so the benchmark and the A6
    scaling rows always measure the same workload."""
    generations = {index: 0 for index in range(count)}
    controller.enforce(
        [churn_requirement(topology, index, 0) for index in range(count)]
    )
    start = time.perf_counter()
    for wave in range(1, waves + 1):
        target = rng.randrange(shards) if rng is not None else wave % shards
        for index in range(count):
            if index % shards == target:
                generations[index] += 1
        controller.enforce(
            [
                churn_requirement(topology, index, generations[index])
                for index in range(count)
            ]
        )
    return time.perf_counter() - start


def run_shard_scaling(
    shard_counts: Sequence[int] = (1, 2, 4),
    requirements: int = 32,
    waves: int = 30,
    ring: int = 32,
    plan_dirty_threshold: float = 0.2,
    seed: Optional[int] = None,
) -> List[ShardScalingRow]:
    """A6 — replay disjoint-prefix churn through single and sharded control.

    Both sides run the *same* incremental engine with the same
    ``plan_dirty_threshold``; each wave churns every requirement of one
    shard (``1/shards`` of the set).  Whenever that dirty fraction exceeds
    the threshold, the single controller's fallback re-plans the whole wave
    — clean requirements included — while the facade evaluates the
    threshold per shard sub-wave and re-plans only the shard that churned.
    The lie sets are verified identical before any timing is reported.
    ``seed`` (sweep entry point) randomises which shard churns per wave
    through an explicit ``random.Random(seed)`` — one fresh instance per
    controller replay, so both sides see identical churns; ``seed=None``
    keeps the historical rotating churn.
    """
    from repro.core.controller import FibbingController
    from repro.core.lies import lie_set_digest
    from repro.core.shard import ShardedFibbingController

    rows: List[ShardScalingRow] = []
    for shards in shard_counts:
        if shards < 1:
            raise ValidationError(f"shard count must be >= 1, got {shards}")
        topology = build_ring_topology(ring, requirements)

        single = FibbingController(
            topology, plan_dirty_threshold=plan_dirty_threshold
        )
        single_seconds = replay_shard_churn(
            single, topology, requirements, waves, shards,
            rng=None if seed is None else random.Random(seed),
        )

        sharded = ShardedFibbingController(
            topology,
            shards=shards,
            plan_dirty_threshold=plan_dirty_threshold,
            assignment=ring_shard_assignment(topology, requirements, shards),
        )
        sharded_seconds = replay_shard_churn(
            sharded, topology, requirements, waves, shards,
            rng=None if seed is None else random.Random(seed),
        )
        if lie_set_digest(sharded.active_lies()) != lie_set_digest(
            single.active_lies()
        ):
            raise ValidationError(
                "sharded facade and single controller diverged on the churn workload"
            )
        single_counters = single.reconciler.counters
        sharded_counters = sharded.reconciler.counters
        shard_counters = sharded.shard_counters
        rows.append(
            ShardScalingRow(
                shards=shards,
                requirements=requirements,
                waves=waves,
                single_seconds=single_seconds,
                sharded_seconds=sharded_seconds,
                single_plans_recomputed=single_counters.plans_recomputed,
                single_fallbacks=single_counters.fallbacks,
                sharded_plans_recomputed=sharded_counters.plans_recomputed,
                sharded_plan_cache_hits=sharded_counters.plan_cache_hits,
                shard_dirty=shard_counters.shards_dirty,
                shard_clean=shard_counters.shards_clean,
                waves_serial=shard_counters.waves_serial,
            )
        )
    return rows


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
