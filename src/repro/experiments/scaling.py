"""Extended ablations: lie-count scaling, split-approximation error,
data-plane flash-crowd scaling, and controller reconciliation scaling.

These back the design-choice discussions of DESIGN.md:

* **A2 — lie-count scaling**: how many fake-node LSAs the controller needs
  as the topology and the number of rebalanced destinations grow, with and
  without the merger pass (which prunes requirements the IGP already
  satisfies and reduces weight vectors).
* **A3 — split approximation**: the error between a requested fractional
  split and what a bounded number of ECMP entries can realise, as a
  function of the table size.
* **A4 — data-plane flash-crowd scaling**: how the incremental data plane
  (versioned path cache + warm-start max-min repair) behaves as the
  arrival-wave size grows, versus the from-scratch engine whose per-event
  cost is O(flows).
* **A5 — controller reconciliation scaling**: how the plan-cache
  reconciler behaves as the requirement count grows while only one
  requirement changes per reaction, versus the clear-and-replay oracle
  whose per-reaction cost is O(requirements).
* **A6 — sharded controller scaling**: how the sharded facade behaves on
  disjoint-prefix reaction waves (each wave churning every requirement of
  exactly one shard), versus the single incremental controller whose
  dirty-threshold fallback re-plans the *whole* wave.  Sharding evaluates
  the threshold per shard sub-wave, confining the clear-and-replay blast
  radius to the shard that actually churned — the controller-layer mirror
  of the data plane's per-component warm-start repair.
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
from repro.dataplane.engine import DataPlaneEngine
from repro.igp.network import compute_static_fibs
from repro.igp.rib_cache import RibCache
from repro.igp.topology import Topology
from repro.topologies.isp import synthetic_isp
from repro.util.errors import ValidationError
from repro.util.prefixes import Prefix
from repro.util.timeline import Timeline

__all__ = [
    "LieScalingRow",
    "SplitApproximationRow",
    "FlashCrowdScalingRow",
    "ReconcileScalingRow",
    "ShardScalingRow",
    "run_lie_scaling",
    "run_split_approximation",
    "run_flashcrowd_scaling",
    "run_reconcile_scaling",
    "run_shard_scaling",
    "build_pod_topology",
    "build_ring_topology",
    "churn_requirement",
    "replay_requirement_churn",
    "replay_shard_churn",
    "ring_shard_assignment",
    "pod_prefix",
    "replay_wave",
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


@dataclass(frozen=True)
class FlashCrowdScalingRow:
    """One flash-crowd wave size, replayed with and without the path cache."""

    flows: int
    pods: int
    full_seconds: float
    incremental_seconds: float
    flows_rerouted: int
    flows_reused: int
    alloc_warm_starts: int
    alloc_full: int
    fallbacks: int

    @property
    def speedup(self) -> float:
        """Wall-clock advantage of the incremental engine on this wave."""
        if self.incremental_seconds <= 0:
            return float("inf")
        return self.full_seconds / self.incremental_seconds


def build_pod_topology(pods: int, capacity: float = 16e6) -> Topology:
    """``pods`` disjoint server->middle->client chains, one prefix per pod.

    This is the video-CDN shape of the scaling workloads: many independent
    regions, each with its own streaming servers and viewer prefix.  The
    pods are disjoint connected components of the flow-link hypergraph, so
    the warm-start allocator can repair one region's arrivals without
    touching the rest of the fleet.
    """
    if pods < 1:
        raise ValidationError(f"need at least 1 pod, got {pods}")
    topology = Topology(name=f"pods-{pods}")
    for pod in range(pods):
        names = [f"S{pod}", f"M{pod}", f"C{pod}"]
        topology.add_routers(names)
        topology.add_link(names[0], names[1], weight=1, capacity=capacity)
        topology.add_link(names[1], names[2], weight=1, capacity=capacity)
        topology.attach_prefix(names[2], Prefix.parse(f"10.{pod % 250}.{pod // 250}.0/24"))
    return topology


def pod_prefix(topology: Topology, pod: int) -> Prefix:
    """The viewer prefix of one pod of :func:`build_pod_topology`."""
    return topology.attachments_of(f"C{pod}")[0].prefix


def replay_wave(
    engine: DataPlaneEngine,
    topology: Topology,
    pods: int,
    flows: int,
    churn: int,
    rng: Optional[random.Random] = None,
) -> float:
    """One flash-crowd wave: ``flows`` arrivals round-robin across the pods,
    followed by ``churn`` departures of the earliest viewers.  Returns the
    wall-clock seconds the engine spent reacting.  With an explicit ``rng``
    (a :class:`random.Random` — never module-level state, which would leak
    across runs sharing a sweep worker) the per-flow rates are jittered
    deterministically, so seeded sweep runs exercise distinct workloads;
    two replays driven by equally-seeded instances see identical waves.
    Shared with ``benchmarks/test_bench_dataplane_cache.py`` so the
    benchmark and the A4 scaling rows always measure the same workload."""
    start = time.perf_counter()
    for index in range(flows):
        pod = index % pods
        rate = 1e6 + 1000.0 * index
        if rng is not None:
            rate += rng.random() * 1e5
        engine.add_flow(f"S{pod}", pod_prefix(topology, pod), rate, label="wave")
    for flow_id in range(churn):
        engine.remove_flow(flow_id)
    return time.perf_counter() - start


def run_flashcrowd_scaling(
    flow_counts: Sequence[int] = (50, 100, 200),
    pods: int = 8,
    churn_fraction: float = 0.25,
    seed: Optional[int] = None,
) -> List[FlashCrowdScalingRow]:
    """Replay growing flash-crowd waves with and without the data-plane cache.

    For each wave size the same arrival/departure sequence is driven through
    a from-scratch engine (``incremental=False``; every event re-routes every
    flow and re-allocates from scratch) and through the incremental engine
    (versioned path cache + warm-start allocation).  The differential suite
    guarantees both produce bit-identical flows; this experiment measures
    the wall-clock gap and the cache-effectiveness counters.

    ``seed`` (sweep entry point) jitters the per-flow rates through an
    explicit ``random.Random(seed)`` — one fresh instance per engine replay,
    so both engines still see identical waves and the result is a pure
    function of the arguments, independent of run order within a worker.
    ``seed=None`` keeps the historical deterministic rates.
    """
    rows: List[FlashCrowdScalingRow] = []
    for flows in flow_counts:
        if flows < 1:
            raise ValidationError(f"wave size must be >= 1, got {flows}")
        churn = int(flows * churn_fraction)
        topology = build_pod_topology(pods)
        fibs = compute_static_fibs(topology)

        full_engine = DataPlaneEngine(
            topology, lambda: fibs, Timeline(), incremental=False
        )
        full_seconds = replay_wave(
            full_engine, topology, pods, flows, churn,
            rng=None if seed is None else random.Random(seed),
        )

        incremental_engine = DataPlaneEngine(topology, lambda: fibs, Timeline())
        incremental_seconds = replay_wave(
            incremental_engine, topology, pods, flows, churn,
            rng=None if seed is None else random.Random(seed),
        )

        counters = incremental_engine.counters
        rows.append(
            FlashCrowdScalingRow(
                flows=flows,
                pods=pods,
                full_seconds=full_seconds,
                incremental_seconds=incremental_seconds,
                flows_rerouted=counters.flows_rerouted,
                flows_reused=counters.flows_reused,
                alloc_warm_starts=counters.alloc_warm_starts,
                alloc_full=counters.alloc_full,
                fallbacks=counters.fallbacks,
            )
        )
    return rows


@dataclass(frozen=True)
class ReconcileScalingRow:
    """One requirement-set size, replayed through oracle and reconciler."""

    requirements: int
    waves: int
    oracle_seconds: float
    incremental_seconds: float
    plan_cache_hits: int
    plans_recomputed: int
    lies_injected: int
    lies_retracted: int
    lies_kept: int
    fallbacks: int

    @property
    def speedup(self) -> float:
        """Wall-clock advantage of the plan-cache reconciler on this churn."""
        if self.incremental_seconds <= 0:
            return float("inf")
        return self.oracle_seconds / self.incremental_seconds


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


def replay_requirement_churn(
    controller,
    topology: Topology,
    count: int,
    waves: int,
    rng: Optional[random.Random] = None,
) -> float:
    """Drive ``waves`` enforce waves with one of ``count`` requirements
    changing per wave (the rest unchanged) through ``controller``; returns
    the wall-clock seconds spent planning and reconciling.  With an explicit
    ``rng`` the churned requirement is drawn per wave instead of rotating
    round-robin — equally-seeded instances replay identical churns, so the
    oracle/reconciler comparison stays exact under seeded sweeps.  Shared
    with ``benchmarks/test_bench_controller_reconcile.py`` so the benchmark
    and the A5 scaling rows always measure the same workload."""
    generations = {index: 0 for index in range(count)}
    start = time.perf_counter()
    controller.enforce(
        [churn_requirement(topology, index, 0) for index in range(count)]
    )
    for wave in range(1, waves + 1):
        target = rng.randrange(count) if rng is not None else wave % count
        generations[target] += 1
        controller.enforce(
            [
                churn_requirement(topology, index, generations[index])
                for index in range(count)
            ]
        )
    return time.perf_counter() - start


def run_reconcile_scaling(
    requirement_counts: Sequence[int] = (8, 16, 32),
    waves: int = 60,
    ring: int = 32,
    seed: Optional[int] = None,
) -> List[ReconcileScalingRow]:
    """Replay growing requirement churns through oracle and reconciler.

    For each requirement-set size the same churn (one requirement changing
    per enforce wave) is driven through a clear-and-replay controller
    (``incremental=False``; every wave re-validates and re-synthesises every
    requirement) and through the plan-cache reconciler (unchanged
    requirements are skipped outright).  The differential suite guarantees
    both install bit-identical lies; this experiment measures the wall-clock
    gap and the ``ctl_*`` effectiveness counters.

    ``seed`` (sweep entry point) randomises which requirement churns per
    wave through an explicit ``random.Random(seed)`` — one fresh instance
    per controller replay, so oracle and reconciler still see identical
    churn sequences.  ``seed=None`` keeps the historical round-robin churn.
    """
    from repro.core.controller import FibbingController
    from repro.core.lies import lie_set_digest

    rows: List[ReconcileScalingRow] = []
    for count in requirement_counts:
        if count < 1:
            raise ValidationError(f"requirement count must be >= 1, got {count}")
        topology = build_ring_topology(ring, count)

        oracle = FibbingController(topology, incremental=False)
        oracle_seconds = replay_requirement_churn(
            oracle, topology, count, waves,
            rng=None if seed is None else random.Random(seed),
        )

        reconciler = FibbingController(topology)
        incremental_seconds = replay_requirement_churn(
            reconciler, topology, count, waves,
            rng=None if seed is None else random.Random(seed),
        )

        # The reconciler's whole point is that skipping clean requirements
        # is invisible on the wire: both engines must land on the same lies.
        if lie_set_digest(reconciler.active_lies()) != lie_set_digest(
            oracle.active_lies()
        ):
            raise ValidationError(
                "reconciler and oracle diverged on the churn workload"
            )

        counters = reconciler.reconciler.counters
        rows.append(
            ReconcileScalingRow(
                requirements=count,
                waves=waves,
                oracle_seconds=oracle_seconds,
                incremental_seconds=incremental_seconds,
                plan_cache_hits=counters.plan_cache_hits,
                plans_recomputed=counters.plans_recomputed,
                lies_injected=counters.lies_injected,
                lies_retracted=counters.lies_retracted,
                lies_kept=counters.lies_kept,
                fallbacks=counters.fallbacks,
            )
        )
    return rows


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
