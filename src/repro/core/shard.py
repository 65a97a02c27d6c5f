"""Sharded multi-controller: per-shard reaction planning behind one
reconciliation facade.

This is the controller-layer mirror of the data plane's component
decomposition (PR 3): where :func:`~repro.dataplane.fairness.max_min_fair_allocation`
splits the flow-link hypergraph into connected components and repairs only
the dirty ones, :class:`ShardedFibbingController` partitions the managed
prefixes across N :class:`~repro.core.controller.FibbingController` shards —
each with its own :class:`~repro.core.reconciler.PlanCache`, lie-registry
slice and reconciler — and plans the shard sub-waves of every reaction
independently:

* **Partitioning** — a prefix's shard is a pure function of the prefix
  (:func:`default_shard_assignment`, a stable content hash that does not
  depend on ``PYTHONHASHSEED``; an explicit ``assignment`` callable can pin
  prefixes to shards, e.g. one shard per region).  All planning state of a
  prefix (installed lies, plan-cache entries, skip bookkeeping) lives in
  exactly one shard, so shard sub-waves never contend.

* **Per-shard planning** — the expensive per-requirement work (validation
  walk, lie synthesis, registry diff) runs per shard, one sub-wave after
  the other.

* **Localised fallback** — the ``plan_dirty_threshold`` knob is evaluated
  *per shard sub-wave*: a reaction that churns every requirement of one
  shard trips only that shard's clear-and-replay fallback, while a single
  controller would re-plan the whole wave.  This is where the sharded
  facade wins (see ``benchmarks/test_bench_shard_scaling.py``).

* **Centralised merge** — the per-shard retract/inject deltas are merged
  into one batched injection wave: fake-node names are allocated by the
  facade, in wave order, from a single committed-history counter, and every
  LSA of the wave enters the network through one
  :meth:`~repro.igp.network.IgpNetwork.inject` call.

The non-negotiable invariant, in the style of PRs 1–4:
``ShardedFibbingController(shards=N)`` installs bit-identical lie sets
(fake-node names included), FIBs and data-plane rates to the
single-controller clear-and-replay oracle of ``tests/oracles.py``, for any
N — the differential suite ``tests/test_controller_sharded.py`` holds it to
that.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.core.augmentation import DEFAULT_EPSILON
from repro.core.controller import ControllerUpdate, FibbingController
from repro.core.lies import Lie, LieUpdate
from repro.core.reconciler import (
    CtlCounters,
    PlanCache,
    fake_node_name,
    wave_past_threshold,
)
from repro.core.requirements import DestinationRequirement, RequirementSet
from repro.igp.fib import Fib
from repro.igp.lsa import FakeNodeLsa, Lsa
from repro.igp.network import IgpNetwork
from repro.igp.topology import Topology
from repro.util.errors import ControllerError
from repro.util.prefixes import Prefix

__all__ = [
    "ShardedFibbingController",
    "default_shard_assignment",
]


def default_shard_assignment(prefix: Prefix, shards: int) -> int:
    """The default prefix-to-shard mapping: a stable content hash.

    Uses SHA-256 of the prefix's string form, so the mapping is identical
    across processes, runs and ``PYTHONHASHSEED`` values — a prefix's lies
    always live in the same shard, which the golden lie-set digests rely
    on.
    """
    digest = hashlib.sha256(str(prefix).encode()).digest()
    return int.from_bytes(digest[:8], "big") % shards


def _plan_shard_wave(
    shard: FibbingController,
    reqs: List[DestinationRequirement],
    topology: Topology,
    baseline_fibs: Mapping[str, Fib],
    version: int,
    epsilon: float,
) -> Tuple[List[LieUpdate], int]:
    """Plan one shard's sub-wave; returns ``(plans, dirty_count)``.

    This is the per-shard body run by the facade: the skip/fallback logic of
    :meth:`FibbingController.enforce` evaluated over the *shard's* slice of
    the wave, producing per-requirement plans whose injected lies still
    carry placeholder names.  Nothing is committed here — the facade
    commits and names in wave order — so the only state touched is the
    shard's own reconciler, plan cache and registry (reads), which no other
    shard shares.
    """
    reconciler = shard.reconciler
    counters = reconciler.counters
    plans: List[LieUpdate] = []

    dirty = sum(1 for req in reqs if not reconciler.is_clean(version, req))
    fallback = reconciler.wave_fallback(len(reqs), dirty)
    if fallback:
        counters.fallbacks += 1
    active_counts = shard.registry.active_counts()
    for req in reqs:
        if not fallback and reconciler.is_clean(version, req):
            counters.plan_cache_hits += 1
            plans.append(
                reconciler.noop_plan(
                    req.prefix, active_count=active_counts.get(req.prefix, 0)
                )
            )
        else:
            counters.plans_recomputed += 1
            desired = reconciler.desired_lies(
                topology=topology,
                requirement=req,
                baseline_fibs=baseline_fibs,
                version=version,
                epsilon=epsilon,
            )
            plans.append(
                reconciler.reconcile(req.prefix, desired, allocate_names=False)
            )
    return plans, dirty


class _ShardedRegistryView:
    """Read-only union of the shard registries, quacking like a LieRegistry.

    Active lies are gathered across shards and sorted by fake-node name —
    the exact order a single controller's registry reports — so callers
    (the load balancer's stale-lie sweep, ``static_fibs``, the golden
    digests) see one coherent lie set.
    """

    def __init__(self, shards: List[FibbingController]) -> None:
        self._shards = shards

    def active_lies(self, prefix: Optional[Prefix] = None) -> List[Lie]:
        lies = [
            lie
            for shard in self._shards
            for lie in shard.registry.active_lies(prefix)
        ]
        lies.sort(key=lambda lie: lie.lsa.fake_node)
        return lies

    def active_lsas(self, prefix: Optional[Prefix] = None) -> List[FakeNodeLsa]:
        return [lie.lsa for lie in self.active_lies(prefix)]

    def active_count(self, prefix: Optional[Prefix] = None) -> int:
        return sum(shard.registry.active_count(prefix) for shard in self._shards)

    def active_counts(self) -> Dict[Prefix, int]:
        counts: Dict[Prefix, int] = {}
        for shard in self._shards:
            counts.update(shard.registry.active_counts())
        return counts

    def prefixes(self) -> List[Prefix]:
        return sorted(
            {prefix for shard in self._shards for prefix in shard.registry.prefixes()}
        )

    def history(self) -> List[Lie]:
        """Every lie any shard ever registered (namespace-audit surface)."""
        return [lie for shard in self._shards for lie in shard.registry.history()]

    def __len__(self) -> int:
        return self.active_count()


class _AggregateReconciler:
    """Counter/plan-cache view of the whole fleet.

    Exposes what external consumers use off
    ``FibbingController.reconciler``: ``counters`` (the merged ``ctl_*``
    view across every shard plus the facade-level plan cache the optimizer
    and merger share), ``plan_cache`` (that facade-level cache),
    ``has_state`` and ``forget`` (routed to the owning shard).  Planning
    methods are deliberately absent — planning happens inside the shards.
    """

    def __init__(self, facade: "ShardedFibbingController", plan_cache: PlanCache) -> None:
        self._facade = facade
        self.plan_cache = plan_cache
        self.plan_dirty_threshold = facade.plan_dirty_threshold

    @property
    def counters(self) -> CtlCounters:
        return CtlCounters.total(
            [self.plan_cache.counters]
            + [shard.reconciler.counters for shard in self._facade.shards]
        )

    @property
    def has_state(self) -> bool:
        """Whether any shard has an enforced requirement on record."""
        return any(shard.reconciler.has_state for shard in self._facade.shards)

    def forget(self, prefix: Prefix) -> None:
        """Drop the skip bookkeeping for ``prefix`` in its owning shard."""
        self._facade._shard_for(prefix).reconciler.forget(prefix)


class ShardedFibbingController(FibbingController):
    """N controller shards behind one :class:`FibbingController` facade.

    Drop-in for a single controller everywhere one is accepted (the
    on-demand load balancer, the Fig. 1/Fig. 2 experiments, a live
    :class:`~repro.igp.network.IgpNetwork`): requirements are partitioned
    by prefix across ``shards`` inner controllers, shard sub-waves are
    planned independently and the resulting deltas are named, committed
    and injected as one batched wave.  See the module docstring for the
    decomposition and the equivalence guarantee.
    """

    def __init__(
        self,
        topology: Topology,
        shards: int = 4,
        name: str = "fibbing-controller",
        network: Optional[IgpNetwork] = None,
        attachment: Optional[str] = None,
        epsilon: float = DEFAULT_EPSILON,
        plan_dirty_threshold: float = 0.5,
        assignment: Optional[Callable[[Prefix, int], int]] = None,
    ) -> None:
        """Create a sharded controller for ``topology``.

        ``assignment(prefix, shards)`` pins prefixes to shard indices
        (default: :func:`default_shard_assignment`, a stable content hash).
        ``plan_dirty_threshold`` is forwarded to every shard; it is evaluated
        per shard sub-wave, which localises the clear-and-replay fallback to
        the shard that actually churned.
        """
        if shards < 1:
            raise ControllerError(f"need at least 1 shard, got {shards}")
        super().__init__(
            topology,
            name=name,
            network=network,
            attachment=attachment,
            epsilon=epsilon,
            plan_dirty_threshold=plan_dirty_threshold,
        )
        self.shard_count = shards
        self.plan_dirty_threshold = plan_dirty_threshold
        self._assignment = assignment if assignment is not None else default_shard_assignment
        self._shard_index: Dict[Prefix, int] = {}
        # Shards are full controllers (not bare reconciler/registry pairs):
        # each can answer the whole single-controller API over its slice
        # (inspection, per-shard verification, future shard-local drains),
        # and the unused route-cache lineages stay empty until touched.
        # They carry the facade's name so the LSAs they synthesise are
        # indistinguishable from a single controller's (the origin field and
        # the fake-node name prefix both derive from it), and they never
        # attach to the network themselves — the facade owns injection.
        self.shards: List[FibbingController] = [
            FibbingController(
                topology,
                name=name,
                epsilon=epsilon,
                plan_dirty_threshold=plan_dirty_threshold,
            )
            for _ in range(shards)
        ]
        # The facade-level plan cache built by super().__init__ is kept for
        # the optimizer/merger (whole-LP and merged-weight-map reuse); the
        # per-requirement planning state lives in the shard caches.
        facade_plan_cache = self.reconciler.plan_cache
        self.registry = _ShardedRegistryView(self.shards)
        self.reconciler = _AggregateReconciler(self, facade_plan_cache)
        # Advances once per injected lie, in wave order — the exact name
        # sequence a single controller's committed history would produce.
        self._fake_name_counter = 0
        #: Optional injection override installed by the asynchronous control
        #: loop (:class:`repro.core.scheduler.ControlLoopScheduler`): called
        #: as ``wave_injector(attachment, groups)`` where ``groups`` is an
        #: ordered list of ``(shard_index, [Lsa, ...])`` pairs, so per-shard
        #: completion can be staggered in simulated time instead of the
        #: single flat :meth:`IgpNetwork.inject` call.  ``None`` (the
        #: default) keeps the synchronous one-wave behaviour byte-identical.
        self.wave_injector: Optional[Callable[[str, List[Tuple[int, List[Lsa]]]], None]] = None

    # ------------------------------------------------------------------ #
    # Partitioning
    # ------------------------------------------------------------------ #
    def shard_of(self, prefix: Prefix) -> int:
        """The shard index that owns ``prefix`` (memoised, stable)."""
        index = self._shard_index.get(prefix)
        if index is None:
            index = self._assignment(prefix, self.shard_count)
            if not 0 <= index < self.shard_count:
                raise ControllerError(
                    f"shard assignment returned {index} for {prefix}, "
                    f"expected 0..{self.shard_count - 1}"
                )
            self._shard_index[prefix] = index
        return index

    def _shard_for(self, prefix: Prefix) -> FibbingController:
        return self.shards[self.shard_of(prefix)]

    # ------------------------------------------------------------------ #
    # Requirement enforcement
    # ------------------------------------------------------------------ #
    def enforce(
        self, requirements: RequirementSet | Iterable[DestinationRequirement]
    ) -> List[ControllerUpdate]:
        """Enforce a wave: partition, plan per shard, merge, inject once.

        The wave is split into per-shard sub-waves (wave order preserved
        within each shard), each sub-wave is planned by its shard, and the
        per-shard deltas are merged back in wave order: fake-node names are
        allocated centrally, plans are committed into their shard's
        registry, and every LSA ships in one injection.
        A wave naming the same prefix more than once cannot be partitioned
        (the later requirement must see the earlier one's committed lies)
        and falls back to serial in-order planning, counted as a
        ``shard_cross_fallback``.
        """
        self._check_attached()
        reqs = list(requirements)
        if not reqs:
            return []
        prefixes = [req.prefix for req in reqs]
        if len(set(prefixes)) != len(prefixes):
            self.shard_counters.cross_shard_fallbacks += 1
            self.shard_counters.waves_serial += 1
            return self._enforce_serial(reqs)

        baseline_fibs = self.baseline_fibs()
        version = self.baseline_route_cache.version
        groups: Dict[int, List[DestinationRequirement]] = {}
        for req in reqs:
            groups.setdefault(self.shard_of(req.prefix), []).append(req)
        self.shard_counters.waves_serial += 1
        shard_plans: Dict[int, List[LieUpdate]] = {}
        for index in sorted(groups):
            plans, dirty = _plan_shard_wave(
                self.shards[index],
                groups[index],
                self.topology,
                baseline_fibs,
                version,
                self.epsilon,
            )
            shard_plans[index] = plans
            if dirty:
                self.shard_counters.shards_dirty += 1
            else:
                self.shard_counters.shards_clean += 1

        # Merge phase: consume each shard's plan queue in wave order.
        cursors = {index: 0 for index in shard_plans}
        ordered: List[Tuple[FibbingController, Optional[DestinationRequirement], LieUpdate]] = []
        for req in reqs:
            index = self.shard_of(req.prefix)
            plan = shard_plans[index][cursors[index]]
            cursors[index] += 1
            ordered.append((self.shards[index], req, plan))
        return self._commit_and_send(ordered, version)

    def _enforce_serial(
        self, reqs: List[DestinationRequirement]
    ) -> List[ControllerUpdate]:
        """The unpartitionable-wave path: plan, name and commit in order.

        Matches the single controller's enforce loop step for step — the
        wave-level dirty fraction is evaluated against the whole wave (a
        fallback is counted on the facade's plan cache and re-plans clean
        requirements too), active counts are snapshotted once, and a later
        requirement for the same prefix sees the earlier one's committed
        lies — just with each prefix's state living in its shard.
        """
        baseline_fibs = self.baseline_fibs()
        version = self.baseline_route_cache.version
        now = self._now()
        dirty = sum(
            1
            for req in reqs
            if not self._shard_for(req.prefix).reconciler.is_clean(version, req)
        )
        fallback = wave_past_threshold(
            len(reqs),
            dirty,
            any(shard.reconciler.has_state for shard in self.shards),
            self.plan_dirty_threshold,
        )
        if fallback:
            self.plan_cache.counters.fallbacks += 1
        active_counts = self.registry.active_counts()
        planned_prefixes = set()
        committed: List[Tuple[FibbingController, LieUpdate]] = []
        for req in reqs:
            shard = self._shard_for(req.prefix)
            reconciler = shard.reconciler
            if not fallback and reconciler.is_clean(version, req):
                reconciler.counters.plan_cache_hits += 1
                plan = reconciler.noop_plan(
                    req.prefix,
                    active_count=(
                        None
                        if req.prefix in planned_prefixes
                        else active_counts.get(req.prefix, 0)
                    ),
                )
            else:
                reconciler.counters.plans_recomputed += 1
                desired = reconciler.desired_lies(
                    topology=self.topology,
                    requirement=req,
                    baseline_fibs=baseline_fibs,
                    version=version,
                    epsilon=self.epsilon,
                )
                plan = reconciler.reconcile(req.prefix, desired, allocate_names=False)
            plan = self._name_plan(plan)
            shard.registry.commit(plan, now=now)
            reconciler.mark_enforced(version, req)
            planned_prefixes.add(req.prefix)
            committed.append((shard, plan))
        return self._ship_committed(committed, now)

    def enforce_requirement(
        self,
        requirement: DestinationRequirement,
        baseline_fibs: Optional[Mapping[str, Fib]] = None,
    ) -> ControllerUpdate:
        """Single-requirement entry point (see the base class).

        With caller-supplied ``baseline_fibs`` the plan cannot be attested
        to a graph version; the owning shard plans it from scratch and its
        skip bookkeeping is dropped, exactly like the single controller.
        """
        if baseline_fibs is None:
            return self.enforce([requirement])[0]
        # Like a duplicate-prefix wave, a caller-supplied baseline cannot be
        # partitioned or attested; the wave is planned inline.  No ctl_*
        # counter moves — the single controller's equivalent path does not
        # count either, and per-reaction counter diffs must stay comparable
        # across engines.
        self._check_attached()
        self.shard_counters.cross_shard_fallbacks += 1
        self.shard_counters.waves_serial += 1
        shard = self._shard_for(requirement.prefix)
        reconciler = shard.reconciler
        reconciler.forget(requirement.prefix)
        desired = reconciler.desired_lies(
            topology=self.topology,
            requirement=requirement,
            baseline_fibs=baseline_fibs,
            version=None,
            epsilon=self.epsilon,
        )
        plan = reconciler.reconcile(requirement.prefix, desired, allocate_names=False)
        now = self._now()
        plan = self._name_plan(plan)
        shard.registry.commit(plan, now=now)
        return self._ship_committed([(shard, plan)], now)[0]

    # ------------------------------------------------------------------ #
    # Crash / recovery
    # ------------------------------------------------------------------ #
    def detach(self) -> None:
        """Simulate a facade crash: every shard's volatile state is lost.

        Mirrors :meth:`FibbingController.detach` per shard (registry,
        reconciler bookkeeping, plan caches, baseline memos) plus the
        facade's central fake-node name counter; the injected LSAs keep
        living in the network's LSDBs.
        """
        self._detached = True
        for shard in self.shards:
            shard.registry.reset()
            shard.reconciler.reset()
            shard.plan_cache.invalidate()
            shard._baseline_memo = None
        self.plan_cache.invalidate()
        self._baseline_memo = None
        self._fake_name_counter = 0
        self.updates.clear()

    def resync(self) -> int:
        """Rebuild per-shard lie state from the attachment router's LSDB.

        Surviving fake-node LSAs are partitioned by :meth:`shard_of` into
        the shard registries (the same prefix-to-shard mapping planning
        uses, so each lie lands exactly where a never-crashed facade keeps
        it), and the central name counter resumes from the highest sequence
        number across live *and* withdrawn instances.  Returns the number
        of lies recovered across all shards.
        """
        if self.network is None or self.attachment is None:
            raise ControllerError("resync requires a live network attachment")
        lsdb = self.network.routers[self.attachment].lsdb
        by_shard: Dict[int, List[FakeNodeLsa]] = {}
        max_sequence = 0
        for lsa in lsdb.all_lsas():
            if not isinstance(lsa, FakeNodeLsa) or lsa.origin != self.name:
                continue
            max_sequence = max(max_sequence, self._fake_sequence(lsa.fake_node))
            if not lsa.withdrawn:
                by_shard.setdefault(self.shard_of(lsa.prefix), []).append(lsa)
        now = self._now()
        recovered = 0
        for index, shard in enumerate(self.shards):
            shard.registry.reset()
            shard.reconciler.reset()
            shard.plan_cache.invalidate()
            shard._baseline_memo = None
            recovered += shard.registry.restore(by_shard.get(index, ()), now=now)
        self._fake_name_counter = max_sequence
        self.plan_cache.invalidate()
        self._baseline_memo = None
        self._detached = False
        # Counted on the facade-level plan cache (a real object the
        # aggregate counter view merges in); the aggregate ``counters``
        # property returns a fresh merged copy, so bumping that would be
        # lost.
        counters = self.reconciler.plan_cache.counters
        counters.resyncs += 1
        counters.resync_lies_recovered += recovered
        return recovered

    def clear_prefix(self, prefix: Prefix) -> ControllerUpdate:
        """Withdraw every lie programmed for ``prefix`` (in its shard)."""
        self._check_attached()
        shard = self._shard_for(prefix)
        plan = shard.registry.clear(prefix)
        shard.reconciler.forget(prefix)
        now = self._now()
        shard.registry.commit(plan, now=now)
        return self._ship_committed([(shard, plan)], now)[0]

    # ------------------------------------------------------------------ #
    # Merge phase: naming, commit, batched injection
    # ------------------------------------------------------------------ #
    def _allocate_fake_name(self, anchor: str) -> str:
        # Same shared format as LieReconciler._allocate_name: the
        # differential suite compares installed LSAs, names included,
        # against the single-controller oracle.
        self._fake_name_counter += 1
        return fake_node_name(self.name, anchor, self._fake_name_counter)

    def _name_plan(self, plan: LieUpdate) -> LieUpdate:
        """Replace the placeholder inject names with committed-history names."""
        if not plan.to_inject:
            return plan
        named = tuple(
            replace(lsa, fake_node=self._allocate_fake_name(lsa.anchor))
            for lsa in plan.to_inject
        )
        return LieUpdate(
            prefix=plan.prefix,
            to_inject=named,
            to_withdraw=plan.to_withdraw,
            unchanged=plan.unchanged,
        )

    def _commit_and_send(self, ordered, version) -> List[ControllerUpdate]:
        """Name, commit and mark the planned wave; ship one injection."""
        now = self._now()
        committed: List[Tuple[FibbingController, LieUpdate]] = []
        for shard, req, plan in ordered:
            plan = self._name_plan(plan)
            shard.registry.commit(plan, now=now)
            if req is not None:
                shard.reconciler.mark_enforced(version, req)
            committed.append((shard, plan))
        return self._ship_committed(committed, now)

    def _ship_committed(self, committed, now) -> List[ControllerUpdate]:
        """Send the committed plans' LSAs as one wave and account for them."""
        to_send: List[Lsa] = []
        applied: List[ControllerUpdate] = []
        shard_groups: Dict[int, List[Lsa]] = {}
        index_of: Dict[int, int] = (
            {id(shard): index for index, shard in enumerate(self.shards)}
            if self.wave_injector is not None
            else {}
        )
        for shard, plan in committed:
            messages: List[Lsa] = list(plan.to_inject)
            messages.extend(lsa.withdraw() for lsa in plan.to_withdraw)
            to_send.extend(messages)
            if messages and self.wave_injector is not None:
                shard_groups.setdefault(index_of[id(shard)], []).extend(messages)
            shard.reconciler.record_applied(plan)
            update = ControllerUpdate(
                time=now,
                injected=plan.to_inject,
                withdrawn=plan.to_withdraw,
                unchanged=plan.unchanged,
            )
            self.updates.append(update)
            applied.append(update)
            self.stats.updates_applied += 1
            self.stats.lies_injected += len(plan.to_inject)
            self.stats.lies_withdrawn += len(plan.to_withdraw)
            self.stats.messages_sent += len(messages)
            self.stats.bytes_sent += sum(lsa.size_bytes for lsa in messages)
        if self.network is not None and to_send:
            assert self.attachment is not None  # enforced in __init__
            if self.wave_injector is None:
                self.network.inject(to_send, at_router=self.attachment)
            else:
                self.wave_injector(
                    self.attachment,
                    [(index, shard_groups[index]) for index in sorted(shard_groups)],
                )
        return applied

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"ShardedFibbingController(name={self.name!r}, shards={self.shard_count}, "
            f"active_lies={self.active_lie_count()})"
        )
