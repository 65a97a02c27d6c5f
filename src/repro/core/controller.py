"""The Fibbing controller session.

The controller is the component that actually talks to the IGP: it keeps a
registry of the lies it maintains, turns forwarding requirements into lies
(through the augmentation module), reconciles them against the registry, and
ships the difference to the network — either into a live, event-driven
:class:`~repro.igp.network.IgpNetwork` through its attachment router (R3 in
the demo) or, for static analyses, by exposing the active lies for
:func:`~repro.igp.network.compute_static_fibs`.

It also accounts for every LSA it injects or withdraws, which is the raw
material of the control-plane overhead comparison against MPLS RSVP-TE.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.core.augmentation import DEFAULT_EPSILON
from repro.core.lies import LieRegistry, LieUpdate
from repro.core.reconciler import LieReconciler, PlanCache
from repro.core.requirements import DestinationRequirement, RequirementSet
from repro.igp.fib import DEFAULT_MAX_ECMP, Fib
from repro.igp.graph import ComputationGraph
from repro.igp.lsa import FakeNodeLsa, Lsa
from repro.igp.network import IgpNetwork, compute_static_fibs
from repro.igp.rib_cache import RibCache, RibCounters
from repro.igp.spf_cache import SpfCache, SpfCounters
from repro.igp.topology import Topology
from repro.util.errors import ControllerError
from repro.util.prefixes import Prefix

__all__ = ["ControllerStats", "ControllerUpdate", "FibbingController"]


@dataclass
class ControllerStats:
    """Control-plane overhead counters, plus SPF/RIB-cache effectiveness."""

    lies_injected: int = 0
    lies_withdrawn: int = 0
    messages_sent: int = 0
    bytes_sent: int = 0
    updates_applied: int = 0
    spf_cache_hits: int = 0
    spf_incremental_updates: int = 0
    spf_full_recomputes: int = 0
    spf_fallbacks: int = 0
    fib_cache_hits: int = 0
    rib_cache_hits: int = 0
    rib_incremental_updates: int = 0
    rib_full_recomputes: int = 0
    rib_fallbacks: int = 0
    rib_prefixes_repaired: int = 0
    rib_prefixes_reused: int = 0
    dp_flows_rerouted: int = 0
    dp_flows_reused: int = 0
    dp_alloc_warm_starts: int = 0
    dp_alloc_full: int = 0
    dp_fallbacks: int = 0
    ctl_plan_cache_hits: int = 0
    ctl_plans_recomputed: int = 0
    ctl_lies_injected: int = 0
    ctl_lies_retracted: int = 0
    ctl_lies_kept: int = 0
    ctl_fallbacks: int = 0
    ctl_opt_cache_hits: int = 0
    ctl_merge_cache_hits: int = 0
    # Asynchronous control-loop counters (see core.scheduler): zero while
    # the loop runs at the synchronous degenerate point.
    ctl_reactions_deferred: int = 0
    ctl_supersessions: int = 0
    ctl_transient_loops: int = 0
    ctl_transient_blackholes: int = 0
    ctl_converge_events: int = 0
    ctl_converge_seconds: float = 0.0
    # Crash/recovery counters (see detach()/resync() and core.chaos): zero
    # until a controller crash is injected.
    ctl_resyncs: int = 0
    ctl_resync_lies_recovered: int = 0
    ctl_reactions_abandoned: int = 0
    ctl_stagger_lsas_dropped: int = 0
    # Sharded-facade counters (always zero for a single controller); see
    # :class:`repro.core.shard.ShardCounters`.
    shard_waves_serial: int = 0
    shard_dirty: int = 0
    shard_clean: int = 0
    shard_cross_fallbacks: int = 0

    def snapshot(self) -> Dict[str, int]:
        """Plain-dict copy for reporting."""
        return {
            "lies_injected": self.lies_injected,
            "lies_withdrawn": self.lies_withdrawn,
            "messages_sent": self.messages_sent,
            "bytes_sent": self.bytes_sent,
            "updates_applied": self.updates_applied,
            "spf_cache_hits": self.spf_cache_hits,
            "spf_incremental_updates": self.spf_incremental_updates,
            "spf_full_recomputes": self.spf_full_recomputes,
            "spf_fallbacks": self.spf_fallbacks,
            "fib_cache_hits": self.fib_cache_hits,
            "rib_cache_hits": self.rib_cache_hits,
            "rib_incremental_updates": self.rib_incremental_updates,
            "rib_full_recomputes": self.rib_full_recomputes,
            "rib_fallbacks": self.rib_fallbacks,
            "rib_prefixes_repaired": self.rib_prefixes_repaired,
            "rib_prefixes_reused": self.rib_prefixes_reused,
            "dp_flows_rerouted": self.dp_flows_rerouted,
            "dp_flows_reused": self.dp_flows_reused,
            "dp_alloc_warm_starts": self.dp_alloc_warm_starts,
            "dp_alloc_full": self.dp_alloc_full,
            "dp_fallbacks": self.dp_fallbacks,
            "ctl_plan_cache_hits": self.ctl_plan_cache_hits,
            "ctl_plans_recomputed": self.ctl_plans_recomputed,
            "ctl_lies_injected": self.ctl_lies_injected,
            "ctl_lies_retracted": self.ctl_lies_retracted,
            "ctl_lies_kept": self.ctl_lies_kept,
            "ctl_fallbacks": self.ctl_fallbacks,
            "ctl_opt_cache_hits": self.ctl_opt_cache_hits,
            "ctl_merge_cache_hits": self.ctl_merge_cache_hits,
            "ctl_reactions_deferred": self.ctl_reactions_deferred,
            "ctl_supersessions": self.ctl_supersessions,
            "ctl_transient_loops": self.ctl_transient_loops,
            "ctl_transient_blackholes": self.ctl_transient_blackholes,
            "ctl_converge_events": self.ctl_converge_events,
            "ctl_converge_seconds": self.ctl_converge_seconds,
            "ctl_resyncs": self.ctl_resyncs,
            "ctl_resync_lies_recovered": self.ctl_resync_lies_recovered,
            "ctl_reactions_abandoned": self.ctl_reactions_abandoned,
            "ctl_stagger_lsas_dropped": self.ctl_stagger_lsas_dropped,
            "shard_waves_serial": self.shard_waves_serial,
            "shard_dirty": self.shard_dirty,
            "shard_clean": self.shard_clean,
            "shard_cross_fallbacks": self.shard_cross_fallbacks,
        }


@dataclass(frozen=True)
class ControllerUpdate:
    """One applied change: which lies were injected and withdrawn, and when."""

    time: float
    injected: Tuple[FakeNodeLsa, ...]
    withdrawn: Tuple[FakeNodeLsa, ...]
    unchanged: int

    @property
    def message_count(self) -> int:
        """LSAs sent to the network by this update."""
        return len(self.injected) + len(self.withdrawn)

    @property
    def is_noop(self) -> bool:
        """Whether nothing had to change."""
        return self.message_count == 0


class FibbingController:
    """Programs per-destination forwarding by injecting lies into the IGP."""

    def __init__(
        self,
        topology: Topology,
        name: str = "fibbing-controller",
        network: Optional[IgpNetwork] = None,
        attachment: Optional[str] = None,
        epsilon: float = DEFAULT_EPSILON,
        incremental: bool = True,
        plan_dirty_threshold: float = 0.5,
        plan_cache: Optional[PlanCache] = None,
    ) -> None:
        """Create a controller for ``topology``.

        ``incremental=False`` disables the plan cache and per-requirement
        skip logic: every ``enforce`` re-plans every requirement through
        validation, lie synthesis and the registry diff (the pre-PlanCache
        clear-and-replay engine, kept as the differential oracle).  The
        installed LSAs and resulting FIBs are bit-identical either way; only
        the ``ctl_*`` counters and the wall-clock cost differ.
        ``plan_dirty_threshold`` is the fallback knob: when more than that
        fraction of an enforce wave's requirements changed, the wave is
        re-planned in full and counted as a ``ctl_fallback``.
        """
        self.topology = topology
        self.name = name
        self.network = network
        self.epsilon = epsilon
        self.incremental = incremental
        self.registry = LieRegistry(controller=name)
        self.reconciler = LieReconciler(
            registry=self.registry,
            controller=name,
            plan_cache=plan_cache,
            plan_dirty_threshold=plan_dirty_threshold,
        )
        self._stats = ControllerStats()
        self.updates: List[ControllerUpdate] = []
        # Baseline-FIB memo keyed on the topology revision:
        # (revision, max_ecmp, fibs).  Incremental mode only.
        self._baseline_memo: Optional[Tuple[int, int, Dict[str, Fib]]] = None
        # Two route-cache lineages: the lie-free baseline view (used when
        # synthesising lies) and the lied-to view (used to predict/verify the
        # converged FIBs).  Keeping them separate means alternating between
        # the two states never ping-pongs the delta log.  Each RibCache owns
        # its SpfCache, so one object covers the SPF -> RIB -> FIB pipeline.
        self.baseline_route_cache = RibCache()
        self._lied_route_cache = RibCache()
        if network is not None and attachment is None:
            raise ControllerError(
                "an attachment router must be given when the controller drives a live network"
            )
        if attachment is not None and not topology.has_router(attachment):
            raise ControllerError(f"attachment router {attachment!r} is not in the topology")
        self.attachment = attachment
        # Crash state: a detached controller has lost its in-memory lie
        # registry and must resync() from the LSDB before enforcing again.
        self._detached = False
        if network is not None:
            network.register_controller(self)

    @property
    def plan_cache(self) -> PlanCache:
        """The controller's plan cache (shared with its optimizer/merger)."""
        return self.reconciler.plan_cache

    @property
    def baseline_spf_cache(self) -> SpfCache:
        """The baseline lineage's SPF cache (kept for API compatibility)."""
        return self.baseline_route_cache.spf_cache

    @property
    def stats(self) -> ControllerStats:
        """Controller counters; the SPF/RIB-cache fields are refreshed on read.

        The refresh happens at read time because other components may share
        the controller's caches (the load balancer hands
        ``baseline_route_cache`` to its merger) and advance the counters
        without going through a controller method.
        """
        self._sync_spf_stats()
        return self._stats

    # ------------------------------------------------------------------ #
    # Requirement enforcement
    # ------------------------------------------------------------------ #
    def enforce_requirement(
        self,
        requirement: DestinationRequirement,
        baseline_fibs: Optional[Mapping[str, Fib]] = None,
    ) -> ControllerUpdate:
        """Make the network forward as ``requirement`` asks; returns the applied diff."""
        if baseline_fibs is not None:
            # A caller-supplied baseline cannot be attested to a graph
            # version, so the plan is made from scratch and the prefix's
            # skip bookkeeping is dropped.
            self.reconciler.forget(requirement.prefix)
            plan = self._plan_requirement(requirement, baseline_fibs)
            return self._apply(plan)
        return self.enforce([requirement])[0]

    def enforce(self, requirements: RequirementSet | Iterable[DestinationRequirement]) -> List[ControllerUpdate]:
        """Enforce several requirements as one batched update wave.

        The baseline FIBs are computed once (served from the controller's
        SPF cache when nothing changed), the per-prefix lie diffs are planned
        against the registry, and every resulting LSA is shipped to the
        network in a single injection so the IGP routers see one burst and
        run one SPF/FIB recomputation wave instead of one per requirement.

        In incremental mode, a requirement whose digest and baseline graph
        version are both unchanged since its last enforcement is skipped
        outright (a ``ctl_plan_cache_hit``: no validation, no synthesis, no
        diff — the installed lies are kept); only the changed requirements
        are re-planned.  When more than ``plan_dirty_threshold`` of the wave
        changed, the whole wave is re-planned clear-and-replay style and
        counted as a ``ctl_fallback``.  Both paths install bit-identical
        LSAs — the differential suite holds the incremental engine to the
        ``incremental=False`` oracle.
        """
        self._check_attached()
        reqs = list(requirements)
        baseline_fibs = self.baseline_fibs()
        # Plans are made and committed sequentially (so a later requirement
        # for the same prefix sees the earlier one's lies and withdraws
        # them); only the network sends are deferred into the single wave.
        plans: List[LieUpdate] = []
        now = self._now()
        if not self.incremental:
            for requirement in reqs:
                plan = self._plan_requirement(requirement, baseline_fibs)
                self.registry.commit(plan, now=now)
                plans.append(plan)
            return self._apply_batch(plans, already_committed=True)

        version = self.baseline_route_cache.version
        counters = self.reconciler.counters
        dirty = sum(
            1 for requirement in reqs
            if not self.reconciler.is_clean(version, requirement)
        )
        fallback = self.reconciler.wave_fallback(len(reqs), dirty)
        if fallback:
            counters.fallbacks += 1
        # One registry snapshot serves every skipped prefix of the wave; an
        # earlier plan of the same wave can only have changed the counts of
        # prefixes it planned, which are tracked and re-read exactly.
        active_counts = self.registry.active_counts()
        planned_prefixes = set()
        for requirement in reqs:
            if not fallback and self.reconciler.is_clean(version, requirement):
                counters.plan_cache_hits += 1
                plan = self.reconciler.noop_plan(
                    requirement.prefix,
                    active_count=(
                        None
                        if requirement.prefix in planned_prefixes
                        else active_counts.get(requirement.prefix, 0)
                    ),
                )
            else:
                counters.plans_recomputed += 1
                plan = self._plan_requirement(
                    requirement, baseline_fibs, version=version
                )
            self.registry.commit(plan, now=now)
            self.reconciler.mark_enforced(version, requirement)
            planned_prefixes.add(requirement.prefix)
            plans.append(plan)
        return self._apply_batch(plans, already_committed=True)

    def _plan_requirement(
        self,
        requirement: DestinationRequirement,
        baseline_fibs: Mapping[str, Fib],
        version: Optional[int] = None,
    ) -> LieUpdate:
        """Synthesise the lies for one requirement and diff them vs the registry."""
        desired = self.reconciler.desired_lies(
            topology=self.topology,
            requirement=requirement,
            baseline_fibs=baseline_fibs,
            version=version,
            epsilon=self.epsilon,
        )
        return self.reconciler.reconcile(requirement.prefix, desired)

    def baseline_fibs(self, max_ecmp: int = DEFAULT_MAX_ECMP) -> Dict[str, Fib]:
        """Lie-free FIBs of the current topology, served from the route cache.

        In incremental mode the result is additionally memoised on the
        topology's :attr:`~repro.igp.topology.Topology.revision`: while the
        topology does not change, repeated calls return the same mapping
        without even rebuilding and re-diffing the computation graph.
        Callers must treat the mapping as read-only.
        """
        if self.incremental:
            revision = self.topology.revision
            memo = self._baseline_memo
            if memo is not None and memo[0] == revision and memo[1] == max_ecmp:
                return memo[2]
        fibs = compute_static_fibs(
            self.topology, max_ecmp=max_ecmp, rib_cache=self.baseline_route_cache
        )
        if self.incremental:
            self._baseline_memo = (self.topology.revision, max_ecmp, fibs)
        return fibs

    def baseline_version(self) -> Optional[int]:
        """Version of the current lie-free graph in the baseline lineage.

        This is the version the plan cache keys on; observing the rebuilt
        graph is a no-op when the topology did not change since the last
        baseline computation (and is skipped entirely while the topology
        revision matches the memoised baseline).
        """
        memo = self._baseline_memo
        if memo is not None and memo[0] == self.topology.revision:
            return self.baseline_route_cache.version
        graph = self.baseline_route_cache.observe(
            ComputationGraph.from_topology(self.topology)
        )
        return graph.version

    # ------------------------------------------------------------------ #
    # Crash / recovery
    # ------------------------------------------------------------------ #
    @property
    def detached(self) -> bool:
        """Whether the controller is crashed (must :meth:`resync` first)."""
        return self._detached

    def detach(self) -> None:
        """Simulate a controller crash: all in-memory lie state is lost.

        The lies themselves keep living in the network — fake LSAs sit in
        the routers' LSDBs and the routers keep forwarding on the lied
        topology, which is the paper's graceful-degradation story.  Only
        the controller's volatile state dies: the lie registry, the
        reconciler's enforcement bookkeeping and name counter, the plan
        cache contents and the baseline memo.  Counters survive (they are
        telemetry, not controller memory).  Enforcing while detached
        raises; call :meth:`resync` to re-learn the state from the LSDB.
        """
        self._detached = True
        self.registry.reset()
        self.reconciler.reset()
        self.plan_cache.invalidate()
        self._baseline_memo = None
        self.updates.clear()

    def resync(self) -> int:
        """Rebuild lie state from the network's LSDB after a crash.

        Scans the attachment router's LSDB for fake-node LSAs originated by
        this controller.  Live instances are restored as ACTIVE lies; the
        fake-node name counter resumes from the highest sequence number
        parsed across live *and* withdrawn instances (the LSDB remembers
        withdrawals, so the committed naming history is fully recoverable —
        a restarted controller allocates exactly the names a never-crashed
        one would).  The enforcement bookkeeping starts empty, so the next
        :meth:`enforce` re-plans every requirement, but reconciles against
        the recovered registry and ships only the delta.  Returns the
        number of lies recovered.
        """
        if self.network is None or self.attachment is None:
            raise ControllerError("resync requires a live network attachment")
        lsdb = self.network.routers[self.attachment].lsdb
        surviving: List[FakeNodeLsa] = []
        max_sequence = 0
        for lsa in lsdb.all_lsas():
            if not isinstance(lsa, FakeNodeLsa) or lsa.origin != self.name:
                continue
            max_sequence = max(max_sequence, self._fake_sequence(lsa.fake_node))
            if not lsa.withdrawn:
                surviving.append(lsa)
        self.registry.reset()
        recovered = self.registry.restore(surviving, now=self._now())
        self.reconciler.reset(name_counter=max_sequence)
        self.plan_cache.invalidate()
        self._baseline_memo = None
        self._detached = False
        counters = self.reconciler.counters
        counters.resyncs += 1
        counters.resync_lies_recovered += recovered
        return recovered

    @staticmethod
    def _fake_sequence(fake_node: str) -> int:
        """The allocation sequence number encoded in a fake-node name."""
        return int(fake_node.rsplit("-", 1)[1])

    def clear_prefix(self, prefix: Prefix) -> ControllerUpdate:
        """Withdraw every lie programmed for ``prefix``."""
        plan = self.registry.clear(prefix)
        self.reconciler.forget(prefix)
        return self._apply(plan)

    def clear_all(self) -> List[ControllerUpdate]:
        """Withdraw every lie the controller maintains."""
        return [self.clear_prefix(prefix) for prefix in self.registry.prefixes()]

    # ------------------------------------------------------------------ #
    # State inspection
    # ------------------------------------------------------------------ #
    def active_lies(self, prefix: Optional[Prefix] = None) -> List[FakeNodeLsa]:
        """The LSAs of the currently active lies."""
        return self.registry.active_lsas(prefix)

    def active_lie_count(self, prefix: Optional[Prefix] = None) -> int:
        """How many lies are currently active (optionally per prefix)."""
        return self.registry.active_count(prefix)

    def static_fibs(self, max_ecmp: int = DEFAULT_MAX_ECMP) -> Dict[str, Fib]:
        """Converged FIBs of every router under the currently active lies.

        Served through the controller's versioned route cache: when neither
        the topology nor the lie set changed since the previous call the
        cached FIB set is returned outright, and after a lie churn only the
        affected SPF subtrees and dirty prefixes are repaired.
        """
        return compute_static_fibs(
            self.topology,
            self.active_lies(),
            max_ecmp=max_ecmp,
            rib_cache=self._lied_route_cache,
        )

    def current_fibs(self) -> Dict[str, Fib]:
        """FIBs to verify against: the live network's if attached, else static."""
        if self.network is not None:
            return self.network.fibs()
        return self.static_fibs()

    def verify_requirement(
        self,
        requirement: DestinationRequirement,
        fibs: Optional[Mapping[str, Fib]] = None,
        tolerance: float = 1e-6,
    ) -> List[str]:
        """Check that the installed FIBs realise ``requirement``.

        Returns a list of human-readable violations (empty when the network
        forwards exactly as requested).  The on-demand load balancer calls
        this after the IGP has re-converged as a closed-loop sanity check;
        tests use it to prove that synthesised lies do what they promise.
        """
        if fibs is None:
            fibs = self.current_fibs()
        violations: List[str] = []
        for router, weights in requirement:
            total = sum(weights.values())
            expected = {next_hop: weight / total for next_hop, weight in weights.items()}
            fib = fibs.get(router)
            if fib is None or not fib.has_entry(requirement.prefix):
                violations.append(
                    f"{router}: no FIB entry for {requirement.prefix}"
                )
                continue
            realised = fib.split_ratios(requirement.prefix)
            if set(realised) != set(expected):
                violations.append(
                    f"{router}: next hops {sorted(realised)} differ from required "
                    f"{sorted(expected)}"
                )
                continue
            for next_hop, fraction in expected.items():
                if abs(realised[next_hop] - fraction) > tolerance:
                    violations.append(
                        f"{router}: share toward {next_hop} is {realised[next_hop]:.4f}, "
                        f"required {fraction:.4f}"
                    )
        return violations

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _now(self) -> float:
        if self.network is not None:
            return self.network.timeline.now
        return 0.0

    def _check_attached(self) -> None:
        """Raise when the controller is crashed and must resync first."""
        if self._detached:
            raise ControllerError(
                f"controller {self.name!r} is detached (crashed); resync() before enforcing"
            )

    def _apply(self, plan: LieUpdate) -> ControllerUpdate:
        return self._apply_batch([plan])[0]

    def _apply_batch(
        self, plans: List[LieUpdate], already_committed: bool = False
    ) -> List[ControllerUpdate]:
        """Ship several per-prefix plans as one LSA wave and commit them.

        All inject/withdraw LSAs of the whole batch enter the network through
        a single :meth:`~repro.igp.network.IgpNetwork.inject` call, so the
        routers' SPF hold-down timers coalesce the burst into one
        recomputation wave.
        """
        self._check_attached()
        now = self._now()
        to_send: List[Lsa] = []
        plan_messages: List[List[Lsa]] = []
        for plan in plans:
            messages: List[Lsa] = list(plan.to_inject)
            messages.extend(lsa.withdraw() for lsa in plan.to_withdraw)
            plan_messages.append(messages)
            to_send.extend(messages)
        if self.network is not None and to_send:
            assert self.attachment is not None  # enforced in __init__
            self.network.inject(to_send, at_router=self.attachment)

        applied: List[ControllerUpdate] = []
        for plan, messages in zip(plans, plan_messages):
            if not already_committed:
                self.registry.commit(plan, now=now)
            update = ControllerUpdate(
                time=now,
                injected=plan.to_inject,
                withdrawn=plan.to_withdraw,
                unchanged=plan.unchanged,
            )
            self.updates.append(update)
            applied.append(update)
            self.reconciler.record_applied(plan)
            self._stats.updates_applied += 1
            self._stats.lies_injected += len(plan.to_inject)
            self._stats.lies_withdrawn += len(plan.to_withdraw)
            self._stats.messages_sent += len(messages)
            self._stats.bytes_sent += sum(lsa.size_bytes for lsa in messages)
        return applied

    def _sync_spf_stats(self) -> None:
        """Mirror the SPF and RIB cache counters into :class:`ControllerStats`."""
        total = SpfCounters()
        rib_total = RibCounters()
        for route_cache in (self.baseline_route_cache, self._lied_route_cache):
            total.merge(route_cache.spf_cache.counters)
            rib_total.merge(route_cache.counters)
        self._stats.spf_cache_hits = total.hits
        self._stats.spf_incremental_updates = total.incremental_updates
        self._stats.spf_full_recomputes = total.full_recomputes
        self._stats.spf_fallbacks = total.fallbacks
        self._stats.fib_cache_hits = total.fib_cache_hits
        self._stats.rib_cache_hits = rib_total.hits
        self._stats.rib_incremental_updates = rib_total.incremental_updates
        self._stats.rib_full_recomputes = rib_total.full_recomputes
        self._stats.rib_fallbacks = rib_total.fallbacks
        self._stats.rib_prefixes_repaired = rib_total.prefixes_repaired
        self._stats.rib_prefixes_reused = rib_total.prefixes_reused
        ctl = self.reconciler.counters
        self._stats.ctl_plan_cache_hits = ctl.plan_cache_hits
        self._stats.ctl_plans_recomputed = ctl.plans_recomputed
        self._stats.ctl_lies_injected = ctl.lies_injected
        self._stats.ctl_lies_retracted = ctl.lies_retracted
        self._stats.ctl_lies_kept = ctl.lies_kept
        self._stats.ctl_fallbacks = ctl.fallbacks
        self._stats.ctl_opt_cache_hits = ctl.opt_cache_hits
        self._stats.ctl_merge_cache_hits = ctl.merge_cache_hits
        self._stats.ctl_reactions_deferred = ctl.reactions_deferred
        self._stats.ctl_supersessions = ctl.supersessions
        self._stats.ctl_transient_loops = ctl.transient_loops
        self._stats.ctl_transient_blackholes = ctl.transient_blackholes
        self._stats.ctl_converge_events = ctl.converge_events
        self._stats.ctl_converge_seconds = ctl.converge_seconds
        self._stats.ctl_resyncs = ctl.resyncs
        self._stats.ctl_resync_lies_recovered = ctl.resync_lies_recovered
        self._stats.ctl_reactions_abandoned = ctl.reactions_abandoned
        self._stats.ctl_stagger_lsas_dropped = ctl.stagger_lsas_dropped
        if self.network is not None:
            # The data plane hangs off the live network; its counters are
            # part of the controller's end-to-end reaction accounting.
            dataplane = self.network.dataplane_counters()
            self._stats.dp_flows_rerouted = dataplane.flows_rerouted
            self._stats.dp_flows_reused = dataplane.flows_reused
            self._stats.dp_alloc_warm_starts = dataplane.alloc_warm_starts
            self._stats.dp_alloc_full = dataplane.alloc_full
            self._stats.dp_fallbacks = dataplane.fallbacks

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"FibbingController(name={self.name!r}, active_lies={self.active_lie_count()}, "
            f"attached={'yes' if self.network is not None else 'no'})"
        )
