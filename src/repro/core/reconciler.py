"""Incremental controller reconciliation: plan caching and minimal lie deltas.

This is the SPF/RIB/data-plane repair pattern applied to the *controller*
layer, closing the last from-scratch stage of the reaction pipeline
(monitoring → controller → lies → SPF → RIB → data plane).  Two pieces:

* :class:`PlanCache` — versioned memoisation of the planning artefacts,
  keyed on ``(baseline graph version, requirement digest)`` atop the same
  lineage the controller's :class:`~repro.igp.rib_cache.RibCache` maintains:
  the name-free :class:`~repro.core.augmentation.LieShape` tuples a
  requirement synthesises into, the merger's reduced weight maps, and whole
  :class:`~repro.core.optimizer.OptimizationResult` objects.  When neither
  the topology (version) nor a requirement (digest) changed, the previous
  plan is reused wholesale — no validation walk, no lie synthesis, no LP.

* :class:`LieReconciler` — turns a desired per-prefix lie set into the
  *minimal* retract/inject delta against the lies already installed
  (diffing on behavioural signature: anchor, forwarding address, reduced
  cost), allocates fake-node names only for lies that are actually
  injected, and keeps the per-prefix ``(version, digest)`` bookkeeping that
  lets :meth:`~repro.core.controller.FibbingController.enforce` skip clean
  requirements outright.  However many requirements of a wave moved, only
  those are re-planned: a clean one re-planned would diff to a no-op.

Name allocation is deliberately a function of the *committed* lie history
only (a counter that advances once per injected lie), never of how many
plans were computed: an incremental controller that skips nine clean
requirements and re-plans the tenth must install bit-identical LSAs — same
fake-node names — as the oracle that re-plans all ten.  The differential
suite ``tests/test_controller_incremental.py`` enforces exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.core.augmentation import LieShape, synthesize_lie_shapes
from repro.core.lies import LieRegistry, LieUpdate
from repro.core.requirements import DestinationRequirement
from repro.igp.fib import Fib
from repro.igp.lsa import FakeNodeLsa
from repro.util.counters import Counters, counter
from repro.util.prefixes import Prefix

if TYPE_CHECKING:  # pragma: no cover - typing only
    from typing import Mapping

    from repro.core.optimizer import OptimizationResult
    from repro.igp.topology import Topology

__all__ = [
    "CtlCounters",
    "MergedPlan",
    "PlanCache",
    "LieReconciler",
]


@dataclass
class CtlCounters(Counters):
    """Reconciliation accounting of one controller (the ``ctl_*`` counters).

    ``plan_cache_hits`` are requirements served without any planning work
    (version and digest unchanged, installed lies kept as-is);
    ``plans_recomputed`` went through synthesis + diff.  ``lies_injected`` /
    ``lies_retracted`` / ``lies_kept`` break every applied plan down into
    actual network churn versus state carried over.  ``opt_cache_hits`` and
    ``merge_cache_hits`` count whole optimisation results and merged weight
    maps reused from the :class:`PlanCache`.
    """

    plan_cache_hits: int = counter("ctl_plan_cache_hits")
    plans_recomputed: int = counter("ctl_plans_recomputed")
    lies_injected: int = counter("ctl_lies_injected")
    lies_retracted: int = counter("ctl_lies_retracted")
    lies_kept: int = counter("ctl_lies_kept")
    opt_cache_hits: int = counter("ctl_opt_cache_hits")
    merge_cache_hits: int = counter("ctl_merge_cache_hits")
    # Asynchronous control-loop accounting (see core.scheduler): reactions
    # deferred past the controller's reaction latency, pending reactions
    # superseded by a fresher alarm, data-plane entities caught looping or
    # blackholed on mixed-FIB interim states while an injection wave
    # converged, and the FIB-install churn/time those waves cost.
    reactions_deferred: int = counter("ctl_reactions_deferred")
    supersessions: int = counter("ctl_supersessions")
    transient_loops: int = counter("ctl_transient_loops")
    transient_blackholes: int = counter("ctl_transient_blackholes")
    converge_events: int = counter("ctl_converge_events")
    converge_seconds: float = counter("ctl_converge_seconds", 0.0)
    # Crash/recovery accounting (see FibbingController.detach/resync and
    # core.chaos): controller restarts that re-learned state from the LSDB,
    # surviving lies recovered that way, and in-flight reactions abandoned
    # because their baseline topology revision moved (or the controller
    # detached) before they fired.
    resyncs: int = counter("ctl_resyncs")
    resync_lies_recovered: int = counter("ctl_resync_lies_recovered")
    reactions_abandoned: int = counter("ctl_reactions_abandoned")

    @property
    def plans_served(self) -> int:
        """Total per-requirement plans served (hits + recomputations)."""
        return self.plan_cache_hits + self.plans_recomputed


@dataclass(frozen=True)
class MergedPlan:
    """A cached merger outcome for one requirement, report deltas included.

    The report deltas ride along so that a cache hit replays exactly the
    :class:`~repro.core.merger.MergeReport` accounting a fresh merger pass
    would have produced — reports stay bit-identical either way.
    """

    requirement: DestinationRequirement
    routers_examined: int
    routers_pruned: int
    entries_before: int
    entries_after: int


class PlanCache:
    """Versioned cache of controller planning artefacts.

    All three families — lie shapes, merged requirements, optimisation
    results — are keyed on the baseline (lie-free) graph version of the
    controller's route-cache lineage plus a content digest, so a topology
    change invalidates everything implicitly and a requirement change
    invalidates exactly that requirement.  Only the two most recent versions
    are retained: the planning artefacts of older graph states can never be
    served again (versions are monotone), so keeping them would only leak.
    """

    def __init__(self, counters: Optional[CtlCounters] = None) -> None:
        self.counters = counters if counters is not None else CtlCounters()
        self._shapes: Dict[Tuple[int, str, float], Tuple[LieShape, ...]] = {}
        self._merged: Dict[Tuple[int, str, float, int], MergedPlan] = {}
        self._optimizations: Dict[Tuple, "OptimizationResult"] = {}
        self._versions: List[int] = []

    # ------------------------------------------------------------------ #
    # Version lineage
    # ------------------------------------------------------------------ #
    def observe_version(self, version: int) -> None:
        """Note that ``version`` is current; evict entries of older versions."""
        if version in self._versions:
            return
        self._versions.append(version)
        if len(self._versions) <= 2:
            return
        keep = set(self._versions[-2:])
        self._versions = self._versions[-2:]
        self._shapes = {k: v for k, v in self._shapes.items() if k[0] in keep}
        self._merged = {k: v for k, v in self._merged.items() if k[0] in keep}
        self._optimizations = {
            k: v for k, v in self._optimizations.items() if k[0] in keep
        }

    def invalidate(self) -> None:
        """Drop every cached plan (counters survive)."""
        self._shapes.clear()
        self._merged.clear()
        self._optimizations.clear()
        self._versions.clear()

    # ------------------------------------------------------------------ #
    # Lie shapes
    # ------------------------------------------------------------------ #
    def shapes(
        self, version: int, requirement: DestinationRequirement, epsilon: float
    ) -> Optional[Tuple[LieShape, ...]]:
        """The cached lie shapes of ``requirement`` at ``version`` (or ``None``)."""
        self.observe_version(version)
        return self._shapes.get((version, requirement.digest(), epsilon))

    def store_shapes(
        self,
        version: int,
        requirement: DestinationRequirement,
        epsilon: float,
        shapes: Tuple[LieShape, ...],
    ) -> None:
        """Remember the shapes ``requirement`` synthesises into at ``version``."""
        self.observe_version(version)
        self._shapes[(version, requirement.digest(), epsilon)] = shapes

    # ------------------------------------------------------------------ #
    # Merged weight maps (the merger's reduced requirements)
    # ------------------------------------------------------------------ #
    def merged(
        self,
        version: int,
        requirement: DestinationRequirement,
        tolerance: float,
        max_entries: int,
    ) -> Optional[MergedPlan]:
        """The cached merger outcome for ``requirement`` at ``version``."""
        self.observe_version(version)
        return self._merged.get(
            (version, requirement.digest(), tolerance, max_entries)
        )

    def store_merged(
        self,
        version: int,
        requirement: DestinationRequirement,
        tolerance: float,
        max_entries: int,
        plan: MergedPlan,
    ) -> None:
        """Remember a merger outcome (reduced requirement + report deltas)."""
        self.observe_version(version)
        self._merged[(version, requirement.digest(), tolerance, max_entries)] = plan

    # ------------------------------------------------------------------ #
    # Whole optimisation results
    # ------------------------------------------------------------------ #
    def optimization(self, key: Tuple) -> Optional["OptimizationResult"]:
        """The cached LP solution under ``key`` (built by the optimizer)."""
        self.observe_version(key[0])
        return self._optimizations.get(key)

    def store_optimization(self, key: Tuple, result: "OptimizationResult") -> None:
        """Remember one LP solution under its environment key."""
        self.observe_version(key[0])
        self._optimizations[key] = result

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"PlanCache(shapes={len(self._shapes)}, merged={len(self._merged)}, "
            f"optimizations={len(self._optimizations)})"
        )


class LieReconciler:
    """Plans per-prefix lie sets and emits minimal deltas against the registry."""

    def __init__(
        self,
        registry: LieRegistry,
        controller: str = "fibbing-controller",
        plan_cache: Optional[PlanCache] = None,
    ) -> None:
        self.registry = registry
        self.controller = controller
        self.plan_cache = plan_cache if plan_cache is not None else PlanCache()
        # Last enforced (baseline version, requirement digest) per prefix;
        # a matching pair means the installed lies already realise the
        # requirement and the whole planning pass can be skipped.
        self._enforced: Dict[Prefix, Tuple[int, str]] = {}
        # Advances once per *injected* lie — never per synthesis — so the
        # name sequence is a function of the committed history only (see
        # module docstring).
        self._name_counter = 0

    @property
    def counters(self) -> CtlCounters:
        """The reconciliation counters (shared with the plan cache)."""
        return self.plan_cache.counters

    # ------------------------------------------------------------------ #
    # Cleanliness bookkeeping
    # ------------------------------------------------------------------ #
    def is_clean(self, version: int, requirement: DestinationRequirement) -> bool:
        """Whether ``requirement`` is already in force at graph ``version``."""
        return self._enforced.get(requirement.prefix) == (
            version,
            requirement.digest(),
        )

    def mark_enforced(self, version: int, requirement: DestinationRequirement) -> None:
        """Record that ``requirement`` was planned and applied at ``version``."""
        self._enforced[requirement.prefix] = (version, requirement.digest())

    def forget(self, prefix: Prefix) -> None:
        """Drop the bookkeeping for ``prefix`` (after a clear or manual edit)."""
        self._enforced.pop(prefix, None)

    def reset(self, name_counter: int = 0) -> None:
        """Wipe the enforcement bookkeeping and restart the name sequence.

        Used by crash/recovery: a restarted controller re-learns its lies
        from the LSDB and must continue the fake-node name sequence exactly
        where the committed history left off, so ``name_counter`` is set to
        the highest sequence number parsed from the surviving (and
        withdrawn) fake-node LSAs — never re-derived from live lies alone.
        """
        self._enforced.clear()
        self._name_counter = name_counter

    # ------------------------------------------------------------------ #
    # Planning
    # ------------------------------------------------------------------ #
    def desired_lies(
        self,
        topology: "Topology",
        requirement: DestinationRequirement,
        baseline_fibs: "Mapping[str, Fib]",
        version: Optional[int],
        epsilon: float,
    ) -> List[FakeNodeLsa]:
        """The LSAs ``requirement`` needs, carrying placeholder names.

        Shapes are served from the plan cache when the ``(version, digest)``
        key is known; names are provisional (``pending-<n>``) until
        :meth:`reconcile` decides which lies are actually injected.
        """
        shapes: Optional[Tuple[LieShape, ...]] = None
        if version is not None:
            shapes = self.plan_cache.shapes(version, requirement, epsilon)
        if shapes is None:
            shapes = synthesize_lie_shapes(
                topology, requirement, epsilon=epsilon, baseline_fibs=baseline_fibs
            )
            if version is not None:
                self.plan_cache.store_shapes(version, requirement, epsilon, shapes)
        return [
            FakeNodeLsa(
                origin=self.controller,
                fake_node=f"pending-{index + 1}",
                anchor=shape.anchor,
                link_cost=shape.link_cost,
                prefix=requirement.prefix,
                prefix_cost=shape.prefix_cost,
                forwarding_address=shape.forwarding_address,
            )
            for index, shape in enumerate(shapes)
        ]

    def reconcile(self, prefix: Prefix, desired: List[FakeNodeLsa]) -> LieUpdate:
        """Diff ``desired`` against the installed lies; name the injections.

        Matching is by behavioural signature, so unchanged lies keep their
        installed LSA (and name) untouched; only genuinely new lies receive
        a fresh name from the committed-history counter.
        """
        plan = self.registry.plan_update(prefix, desired)
        if not plan.to_inject:
            return plan
        named = tuple(
            replace(lsa, fake_node=self._allocate_name(lsa.anchor))
            for lsa in plan.to_inject
        )
        return LieUpdate(
            prefix=plan.prefix,
            to_inject=named,
            to_withdraw=plan.to_withdraw,
            unchanged=plan.unchanged,
        )

    def noop_plan(self, prefix: Prefix) -> LieUpdate:
        """The plan of a clean requirement: everything installed is kept."""
        return LieUpdate(
            prefix=prefix,
            to_inject=(),
            to_withdraw=(),
            unchanged=self.registry.active_count(prefix),
        )

    def record_applied(self, plan: LieUpdate) -> None:
        """Fold one applied plan into the churn counters (both modes)."""
        self.counters.lies_injected += len(plan.to_inject)
        self.counters.lies_retracted += len(plan.to_withdraw)
        self.counters.lies_kept += plan.unchanged

    def _allocate_name(self, anchor: str) -> str:
        self._name_counter += 1
        return f"{self.controller}-fake-{anchor}-{self._name_counter}"

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"LieReconciler(enforced_prefixes={len(self._enforced)}, "
            f"counters={self.counters.snapshot()})"
        )
