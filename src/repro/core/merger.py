"""Lie reduction (the "merger" pass).

The original Fibbing work devotes significant effort to keeping the number
of injected fake nodes small — the demo paper leans on that property when it
claims "very limited control-plane overhead".  This module implements the
reductions that matter for the load-balancing use case:

* **No-op pruning** — a router whose required split is exactly what the IGP
  already computes needs no lies at all.  After the LP, most transit routers
  fall in this category (e.g. R1–R4 in the demo need nothing).
* **Weight reduction** — weight vectors are divided by their greatest common
  divisor (a 2:2 split becomes 1:1), and optionally re-approximated with a
  smaller denominator when the resulting split stays within a configurable
  error tolerance.

The :class:`MergeReport` records how many ECMP entries and lies each step
saved, which feeds the lie-count scaling ablation (DESIGN.md, A2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from repro.core.reconciler import MergedPlan, PlanCache
from repro.core.requirements import DestinationRequirement, RequirementSet
from repro.core.splitting import approximate_ratios, split_error, weights_to_fractions
from repro.igp.fib import Fib
from repro.igp.network import compute_static_fibs
from repro.igp.topology import Topology
from repro.util.errors import ControllerError
from repro.util.validation import check_non_negative

__all__ = ["reduce_weights", "MergeReport", "LieMerger"]


def reduce_weights(weights: Mapping[str, int]) -> Dict[str, int]:
    """Divide a weight vector by its greatest common divisor.

    >>> reduce_weights({"a": 2, "b": 4})
    {'a': 1, 'b': 2}
    """
    positive = {key: int(value) for key, value in weights.items() if value > 0}
    if not positive:
        raise ControllerError("cannot reduce an empty weight vector")
    divisor = 0
    for value in positive.values():
        divisor = math.gcd(divisor, value)
    return {key: value // divisor for key, value in positive.items()}


@dataclass
class MergeReport:
    """Accounting of what the merger saved."""

    routers_examined: int = 0
    routers_pruned: int = 0
    entries_before: int = 0
    entries_after: int = 0
    per_prefix: Dict[str, Tuple[int, int]] = field(default_factory=dict)

    @property
    def entries_saved(self) -> int:
        """ECMP entries (and hence fake nodes, roughly) avoided by the merger."""
        return self.entries_before - self.entries_after


class LieMerger:
    """Reduces requirements before they are turned into lies."""

    def __init__(
        self,
        topology: Topology,
        tolerance: float = 0.0,
        max_entries: int = 16,
        plan_cache: Optional[PlanCache] = None,
    ) -> None:
        self.topology = topology
        self.tolerance = check_non_negative(tolerance, "tolerance")
        if max_entries < 1:
            raise ControllerError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        # Optional: the controller's plan cache.  When present, the merged
        # weight map of a requirement is reused wholesale as long as neither
        # the requirement (digest) nor the baseline graph (its version in the
        # controller's baseline lineage) changed.
        self.plan_cache = plan_cache

    # ------------------------------------------------------------------ #
    # Single requirement
    # ------------------------------------------------------------------ #
    def optimize_requirement(
        self,
        requirement: DestinationRequirement,
        baseline_fibs: Mapping[str, Fib],
        report: Optional[MergeReport] = None,
        plan_version: Optional[int] = None,
    ) -> DestinationRequirement:
        """Return an equivalent (or tolerance-close) requirement with fewer entries.

        With a plan cache and a ``plan_version`` (the baseline graph version
        the supplied FIBs were resolved at), the reduced weight map — and
        its exact report accounting — is replayed from the cache when the
        requirement was already merged at that version.
        """
        if report is None:
            report = MergeReport()

        cached: Optional[MergedPlan] = None
        if self.plan_cache is not None and plan_version is not None:
            cached = self.plan_cache.merged(
                plan_version, requirement, self.tolerance, self.max_entries
            )
        if cached is not None:
            self.plan_cache.counters.merge_cache_hits += 1
            return self._replay(cached, report)

        pruned: Dict[str, Dict[str, int]] = {}
        entries_before = requirement.total_entries()
        routers_examined = 0
        routers_pruned = 0
        for router in requirement.routers:
            routers_examined += 1
            weights = reduce_weights(requirement.weights_at(router))
            if self.tolerance > 0:
                weights = self._shrink_within_tolerance(weights)
            if self._matches_default(router, requirement, weights, baseline_fibs):
                routers_pruned += 1
                continue
            pruned[router] = weights

        optimized = DestinationRequirement(prefix=requirement.prefix, next_hops=pruned)
        merged = MergedPlan(
            requirement=optimized,
            routers_examined=routers_examined,
            routers_pruned=routers_pruned,
            entries_before=entries_before,
            entries_after=optimized.total_entries(),
        )
        if self.plan_cache is not None and plan_version is not None:
            self.plan_cache.store_merged(
                plan_version, requirement, self.tolerance, self.max_entries, merged
            )
        return self._replay(merged, report)

    @staticmethod
    def _replay(merged: MergedPlan, report: MergeReport) -> DestinationRequirement:
        """Fold one (fresh or cached) merge outcome into ``report``."""
        report.routers_examined += merged.routers_examined
        report.routers_pruned += merged.routers_pruned
        report.entries_before += merged.entries_before
        report.entries_after += merged.entries_after
        report.per_prefix[str(merged.requirement.prefix)] = (
            merged.entries_before,
            merged.entries_after,
        )
        return merged.requirement

    # ------------------------------------------------------------------ #
    # Whole requirement sets
    # ------------------------------------------------------------------ #
    def optimize(
        self,
        requirements: RequirementSet,
        baseline_fibs: Optional[Mapping[str, Fib]] = None,
        plan_version: Optional[int] = None,
    ) -> Tuple[RequirementSet, MergeReport]:
        """Optimise every requirement of a set; returns the new set and a report.

        ``baseline_fibs`` is the lie-free view to prune against (the load
        balancer hands over its controller's
        :meth:`~repro.core.controller.FibbingController.baseline_fibs` with
        its graph version as ``plan_version``); without one, the
        topology's lie-free FIBs are computed once for this call.
        """
        if baseline_fibs is None:
            baseline_fibs = compute_static_fibs(self.topology)
        report = MergeReport()
        optimized = RequirementSet()
        for requirement in requirements:
            reduced = self.optimize_requirement(
                requirement, baseline_fibs, report, plan_version=plan_version
            )
            if reduced.routers:
                optimized.add(reduced)
        return optimized, report

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _shrink_within_tolerance(self, weights: Dict[str, int]) -> Dict[str, int]:
        """Find the smallest-denominator weights within ``tolerance`` of ``weights``."""
        desired = weights_to_fractions(weights)
        current_total = sum(weights.values())
        best = weights
        for denominator in range(1, current_total):
            candidate = approximate_ratios(desired, max_entries=denominator)
            if sum(candidate.values()) > denominator:
                continue
            if split_error(desired, candidate) <= self.tolerance:
                best = candidate
                break
        return best

    def _matches_default(
        self,
        router: str,
        requirement: DestinationRequirement,
        weights: Dict[str, int],
        baseline_fibs: Mapping[str, Fib],
    ) -> bool:
        """Whether the IGP already forwards exactly as the (reduced) requirement asks."""
        fib = baseline_fibs.get(router)
        if fib is None or not fib.has_entry(requirement.prefix):
            return False
        prefix_fib = fib.lookup(requirement.prefix)
        if prefix_fib.local and not prefix_fib.entries:
            return False
        default_split = prefix_fib.split_ratios()
        required_split = weights_to_fractions(weights)
        if set(default_split) != set(required_split):
            return False
        return all(
            abs(default_split[next_hop] - required_split[next_hop]) <= 1e-9
            for next_hop in required_split
        )
