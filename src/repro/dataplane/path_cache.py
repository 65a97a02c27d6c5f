"""Path caching keyed on FIB entries and warm-start max-min fairness.

This is the SPF/RIB cache architecture applied to the data plane.  Where
:class:`~repro.igp.rib_cache.RibCache` repairs per-router routes from the
graph's dirty prefixes, the data plane repairs per-class state from the
dirty *(router, prefix)* FIB entries of an event:

* :class:`FlowPathCache` diffs every observed FIB set against the previous
  one and indexes each cached class walk by the *(router, prefix)* entries
  it crossed — a class (a flow is a one-session class) only needs
  re-walking when one of those entries moved, because its hop-by-hop ECMP
  walk depends on nothing else.
* :class:`WarmStartAllocator` repairs a prior max-min fair allocation by
  re-running progressive filling only on the connected components (of the
  flow-link hypergraph) whose flow membership changed.
  Components are filled through the exact
  :func:`~repro.dataplane.fairness.fill_component` routine the from-scratch
  allocator uses, so a repaired allocation is bit-identical to a full one.
  A primed allocator always repairs, even when every flow is dirty; the
  full decomposition runs only on a cold allocator.

:class:`DataPlaneCounters` is the accounting mirror of
:class:`~repro.igp.rib_cache.RibCounters` one layer down the stack; the
engine surfaces it through ``IgpNetwork.spf_stats`` and ``ControllerStats``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Mapping, Optional, Set, Tuple

from repro.dataplane.fairness import (
    decompose_components,
    fill_component,
    rate_tolerance,
)
from repro.igp.fib import Fib
from repro.util.counters import Counters, counter
from repro.util.prefixes import Prefix

__all__ = [
    "DataPlaneCounters",
    "FibEntryKey",
    "FlowPathCache",
    "AllocationRepair",
    "WarmStartAllocator",
]

LinkKey = Tuple[str, str]

#: One per-prefix forwarding entry of one router — the unit of data-plane
#: dirtiness, mirroring the RIB cache's dirty prefixes.
FibEntryKey = Tuple[str, Prefix]

#: Allocation inputs as the allocator sees them: the effective links of the
#: entity's path (empty when undeliverable), its effective *per-session*
#: demand (zero when undeliverable, so the entity sends nothing) and its
#: session count (1 for plain flows, ``n`` for an aggregate path group).
FlowInput = Tuple[Tuple[LinkKey, ...], float, int]


@dataclass
class DataPlaneCounters(Counters):
    """Re-walk/reuse and warm-start accounting of one incremental data plane.

    ``classes_rewalked`` / ``classes_reused`` split every event's active
    classes (a flow is a one-session class) into re-walked forwarding DAGs
    vs. walks served from the path cache.  ``class_splits`` counts the
    per-session ECMP hash partitions the walks performed (the only place
    the engine does O(sessions) work).  Each allocation event increments
    exactly one of ``alloc_warm_starts`` (per-component repair) or
    ``alloc_full`` (from-scratch decomposition of a cold allocator).
    """

    alloc_warm_starts: int = counter("dp_alloc_warm_starts")
    alloc_full: int = counter("dp_alloc_full")
    classes_rewalked: int = counter("dp_classes_rewalked")
    classes_reused: int = counter("dp_classes_reused")
    class_splits: int = counter("dp_classes_splits")

    @property
    def alloc_events(self) -> int:
        """Total allocation passes performed."""
        return self.alloc_warm_starts + self.alloc_full


class FlowPathCache:
    """Which cached class walks cross which FIB entries.

    :meth:`observe` diffs each event's FIB snapshot against the previous one
    and returns every changed *(router, prefix)* entry; :meth:`dirty_flows`
    names the classes whose cached walk crossed one of them — the only
    ones that need re-walking, because the hop-by-hop ECMP walk of a class
    depends on nothing else.  The diff leans on the control plane's own
    incrementality: routers served by the RIB cache reuse clean
    :class:`~repro.igp.fib.Fib` and ``PrefixFib`` objects wholesale, so
    unchanged routers are dismissed by identity without looking at a
    single prefix.
    """

    def __init__(self) -> None:
        self._fibs: Dict[str, Fib] = {}
        self._deps: Dict[int, Tuple[FibEntryKey, ...]] = {}
        self._watchers: Dict[FibEntryKey, Set[int]] = {}

    def observe(self, fibs: Mapping[str, Fib]) -> Set[FibEntryKey]:
        """Diff ``fibs`` against the previous snapshot; returns the dirty entries.

        Every *(router, prefix)* pair whose forwarding entry appeared,
        disappeared or changed is returned.
        """
        dirty: Set[FibEntryKey] = set()
        previous = self._fibs
        for router in previous.keys() | fibs.keys():
            old = previous.get(router)
            new = fibs.get(router)
            if old is new:
                continue
            if old is None:
                changed: Iterable[Prefix] = new.prefixes  # type: ignore[union-attr]
            elif new is None:
                changed = old.prefixes
            else:
                changed = old.changed_prefixes(new)
            for prefix in changed:
                dirty.add((router, prefix))
        self._fibs = dict(fibs)
        return dirty

    def store_entity(self, entity_id: int, prefix: Prefix, hops: Iterable[str]) -> None:
        """Cache the walk of one demand class.

        ``hops`` is every router the walk visited — the union of all the
        class's path groups' hops.  The walk consulted the FIB entry for
        ``prefix`` at each of them (the last hop's entry decided
        termination), so those entries are exactly what it depends on.
        """
        self.drop(entity_id)
        deps = tuple((hop, prefix) for hop in dict.fromkeys(hops))
        self._deps[entity_id] = deps
        for dep in deps:
            self._watchers.setdefault(dep, set()).add(entity_id)

    def drop(self, entity_id: int) -> None:
        """Forget the cached walk of a departed (or about-to-be-re-walked) class."""
        deps = self._deps.pop(entity_id, None)
        if deps is None:
            return
        for dep in deps:
            watchers = self._watchers.get(dep)
            if watchers is not None:
                watchers.discard(entity_id)
                if not watchers:
                    del self._watchers[dep]

    def dirty_flows(self, dirty_entries: Iterable[FibEntryKey]) -> Set[int]:
        """The cached classes whose walk crosses one of ``dirty_entries``."""
        entities: Set[int] = set()
        for key in dirty_entries:
            watchers = self._watchers.get(key)
            if watchers:
                entities.update(watchers)
        return entities

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"FlowPathCache(entities={len(self._deps)}, watched={len(self._watchers)})"


@dataclass(frozen=True)
class AllocationRepair:
    """Outcome of one :meth:`WarmStartAllocator.update` pass.

    ``mode`` is ``"warm"``, ``"full"`` or ``None`` (nothing was dirty, the
    previous rates stand).  ``rate_changed`` lists the active flows whose
    allocated rate differs bitwise from before the update.
    """

    mode: Optional[str]
    rate_changed: FrozenSet[int]


@dataclass
class _Component:
    """One connected component of the flow-link hypergraph."""

    flow_ids: Tuple[int, ...]
    links: FrozenSet[LinkKey]


class WarmStartAllocator:
    """Max-min fair allocation with per-component warm-start repair."""

    def __init__(self) -> None:
        #: Current per-flow rates; the engine reads this mapping directly.
        self.rates: Dict[int, float] = {}
        self._inputs: Dict[int, FlowInput] = {}
        self._components: Dict[int, _Component] = {}
        self._flow_component: Dict[int, int] = {}
        self._link_component: Dict[LinkKey, int] = {}
        self._next_component = 0
        self._primed = False

    def reset(self) -> None:
        """Make the next :meth:`update` a full fill (a link capacity moved)."""
        self._primed = False

    # ------------------------------------------------------------------ #
    # Updates
    # ------------------------------------------------------------------ #
    def update(
        self,
        changed: Mapping[int, FlowInput],
        removed: Iterable[int],
        capacities: Mapping[LinkKey, float],
    ) -> AllocationRepair:
        """Repair the allocation after one event.

        ``changed`` carries the new (links, demand) input of every arrived or
        re-routed flow whose input actually moved; ``removed`` the departed
        flow ids.  Flows not mentioned are trusted to be untouched.
        """
        removed = [flow_id for flow_id in removed if flow_id in self._inputs]

        # Seed the dirty component set from the *previous* partition before
        # the inputs are mutated: the old component of every changed/removed
        # flow and the current component of every link a changed flow now
        # touches.
        affected: Set[int] = set()
        for flow_id in removed:
            component = self._flow_component.get(flow_id)
            if component is not None:
                affected.add(component)
        for flow_id, (links, _demand, _count) in changed.items():
            component = self._flow_component.get(flow_id)
            if component is not None:
                affected.add(component)
            for link in links:
                component = self._link_component.get(link)
                if component is not None:
                    affected.add(component)

        if not changed and not removed:
            if not self._primed:
                return self._full(capacities)
            # A pure no-op event cannot move any rate.
            return AllocationRepair(mode=None, rate_changed=frozenset())

        for flow_id in removed:
            del self._inputs[flow_id]
        self._inputs.update(changed)

        if not self._primed:
            return self._full(capacities)

        recompute: Set[int] = set(changed)
        for component in affected:
            recompute.update(self._components[component].flow_ids)
        recompute &= self._inputs.keys()
        return self._warm(recompute, affected, removed, capacities)

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _constrained(self, flow_ids: Iterable[int]) -> Dict[int, Tuple[LinkKey, ...]]:
        """The capacity-constrained subset of ``flow_ids`` (links + real demand)."""
        constrained: Dict[int, Tuple[LinkKey, ...]] = {}
        for flow_id in flow_ids:
            links, demand, _count = self._inputs[flow_id]
            if links and demand > rate_tolerance(demand):
                constrained[flow_id] = links
        return constrained

    def _direct_rate(self, flow_id: int) -> float:
        """Rate of an unconstrained flow: its demand, or zero demand → zero."""
        links, demand, _count = self._inputs[flow_id]
        if demand <= rate_tolerance(demand):
            return 0.0
        assert not links, "constrained flows are rated by fill_component"
        return demand

    def _install_components(
        self,
        constrained: Dict[int, Tuple[LinkKey, ...]],
        capacities: Mapping[LinkKey, float],
        new_rates: Dict[int, float],
    ) -> None:
        """Decompose ``constrained``, fill each component, record the partition."""
        demands = {flow_id: self._inputs[flow_id][1] for flow_id in constrained}
        counts = {flow_id: self._inputs[flow_id][2] for flow_id in constrained}
        for flow_ids in decompose_components(constrained):
            new_rates.update(
                fill_component(flow_ids, constrained, demands, capacities, counts=counts)
            )
            links = frozenset(
                link for flow_id in flow_ids for link in constrained[flow_id]
            )
            component = self._next_component
            self._next_component += 1
            self._components[component] = _Component(flow_ids=flow_ids, links=links)
            for flow_id in flow_ids:
                self._flow_component[flow_id] = component
            for link in links:
                self._link_component[link] = component

    def _finish(
        self, new_rates: Dict[int, float], removed: Iterable[int]
    ) -> FrozenSet[int]:
        """Apply ``new_rates``, drop ``removed``, report the bitwise changes."""
        rate_changed = {
            flow_id
            for flow_id, rate in new_rates.items()
            if self.rates.get(flow_id) != rate
        }
        for flow_id in removed:
            self.rates.pop(flow_id, None)
        self.rates.update(new_rates)
        return frozenset(rate_changed)

    def _full(self, capacities: Mapping[LinkKey, float]) -> AllocationRepair:
        previous_rates = dict(self.rates)
        self._components.clear()
        self._flow_component.clear()
        self._link_component.clear()
        new_rates: Dict[int, float] = {}
        constrained = self._constrained(self._inputs)
        for flow_id in self._inputs:
            if flow_id not in constrained:
                new_rates[flow_id] = self._direct_rate(flow_id)
        self._install_components(constrained, capacities, new_rates)
        self.rates = new_rates
        self._primed = True
        rate_changed = frozenset(
            flow_id
            for flow_id, rate in new_rates.items()
            if previous_rates.get(flow_id) != rate
        )
        return AllocationRepair(mode="full", rate_changed=rate_changed)

    def _warm(
        self,
        recompute: Set[int],
        affected: Set[int],
        removed: Iterable[int],
        capacities: Mapping[LinkKey, float],
    ) -> AllocationRepair:
        for component_id in affected:
            component = self._components.pop(component_id)
            for flow_id in component.flow_ids:
                self._flow_component.pop(flow_id, None)
            for link in component.links:
                if self._link_component.get(link) == component_id:
                    del self._link_component[link]

        new_rates: Dict[int, float] = {}
        constrained = self._constrained(recompute)
        for flow_id in recompute:
            if flow_id not in constrained:
                new_rates[flow_id] = self._direct_rate(flow_id)
        self._install_components(constrained, capacities, new_rates)
        rate_changed = self._finish(new_rates, removed)
        return AllocationRepair(mode="warm", rate_changed=rate_changed)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"WarmStartAllocator(flows={len(self._inputs)}, "
            f"components={len(self._components)})"
        )
