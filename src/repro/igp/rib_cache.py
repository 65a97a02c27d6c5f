"""Versioned RIB/FIB caching with per-prefix dirty tracking.

This is the incremental-SPF pattern lifted one layer up the stack: where
:class:`~repro.igp.spf_cache.SpfCache` repairs per-source shortest paths from
the graph's dirty-edge delta log, :class:`RibCache` repairs per-router RIBs
(and their resolved FIBs) from the *dirty prefixes* of the same log.  After a
topology or lie delta, only the prefixes whose resolution inputs moved —
their announcers (a lie names its own prefix), or the distance/ECMP set of
an announcer or of a lie's anchor — are re-resolved; every clean
:class:`~repro.igp.rib.Route` and :class:`~repro.igp.fib.PrefixFib` object is
reused wholesale from the prior versioned result.

The cache owns (or shares) an :class:`SpfCache` for the underlying per-source
SPF lookups, so one ``RibCache`` is the single object a call site needs for
the whole SPF → RIB → FIB pipeline.  A cached entry is always repaired,
however many prefixes are dirty; a from-scratch
:func:`~repro.igp.rib.compute_rib` runs only for a router with no entry or
one the graph's delta log no longer reaches back to.

:class:`LazyFibs` is the same pipeline for a reader that needs a few
``(router, prefix)`` entries of one graph, not whole FIBs: it resolves each
entry on first read through the per-prefix kernels ``compute_rib`` and
``resolve_rib_to_fib`` loop over, so every entry it serves is the one a
full resolution would hold.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Set, Tuple

from repro.igp.fib import (
    DEFAULT_MAX_ECMP,
    Fib,
    PrefixFib,
    _resolve_route,
    resolve_rib_to_fib,
    update_fib,
)
from repro.igp.graph import ComputationGraph, GraphChange
from repro.igp.rib import Rib, _route_for_prefix, compute_rib, dirty_prefixes, update_rib
from repro.igp.spf import ShortestPaths
from repro.igp.spf_cache import SpfCache
from repro.util.counters import Counters, counter
from repro.util.errors import RoutingError
from repro.util.prefixes import Prefix

__all__ = ["RibCounters", "RibCache", "LazyFibs", "LazyFib"]


@dataclass
class RibCounters(Counters):
    """Hit/repair/miss accounting of one :class:`RibCache`.

    Every RIB lookup increments exactly one of ``hits`` (same graph
    version), ``incremental_updates`` (per-prefix dirty repair) or
    ``full_recomputes`` (no usable cache entry or change history).
    ``prefixes_repaired`` and ``prefixes_reused`` break an incremental
    update down into re-resolved vs. carried-over routes.
    """

    hits: int = counter("rib_cache_hits")
    incremental_updates: int = counter("rib_incremental_updates")
    full_recomputes: int = counter("rib_full_recomputes")
    prefixes_repaired: int = counter("rib_prefixes_repaired")
    prefixes_reused: int = counter("rib_prefixes_reused")

    @property
    def rib_lookups(self) -> int:
        """Total per-router RIB lookups served."""
        return self.hits + self.incremental_updates + self.full_recomputes


@dataclass
class _Entry:
    """Cached state of one router, all at the same graph version."""

    version: int
    spf: ShortestPaths
    rib: Rib
    fibs: Dict[int, Fib] = field(default_factory=dict)  # keyed by max_ecmp


class RibCache:
    """Per-router RIBs and FIBs keyed by graph version, with dirty-prefix repair."""

    def __init__(self, spf_cache: Optional[SpfCache] = None) -> None:
        #: Underlying per-source SPF cache (shared or owned); its lineage is
        #: also this cache's lineage.
        self.spf_cache = spf_cache if spf_cache is not None else SpfCache()
        self.counters = RibCounters()
        self._entries: Dict[str, _Entry] = {}

    # ------------------------------------------------------------------ #
    # Graph lineage
    # ------------------------------------------------------------------ #
    def observe(self, graph: ComputationGraph) -> ComputationGraph:
        """Chain a (possibly rebuilt) graph to the shared version lineage."""
        return self.spf_cache.observe(graph)

    def invalidate(self) -> None:
        """Drop every cached entry, including the SPF cache's (counters survive)."""
        self._entries.clear()
        self.spf_cache.invalidate()

    # ------------------------------------------------------------------ #
    # Lookups
    # ------------------------------------------------------------------ #
    def rib(self, graph: ComputationGraph, router: str) -> Rib:
        """The RIB of ``router`` over ``graph``, repaired from the prior version."""
        return self._lookup(graph, router).rib

    def fib(
        self,
        graph: ComputationGraph,
        router: str,
        max_ecmp: int = DEFAULT_MAX_ECMP,
    ) -> Fib:
        """The resolved FIB of ``router`` over ``graph`` (cached per ``max_ecmp``)."""
        return self.resolve(graph, router, max_ecmp)[1]

    def resolve(
        self,
        graph: ComputationGraph,
        router: str,
        max_ecmp: int = DEFAULT_MAX_ECMP,
    ) -> Tuple[Rib, Fib]:
        """One cached lookup serving both the RIB and its resolved FIB."""
        entry = self._lookup(graph, router)
        fib = entry.fibs.get(max_ecmp)
        if fib is None:
            fib = resolve_rib_to_fib(graph, entry.rib, max_ecmp=max_ecmp)
            entry.fibs[max_ecmp] = fib
        return entry.rib, fib

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _lookup(self, graph: ComputationGraph, router: str) -> _Entry:
        graph = self.observe(graph)
        version = graph.version
        entry = self._entries.get(router)
        if entry is not None and entry.version == version:
            self.counters.hits += 1
            return entry

        spf = self.spf_cache.spf(graph, router)
        if entry is not None:
            change = graph.changes_since(entry.version)
            if change is not None:
                entry = self._repair(entry, graph, version, spf, change)
                self._entries[router] = entry
                return entry
        self.counters.full_recomputes += 1
        entry = _Entry(version=version, spf=spf, rib=compute_rib(graph, router, spf))
        self._entries[router] = entry
        return entry

    def _repair(
        self,
        entry: _Entry,
        graph: ComputationGraph,
        version: int,
        spf: ShortestPaths,
        change: GraphChange,
    ) -> _Entry:
        """Dirty-prefix repair of one entry."""
        dirty = dirty_prefixes(entry.rib, entry.spf, graph, spf, change)
        self.counters.incremental_updates += 1
        self.counters.prefixes_repaired += len(dirty)
        rib = update_rib(entry.rib, graph, spf, dirty) if dirty else entry.rib
        self.counters.prefixes_reused += len(rib) - sum(
            1 for prefix in dirty if rib.has_route(prefix)
        )
        fibs: Dict[int, Fib] = {}
        for max_ecmp, prev_fib in entry.fibs.items():
            fib_dirty = self._fib_dirty(prev_fib, dirty, change)
            fibs[max_ecmp] = (
                update_fib(graph, prev_fib, rib, fib_dirty, max_ecmp=max_ecmp)
                if fib_dirty
                else prev_fib
            )
        return _Entry(version=version, spf=spf, rib=rib, fibs=fibs)

    @staticmethod
    def _fib_dirty(
        prev_fib: Fib, dirty: Set[Prefix], change: GraphChange
    ) -> Set[Prefix]:
        """Dirty set for FIB resolution: route changes plus resolution churn.

        A lie installed, withdrawn or altered (its forwarding address moved
        to another interface) names its prefix in ``change.prefixes``, so
        ``dirty`` already covers it.  What ``dirty`` misses is a failed link
        stripping the adjacency a forwarding address relies on while the
        route stays byte-identical.  So when any edge at this router changed
        (forwarding-address validity is checked against the router's current
        successors), every previous entry that resolved *via* a fake node is
        re-resolved — including to reproduce the
        :class:`~repro.util.errors.RoutingError` a from-scratch resolution
        would raise for a now-unresolvable lie.
        """
        if not any(delta.source == prev_fib.router for delta in change.edges):
            return dirty
        fib_dirty = set(dirty)
        for prefixes in prev_fib.via_fake_prefixes().values():
            fib_dirty.update(prefixes)
        return fib_dirty

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"RibCache(routers={len(self._entries)}, "
            f"counters={self.counters.snapshot()})"
        )


class LazyFibs:
    """The FIBs of every router over one graph, resolved entry by entry on read.

    ``get(router)`` hands out a :class:`LazyFib`; its first read of a prefix
    takes the router's SPF tree from ``spf_cache`` (repaired from whatever
    version the router was last read at) and resolves that one route.  The
    view is valid while ``graph`` is the newest graph ``spf_cache`` observed.
    """

    def __init__(
        self,
        graph: ComputationGraph,
        spf_cache: SpfCache,
        max_ecmp: int = DEFAULT_MAX_ECMP,
    ) -> None:
        self.graph = spf_cache.observe(graph)
        self.spf_cache = spf_cache
        self.max_ecmp = max_ecmp
        self._fibs: Dict[str, LazyFib] = {}

    def get(self, router: str) -> Optional["LazyFib"]:
        """The FIB of ``router``, or ``None`` if it is not a node of the graph."""
        fib = self._fibs.get(router)
        if fib is None and self.graph.has_node(router):
            fib = self._fibs[router] = LazyFib(self, router)
        return fib


class LazyFib:
    """One router's FIB in a :class:`LazyFibs` view; ``Fib``'s read API."""

    def __init__(self, view: LazyFibs, router: str) -> None:
        self.router = router
        self._view = view
        self._spf: Optional[ShortestPaths] = None
        self._entries: Dict[Prefix, Optional[PrefixFib]] = {}

    def has_entry(self, prefix: Prefix) -> bool:
        """Whether this FIB can forward traffic toward ``prefix``."""
        return self._entry(prefix) is not None

    def lookup(self, prefix: Prefix) -> PrefixFib:
        """The forwarding entries toward ``prefix`` (raises if absent)."""
        entry = self._entry(prefix)
        if entry is None:
            raise RoutingError(f"router {self.router!r} has no FIB entry for {prefix}")
        return entry

    def _entry(self, prefix: Prefix) -> Optional[PrefixFib]:
        if prefix in self._entries:
            return self._entries[prefix]
        view = self._view
        graph = view.graph
        if self._spf is None:
            if view.spf_cache.version != graph.version:
                raise RoutingError(
                    f"stale FIB view: graph version {graph.version}, "
                    f"SPF lineage at {view.spf_cache.version}"
                )
            self._spf = view.spf_cache.spf(graph, self.router)
        route = _route_for_prefix(graph, self.router, self._spf, prefix)
        entry = None if route is None else _resolve_route(
            graph, self.router, route, view.max_ecmp
        )
        self._entries[prefix] = entry
        return entry
