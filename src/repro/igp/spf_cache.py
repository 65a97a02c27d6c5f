"""Versioned SPF result caching.

One :class:`SpfCache` holds, per source router, the last
:class:`~repro.igp.spf.ShortestPaths` together with the graph version it was
computed at.  Lookups against the same version are free, and so are lookups
against a newer version whose log steps moved no edge: prefix announcements
and lies (leaves, see :mod:`repro.igp.graph`) never change a distance.
Otherwise the graph's dirty-edge delta log is replayed through
:func:`~repro.igp.spf.update_spf` so that only the affected subtree is
re-relaxed, however much of the graph the change touches.  Only when the
log cannot reach back far enough does the cache run a full
:func:`~repro.igp.spf.compute_spf`.

A router's LSDB keeps one live graph and records every installed LSA on its
log, so the router's cache always sees the same object and replays recorded
deltas.  The cache also understands *rebuilt* graphs, for the one call site
that still constructs a fresh :class:`~repro.igp.graph.ComputationGraph` per
call — :func:`~repro.igp.network.compute_static_fibs`, with the controller's
lie-free baseline built the same way from the topology: every new build goes
to :meth:`SpfCache.observe`, which chains it to the previously observed build
via :meth:`~repro.igp.graph.ComputationGraph.continue_from` — identical
states keep their version (pure hits), changed states get exactly one delta
step appended.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.igp.graph import ComputationGraph
from repro.igp.spf import ShortestPaths, compute_spf, update_spf
from repro.util.counters import Counters, counter

__all__ = ["SpfCounters", "SpfCache"]


@dataclass
class SpfCounters(Counters):
    """Hit/repair/miss accounting of one :class:`SpfCache`.

    Every SPF lookup increments exactly one of ``hits`` (no edge moved since
    the cached version: same version, or only announcements and lies
    changed), ``incremental_updates`` (edge-delta replay) or
    ``full_recomputes`` (no usable cache entry or delta history).
    """

    hits: int = counter("spf_cache_hits")
    incremental_updates: int = counter("spf_incremental_updates")
    full_recomputes: int = counter("spf_full_recomputes")

    @property
    def spf_lookups(self) -> int:
        """Total per-source SPF lookups served."""
        return self.hits + self.incremental_updates + self.full_recomputes


class SpfCache:
    """Per-source SPF results keyed by graph version, with delta replay."""

    def __init__(self) -> None:
        self.counters = SpfCounters()
        self._graph: Optional[ComputationGraph] = None
        self._entries: Dict[str, Tuple[int, ShortestPaths]] = {}

    # ------------------------------------------------------------------ #
    # Graph lineage
    # ------------------------------------------------------------------ #
    def observe(self, graph: ComputationGraph) -> ComputationGraph:
        """Chain a (possibly rebuilt) graph to this cache's version lineage.

        Must be called with every new graph build before :meth:`spf`; the
        same live graph object may be observed repeatedly at no cost.
        """
        if self._graph is not None and graph is not self._graph:
            graph.continue_from(self._graph)
        self._graph = graph
        return graph

    def invalidate(self) -> None:
        """Drop every cached entry and the graph lineage (counters survive)."""
        self._graph = None
        self._entries.clear()

    @property
    def version(self) -> Optional[int]:
        """Version of the most recently observed graph (``None`` before any)."""
        return self._graph.version if self._graph is not None else None

    # ------------------------------------------------------------------ #
    # Lookups
    # ------------------------------------------------------------------ #
    def spf(self, graph: ComputationGraph, source: str) -> ShortestPaths:
        """The shortest paths from ``source`` over ``graph``, cached."""
        if graph is not self._graph:
            self.observe(graph)
        version = graph.version
        entry = self._entries.get(source)
        if entry is not None:
            cached_version, cached = entry
            if cached_version == version:
                self.counters.hits += 1
                return cached
            deltas = graph.deltas_since(cached_version)
            if deltas == ():
                self.counters.hits += 1
                self._entries[source] = (version, cached)
                return cached
            if deltas is not None:
                result = update_spf(cached, graph, deltas, counters=self.counters)
                self._entries[source] = (version, result)
                return result
        self.counters.full_recomputes += 1
        result = compute_spf(graph, source)
        self._entries[source] = (version, result)
        return result

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        version = self._graph.version if self._graph is not None else None
        return (
            f"SpfCache(sources={len(self._entries)}, version={version}, "
            f"counters={self.counters.snapshot()})"
        )
