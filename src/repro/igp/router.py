"""Per-router control-plane process.

A :class:`RouterProcess` owns the router's LSDB, schedules SPF runs when the
database changes (with an OSPF-like hold-down delay so that bursts of LSAs
trigger a single computation), resolves the resulting RIB into a FIB after an
installation delay, and notifies listeners when the FIB changes.  The
data-plane simulation and the convergence monitor subscribe to those
notifications.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.igp.fib import DEFAULT_MAX_ECMP, Fib
from repro.igp.flooding import FloodingFabric
from repro.igp.lsa import Lsa
from repro.igp.lsdb import LinkStateDatabase
from repro.igp.rib import Rib
from repro.igp.rib_cache import RibCache
from repro.util.timeline import Timeline
from repro.util.validation import check_non_negative

__all__ = ["RouterTimers", "RouterProcess"]


@dataclass(frozen=True)
class RouterTimers:
    """Control-plane timers of a router.

    ``spf_delay`` is the hold-down between an LSDB change and the SPF run
    (OSPF's spf-delay); ``fib_delay`` is the time needed to push the computed
    routes into the forwarding table.
    """

    spf_delay: float = 0.05
    fib_delay: float = 0.05

    def __post_init__(self) -> None:
        check_non_negative(self.spf_delay, "spf_delay")
        check_non_negative(self.fib_delay, "fib_delay")


class RouterProcess:
    """The OSPF-like process running on one router."""

    def __init__(
        self,
        name: str,
        timeline: Timeline,
        fabric: FloodingFabric,
        timers: RouterTimers = RouterTimers(),
        max_ecmp: int = DEFAULT_MAX_ECMP,
    ) -> None:
        self.name = name
        self.timeline = timeline
        self.fabric = fabric
        self.timers = timers
        self.max_ecmp = max_ecmp
        self.lsdb = LinkStateDatabase(owner=name)
        self.fib: Optional[Fib] = None
        self.rib: Optional[Rib] = None
        self.fib_version = 0
        self.spf_runs = 0
        #: Versioned route cache: SPF runs triggered by LSDB changes that
        #: leave the computation graph untouched (refreshes) are free, changed
        #: graphs are repaired from the deltas the LSDB recorded on its live
        #: graph instead of rerunning Dijkstra from scratch, and the RIB/FIB
        #: are repaired per dirty prefix instead of rescanning every
        #: announced prefix.
        self.rib_cache = RibCache()
        self.spf_cache = self.rib_cache.spf_cache
        self._spf_scheduled = False
        self._fib_graph_version: Optional[int] = None
        self._fib_listeners: List[Callable[[str, Fib], None]] = []

    # ------------------------------------------------------------------ #
    # Listeners
    # ------------------------------------------------------------------ #
    def on_fib_change(self, listener: Callable[[str, Fib], None]) -> None:
        """Register ``listener(router_name, new_fib)`` called after each FIB install."""
        self._fib_listeners.append(listener)

    # ------------------------------------------------------------------ #
    # LSA handling
    # ------------------------------------------------------------------ #
    def originate(self, lsas: List[Lsa]) -> None:
        """Install self-originated LSAs and flood them to every neighbor."""
        for lsa in lsas:
            if self.lsdb.install(lsa):
                self.fabric.flood_from(self.name, lsa)
        self._schedule_spf()

    def receive_lsa(self, lsa: Lsa, from_neighbor: Optional[str]) -> None:
        """Handle an LSA received from ``from_neighbor`` (or from the controller)."""
        if self.lsdb.install(lsa):
            self.fabric.flood_from(self.name, lsa, exclude=from_neighbor)
            self._schedule_spf()
        else:
            self.fabric.record_duplicate()

    # ------------------------------------------------------------------ #
    # SPF / FIB pipeline
    # ------------------------------------------------------------------ #
    def _schedule_spf(self) -> None:
        if self._spf_scheduled:
            return
        self._spf_scheduled = True
        self.timeline.schedule_in(
            self.timers.spf_delay, self._run_spf, label=f"spf:{self.name}"
        )

    @property
    def graph_version(self) -> Optional[int]:
        """Version of the computation graph behind the last computed FIB."""
        return self._fib_graph_version

    def _run_spf(self) -> None:
        self._spf_scheduled = False
        self.spf_runs += 1
        graph = self.lsdb.graph()
        if not graph.has_node(self.name):
            # The router has not yet heard its own router LSA; nothing to compute.
            return
        if self._fib_graph_version == graph.version:
            # The LSDB change did not alter the computation graph (e.g. an
            # LSA refresh): the installed or pending FIB is already correct.
            self.spf_cache.counters.hits += 1
            return
        rib, fib = self.rib_cache.resolve(graph, self.name, max_ecmp=self.max_ecmp)
        # This router's caches are the only readers of its graph's delta log
        # and have just caught up with it.
        graph.drop_history()
        self.rib = rib
        self._fib_graph_version = graph.version
        self.timeline.schedule_in(
            self.timers.fib_delay,
            lambda: self._install_fib(fib),
            label=f"fib-install:{self.name}",
        )

    def _install_fib(self, fib: Fib) -> None:
        self.fib = fib
        self.fib_version += 1
        for listener in self._fib_listeners:
            listener(self.name, fib)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"RouterProcess(name={self.name!r}, lsdb={len(self.lsdb)}, "
            f"fib_version={self.fib_version})"
        )
