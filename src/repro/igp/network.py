"""Orchestration of a whole IGP domain.

:class:`IgpNetwork` wires together the topology, one
:class:`~repro.igp.router.RouterProcess` per router, and the flooding fabric
over a shared :class:`~repro.util.timeline.Timeline`.  It exposes the two
operations the rest of the system needs:

* ``start()`` / ``converge()`` — originate all router and prefix LSAs and run
  the control plane until every router installed a stable FIB;
* ``inject(lsas, at_router)`` — the Fibbing controller's injection point: the
  lies enter the IGP at the router the controller peers with and are flooded
  domain-wide.

For analyses that do not need the event-driven machinery (TE baselines,
optimality studies, the static Fig. 1 benchmark), :func:`compute_static_fibs`
computes the converged FIBs of every router directly from the global view.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.igp.fib import DEFAULT_MAX_ECMP, Fib
from repro.igp.flooding import FloodingFabric
from repro.igp.graph import ComputationGraph
from repro.igp.lsa import FakeNodeLsa, Lsa, PrefixLsa, RouterLsa
from repro.igp.topology import Link
from repro.igp.rib_cache import RibCache, RibCounters
from repro.igp.router import RouterProcess, RouterTimers
from repro.igp.spf_cache import SpfCounters
from repro.igp.topology import Topology
from repro.util.counters import Counters, merge_snapshots
from repro.util.errors import TopologyError
from repro.util.timeline import Timeline

__all__ = ["IgpNetwork", "compute_static_fibs"]


class IgpNetwork:
    """An event-driven IGP domain built from a physical topology."""

    def __init__(
        self,
        topology: Topology,
        timeline: Optional[Timeline] = None,
        timers: RouterTimers = RouterTimers(),
        max_ecmp: int = DEFAULT_MAX_ECMP,
    ) -> None:
        topology.validate()
        self.topology = topology
        self.timeline = timeline if timeline is not None else Timeline()
        self.timers = timers
        self.max_ecmp = max_ecmp
        self.fabric = FloodingFabric(topology, self.timeline)
        self.routers: Dict[str, RouterProcess] = {
            name: RouterProcess(
                name=name,
                timeline=self.timeline,
                fabric=self.fabric,
                timers=timers,
                max_ecmp=max_ecmp,
            )
            for name in topology.routers
        }
        self.fabric.bind(self._deliver_lsa)
        self._fib_listeners: List[Callable[[str, Fib], None]] = []
        for process in self.routers.values():
            process.on_fib_change(self._notify_fib_change)
        self._started = False
        self._lsa_sequences: Dict[str, int] = {}
        self._dataplane_engines: List[object] = []
        self._controllers: List[object] = []
        self._fault_injectors: List[object] = []
        self._inject_listeners: List[Callable[[str, int], None]] = []
        # Directed Link objects of currently-failed links, keyed by the
        # sorted endpoint pair, so restore_link can re-add each direction
        # with its original weight/capacity/delay.
        self._failed_links: Dict[Tuple[str, str], Tuple[Link, ...]] = {}

    # ------------------------------------------------------------------ #
    # Listeners
    # ------------------------------------------------------------------ #
    def on_fib_change(self, listener: Callable[[str, Fib], None]) -> None:
        """Register ``listener(router_name, fib)`` called on every FIB install."""
        self._fib_listeners.append(listener)

    def on_inject(self, listener: Callable[[str, int], None]) -> None:
        """Register ``listener(at_router, lsa_count)`` called on every injection.

        Fired after the LSAs of one :meth:`inject` call entered the flooding
        fabric — the instant a controller wave starts propagating.  The
        convergence monitor (:class:`~repro.core.scheduler.ConvergenceMonitor`)
        uses it to open a convergence episode without coupling the controller
        to the observer.
        """
        self._inject_listeners.append(listener)

    def _notify_fib_change(self, router: str, fib: Fib) -> None:
        for listener in self._fib_listeners:
            listener(router, fib)

    def _deliver_lsa(self, router: str, lsa: Lsa, from_neighbor: Optional[str]) -> None:
        self.routers[router].receive_lsa(lsa, from_neighbor)

    def register_dataplane(self, engine) -> None:
        """Register a data-plane engine whose ``dp_*`` counters this network reports.

        :meth:`~repro.dataplane.engine.DataPlaneEngine.bind_to_network` calls
        this automatically; the engine's reroute/warm-start counters then
        ride along the SPF/RIB ones in :attr:`spf_stats` and in the
        monitoring collector.
        """
        if engine not in self._dataplane_engines:
            self._dataplane_engines.append(engine)

    def register_controller(self, controller) -> None:
        """Register a controller whose ``ctl_*`` counters this network reports.

        :class:`~repro.core.controller.FibbingController` calls this when it
        attaches to a live network; the reconciliation counters (plan-cache
        hits, lies injected/retracted/kept) then complete the per-layer view
        in :attr:`spf_stats` and the monitoring collector.  Several
        controllers may register (e.g. one per tenant); their counters are
        *merged*, never overwritten, by :meth:`counter_sets`.
        """
        if controller not in self._controllers:
            self._controllers.append(controller)

    def register_fault_injector(self, injector) -> None:
        """Register a fault injector whose ``fault_*`` counters this network reports.

        :meth:`~repro.core.chaos.FaultInjector.start` calls this; the
        scheduled link/LSA/poll/controller fault counts then ride along the
        other layers in :attr:`spf_stats`.
        """
        if injector not in self._fault_injectors:
            self._fault_injectors.append(injector)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> None:
        """Originate every router and prefix LSA (idempotent)."""
        if self._started:
            return
        self._started = True
        for name, process in self.routers.items():
            lsas: List[Lsa] = [self._router_lsa(name)]
            for attachment in self.topology.attachments_of(name):
                lsas.append(
                    PrefixLsa(
                        origin=name,
                        prefix=attachment.prefix,
                        metric=attachment.cost,
                    )
                )
            process.originate(lsas)

    def _router_lsa(self, name: str) -> RouterLsa:
        sequence = self._lsa_sequences.get(name, 0) + 1
        self._lsa_sequences[name] = sequence
        links = tuple(
            (link.target, link.weight)
            for link in self.topology.links
            if link.source == name
        )
        return RouterLsa(origin=name, links=links, sequence=sequence)

    # ------------------------------------------------------------------ #
    # Topology events (failures, weight changes)
    # ------------------------------------------------------------------ #
    def fail_link(self, first: str, second: str) -> None:
        """Remove the (bidirectional) link ``first``-``second`` and re-converge.

        Both endpoints re-originate their router LSA with the link removed,
        exactly like OSPF reacts to a carrier-loss event; the updated LSAs
        flood through the remaining topology and every router recomputes its
        FIB.  Call :meth:`converge` (or keep driving the shared timeline) to
        let the re-convergence complete.
        """
        if not self._started:
            raise TopologyError("start the network before injecting failures")
        saved = tuple(
            self.topology.link(source, target)
            for source, target in ((first, second), (second, first))
            if self.topology.has_link(source, target)
        )
        self.topology.remove_link(first, second, both_directions=True)
        self._failed_links[self._link_pair(first, second)] = saved
        for endpoint in (first, second):
            self.routers[endpoint].originate([self._router_lsa(endpoint)])

    def restore_link(self, first: str, second: str) -> None:
        """Bring a previously failed link ``first``-``second`` back up.

        The exact inverse of :meth:`fail_link`: each removed directed link is
        re-added with its original weight, capacity and delay (asymmetric
        weights survive the round trip), and both endpoints re-originate
        their router LSA with a fresh sequence number, exactly like OSPF
        reacts to a carrier-up event.  Call :meth:`converge` afterwards; the
        network then settles back onto the pre-failure FIBs byte-identically.
        """
        if not self._started:
            raise TopologyError("start the network before restoring links")
        saved = self._failed_links.pop(self._link_pair(first, second), None)
        if saved is None:
            raise TopologyError(
                f"no recorded failure of link {first!r}-{second!r} to restore"
            )
        for link in saved:
            self.topology.add_directed_link(
                link.source, link.target, link.weight, link.capacity, link.delay
            )
        for endpoint in (first, second):
            self.routers[endpoint].originate([self._router_lsa(endpoint)])

    @staticmethod
    def _link_pair(first: str, second: str) -> Tuple[str, str]:
        return (first, second) if first <= second else (second, first)

    def change_weight(self, first: str, second: str, weight: float) -> None:
        """Change the symmetric IGP weight of a link and re-originate the LSAs.

        This is what traditional IGP-TE does at reaction time — and what the
        paper argues is too slow and too blunt for flash crowds; it is exposed
        so that experiments can measure exactly that.
        """
        if not self._started:
            raise TopologyError("start the network before changing weights")
        self.topology.set_weight(first, second, weight, both_directions=True)
        for endpoint in (first, second):
            self.routers[endpoint].originate([self._router_lsa(endpoint)])

    def converge(self, max_events: int = 1_000_000) -> float:
        """Run the control plane until quiescence; returns the convergence time."""
        start_time = self.timeline.now
        self.timeline.run_all(max_events=max_events)
        return self.timeline.now - start_time

    def run_until(self, time: float) -> None:
        """Advance the shared timeline up to the absolute time ``time``."""
        self.timeline.run_until(time)

    # ------------------------------------------------------------------ #
    # Controller-facing API
    # ------------------------------------------------------------------ #
    def inject(self, lsas: Iterable[Lsa], at_router: str) -> int:
        """Inject LSAs (typically lies) at ``at_router``; returns how many were sent."""
        if at_router not in self.routers:
            raise TopologyError(f"cannot inject at unknown router {at_router!r}")
        count = 0
        for lsa in lsas:
            self.fabric.inject(at_router, lsa)
            count += 1
        if count:
            for listener in self._inject_listeners:
                listener(at_router, count)
        return count

    # ------------------------------------------------------------------ #
    # State inspection
    # ------------------------------------------------------------------ #
    def fib_of(self, router: str) -> Fib:
        """The currently installed FIB of ``router`` (raises before convergence)."""
        try:
            process = self.routers[router]
        except KeyError:
            raise TopologyError(f"unknown router {router!r}") from None
        if process.fib is None:
            raise TopologyError(
                f"router {router!r} has not installed a FIB yet; call start() and converge()"
            )
        return process.fib

    def fibs(self) -> Dict[str, Fib]:
        """Snapshot of every router's installed FIB."""
        return {name: self.fib_of(name) for name in self.routers}

    def converged(self) -> bool:
        """Whether every router has an installed FIB and no events are pending."""
        return (
            all(process.fib is not None for process in self.routers.values())
            and self.timeline.pending == 0
        )

    @property
    def flooding_stats(self) -> Dict[str, int]:
        """Flooding counters (messages, bytes, duplicates) for overhead accounting."""
        return self.fabric.stats.snapshot()

    def counter_sets(self) -> Dict[str, Counters]:
        """Every layer's live counters, merged per family, in export order.

        ``"spf"`` / ``"rib"`` sum the per-router caches; ``"dataplane"``
        every registered engine (``dp_*``, see
        :class:`~repro.dataplane.path_cache.DataPlaneCounters`);
        ``"controller"`` every registered controller (``ctl_*``, see
        :class:`~repro.core.reconciler.CtlCounters`, each tenant counted
        exactly once); ``"faults"`` every
        registered fault injector (``fault_*``, see
        :class:`~repro.core.chaos.FaultCounters`).  A family nothing
        registered for reports zeros, so clean runs keep every key.
        """
        from repro.core.chaos import FaultCounters
        from repro.core.reconciler import CtlCounters
        from repro.dataplane.path_cache import DataPlaneCounters

        processes = self.routers.values()
        controllers = self._controllers
        return {
            "spf": SpfCounters.total(p.spf_cache.counters for p in processes),
            "rib": RibCounters.total(p.rib_cache.counters for p in processes),
            "dataplane": DataPlaneCounters.total(
                engine.counters for engine in self._dataplane_engines
            ),
            "controller": CtlCounters.total(c.reconciler.counters for c in controllers),
            "faults": FaultCounters.total(
                injector.counters for injector in self._fault_injectors
            ),
        }

    @property
    def spf_stats(self) -> Dict[str, int]:
        """Every family of :meth:`counter_sets` as one flat snapshot.

        ``spf_*``, ``rib_*``, ``dp_*``, ``ctl_*`` and ``fault_*`` keys; the
        README's Counters table says what each family counts.
        """
        return merge_snapshots(
            counters.snapshot() for counters in self.counter_sets().values()
        )

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"IgpNetwork(topology={self.topology.name!r}, routers={len(self.routers)}, "
            f"t={self.timeline.now:.3f})"
        )


def compute_static_fibs(
    topology: Topology,
    lies: Iterable[FakeNodeLsa] = (),
    max_ecmp: int = DEFAULT_MAX_ECMP,
    rib_cache: Optional[RibCache] = None,
) -> Dict[str, Fib]:
    """Compute the converged FIB of every router without event simulation.

    This is the "oracle" view: every router sees the same computation graph
    (physical topology plus the given lies), exactly what the event-driven
    control plane converges to.  Baselines and static benchmarks use it to
    avoid paying the flooding simulation cost.

    Every call goes through a :class:`~repro.igp.rib_cache.RibCache`; without
    one, a fresh cache runs the plain ``compute_spf`` → ``compute_rib`` →
    ``resolve_rib_to_fib`` per router.  A supplied cache makes successive
    calls pay only for what changed: the rebuilt graph is chained to the
    cache's version lineage, per-source SPF runs are repaired incrementally
    from the dirty-edge deltas, per-router RIBs/FIBs are repaired per dirty
    prefix, and a router at an unchanged version is a cache hit.
    """
    if rib_cache is None:
        rib_cache = RibCache()
    graph = rib_cache.observe(ComputationGraph.from_topology(topology, list(lies)))
    return {
        router: rib_cache.fib(graph, router, max_ecmp=max_ecmp) for router in topology.routers
    }
