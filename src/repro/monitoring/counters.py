"""SNMP-like per-router interface counters.

Each :class:`SnmpAgent` represents the SNMP agent of one router and exposes
one monotonically increasing octet counter per outgoing interface (directed
link), read from the data-plane engine.  The poller talks to agents, not to
the engine directly, so the controller's code path is identical to the real
deployment: it only ever sees (interface, octet-counter) pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List

from repro.dataplane.engine import DataPlaneEngine
from repro.igp.topology import Topology
from repro.util.counters import merge_snapshots
from repro.util.errors import MonitoringError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.igp.network import IgpNetwork

__all__ = [
    "InterfaceStat",
    "SnmpAgent",
    "build_agents",
    "collect_counters",
]


@dataclass(frozen=True)
class InterfaceStat:
    """One reading of an interface counter."""

    router: str
    neighbor: str
    out_octets: float

    @property
    def interface(self) -> str:
        """Human-readable interface name, e.g. ``"A->R1"``."""
        return f"{self.router}->{self.neighbor}"


class SnmpAgent:
    """The SNMP agent of one router, exposing per-interface octet counters."""

    def __init__(self, router: str, topology: Topology, engine: DataPlaneEngine) -> None:
        if not topology.has_router(router):
            raise MonitoringError(f"cannot create an SNMP agent for unknown router {router!r}")
        self.router = router
        self.topology = topology
        self.engine = engine

    @property
    def interfaces(self) -> List[str]:
        """Neighbors reachable over one directed link (one interface each), sorted."""
        return self.topology.neighbors(self.router)

    def read_interface(self, neighbor: str) -> InterfaceStat:
        """Read the out-octets counter of the interface toward ``neighbor``."""
        if neighbor not in self.interfaces:
            raise MonitoringError(
                f"router {self.router!r} has no interface toward {neighbor!r}"
            )
        octets = self.engine.link_transmitted_bytes(self.router, neighbor)
        return InterfaceStat(router=self.router, neighbor=neighbor, out_octets=octets)

    def read_all(self) -> List[InterfaceStat]:
        """Read every interface counter of this router."""
        return [self.read_interface(neighbor) for neighbor in self.interfaces]


def build_agents(topology: Topology, engine: DataPlaneEngine) -> Dict[str, SnmpAgent]:
    """One SNMP agent per router of the topology."""
    return {router: SnmpAgent(router, topology, engine) for router in topology.routers}


def collect_counters(network: "IgpNetwork") -> Dict[str, Dict[str, int]]:
    """Per-router SPF and RIB cache counters, plus the domain-wide aggregate.

    This is the monitoring-plane view of the incremental engines: for
    every router it reports how many SPF triggers were served from cache,
    repaired incrementally from the dirty-edge delta log or recomputed in
    full — and, one layer up, how many RIB resolutions were cache hits,
    per-prefix dirty repairs or full prefix rescans (the ``rib_*`` keys).
    The ``"dataplane"`` entry carries the flow-level ``dp_*`` counters of
    every data-plane engine registered with the network (paths reused vs.
    re-walked, warm-started vs. full fair-share allocations, plus the
    aggregate engine's ``dp_classes_rewalked`` / ``dp_classes_reused`` /
    ``dp_classes_splits`` demand-class mirror of the flow pair); the
    ``"controller"`` entry carries the ``ctl_*`` reconciliation counters of
    every registered controller (requirement plans served from the plan
    cache vs. recomputed, lies injected/retracted/kept), *merged across
    controllers* — several controllers on one network each contribute
    exactly once; the ``"faults"`` entry carries the ``fault_*`` chaos accounting of every
    registered :class:`~repro.core.chaos.FaultInjector` (links
    downed/restored, LSAs dropped in flight, polls timed out/omitted,
    controller crashes/restarts — all zero on clean runs); the ``"total"``
    entry merges all five layers and matches
    :attr:`repro.igp.network.IgpNetwork.spf_stats`.
    """
    per_router: Dict[str, Dict[str, int]] = {
        name: {
            **process.spf_cache.counters.snapshot(),
            **process.rib_cache.counters.snapshot(),
        }
        for name, process in sorted(network.routers.items())
    }
    sets = network.counter_sets()
    per_router["dataplane"] = sets["dataplane"].snapshot()
    per_router["controller"] = sets["controller"].snapshot()
    per_router["faults"] = sets["faults"].snapshot()
    per_router["total"] = merge_snapshots(family.snapshot() for family in sets.values())
    return per_router
