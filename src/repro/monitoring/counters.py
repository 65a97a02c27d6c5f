"""SNMP-like per-router interface counters.

Each :class:`SnmpAgent` represents the SNMP agent of one router and exposes
one monotonically increasing octet counter per outgoing interface (directed
link), read from the data-plane engine.  The poller talks to agents, not to
the engine directly, so the controller's code path is identical to the real
deployment: it only ever sees (interface, octet-counter) pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.dataplane.engine import DataPlaneEngine
from repro.igp.topology import Topology
from repro.util.errors import MonitoringError

__all__ = [
    "InterfaceStat",
    "SnmpAgent",
    "build_agents",
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

