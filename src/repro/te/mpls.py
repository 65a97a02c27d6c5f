"""MPLS RSVP-TE baseline: explicit tunnels with uneven splitting.

Section 2 of the paper grants that RSVP-TE can also realise arbitrary
splits, but at the price of "establishing a potentially-high number of
tunnels, encapsulating packets, and performing stateful uneven
load-balancing".  This baseline makes that cost measurable:

* the optimal fractional routing is computed with the same min-max LP as
  Fibbing (so the data-plane quality is identical by construction);
* the per-prefix flows are decomposed into explicit ingress-to-egress
  tunnels (one label-switched path per decomposed path);
* control-plane state is the number of tunnels, control messages are the
  RSVP PATH/RESV messages needed to signal them (two per hop per tunnel),
  and every data packet pays the MPLS label overhead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.optimizer import MinMaxLoadOptimizer, OptimizationResult
from repro.dataplane.demand import TrafficMatrix
from repro.dataplane.linkstats import LinkLoads
from repro.igp.topology import Topology
from repro.te.base import TrafficEngineeringScheme
from repro.te.metrics import TeOutcome
from repro.util.errors import RoutingError
from repro.util.prefixes import Prefix

__all__ = ["Tunnel", "MplsRsvpTe", "MPLS_LABEL_BYTES"]

#: Size of one MPLS label stack entry, in bytes (RFC 3032).
MPLS_LABEL_BYTES = 4

#: Flows smaller than this fraction of the ingress demand are not worth a
#: dedicated tunnel and are merged into the previous one.
_MIN_TUNNEL_FRACTION = 1e-6


@dataclass(frozen=True)
class Tunnel:
    """One explicit label-switched path carrying part of a demand."""

    ingress: str
    egress: str
    prefix: Prefix
    hops: Tuple[str, ...]
    rate: float

    @property
    def links(self) -> Tuple[Tuple[str, str], ...]:
        """Directed links traversed by the tunnel."""
        return tuple(zip(self.hops, self.hops[1:]))

    @property
    def signaling_messages(self) -> int:
        """RSVP messages to establish the tunnel: PATH + RESV per hop."""
        return 2 * len(self.links)


class MplsRsvpTe(TrafficEngineeringScheme):
    """Optimal traffic placement realised with explicit RSVP-TE tunnels."""

    name = "mpls-rsvp-te"

    def __init__(self, flow_penalty: float = 1e-6) -> None:
        self.flow_penalty = flow_penalty
        #: Filled by :meth:`route`: every tunnel established in the last run.
        self.tunnels: List[Tunnel] = []

    def route(self, topology: Topology, demands: TrafficMatrix) -> TeOutcome:
        optimizer = MinMaxLoadOptimizer(topology, flow_penalty=self.flow_penalty)
        result = optimizer.optimize(demands)
        self.tunnels = self._decompose(topology, demands, result)

        loads = LinkLoads()
        delivered = 0.0
        for tunnel in self.tunnels:
            delivered += tunnel.rate
            for source, target in tunnel.links:
                loads.add(source, target, tunnel.rate)
        # Demands entering at a router that announces the prefix are
        # delivered locally without a tunnel.
        local = self._locally_delivered(topology, demands)
        delivered += local
        undeliverable = max(0.0, demands.total() - delivered)

        messages = sum(tunnel.signaling_messages for tunnel in self.tunnels)
        return TeOutcome(
            scheme=self.name,
            loads=loads,
            max_utilization=loads.max_utilization(topology),
            delivered=delivered,
            undeliverable=undeliverable,
            control_state=len(self.tunnels),
            control_messages=messages,
            per_packet_overhead_bytes=MPLS_LABEL_BYTES,
            notes="optimal LP placement over explicit tunnels",
        )

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    @staticmethod
    def _locally_delivered(topology: Topology, demands: TrafficMatrix) -> float:
        local = 0.0
        for entry in demands.entries():
            attachments = {
                attachment.router
                for attachment in topology.prefix_attachments(entry.prefix)
            }
            if entry.ingress in attachments:
                local += entry.rate
        return local

    def _decompose(
        self,
        topology: Topology,
        demands: TrafficMatrix,
        result: OptimizationResult,
    ) -> List[Tunnel]:
        """Standard flow decomposition: peel paths off the per-prefix flows."""
        tunnels: List[Tunnel] = []
        for prefix in result.prefixes:
            attachments = {
                attachment.router for attachment in topology.prefix_attachments(prefix)
            }
            remaining_flow: Dict[Tuple[str, str], float] = {
                link: value for link, value in result.flows.get(prefix, {}).items() if value > 0
            }
            remaining_demand = {
                ingress: rate
                for ingress, rate in demands.demands_for(prefix).items()
                if ingress not in attachments and rate > 0
            }
            guard = 0
            max_iterations = 10 * (len(remaining_flow) + len(remaining_demand) + 1)
            while remaining_demand and guard < max_iterations:
                guard += 1
                ingress = sorted(remaining_demand)[0]
                path = self._trace_path(ingress, attachments, remaining_flow)
                if path is None:
                    raise RoutingError(
                        f"flow decomposition for {prefix} stuck at ingress {ingress!r}"
                    )
                links = list(zip(path, path[1:]))
                bottleneck = min(remaining_flow[link] for link in links)
                rate = min(bottleneck, remaining_demand[ingress])
                if rate <= _MIN_TUNNEL_FRACTION:
                    # Numerical noise; drop the ingress to guarantee progress.
                    del remaining_demand[ingress]
                    continue
                tunnels.append(
                    Tunnel(
                        ingress=ingress,
                        egress=path[-1],
                        prefix=prefix,
                        hops=tuple(path),
                        rate=rate,
                    )
                )
                for link in links:
                    remaining_flow[link] -= rate
                    if remaining_flow[link] <= _MIN_TUNNEL_FRACTION:
                        del remaining_flow[link]
                remaining_demand[ingress] -= rate
                if remaining_demand[ingress] <= _MIN_TUNNEL_FRACTION:
                    del remaining_demand[ingress]
        return tunnels

    @staticmethod
    def _trace_path(
        ingress: str,
        attachments: set,
        flows: Dict[Tuple[str, str], float],
    ) -> Optional[List[str]]:
        """Find a positive-flow path from ``ingress`` to any attachment router.

        A depth-first search with backtracking: a greedy walk could dead-end
        on a residual branch left over by numerical noise, while DFS finds a
        path whenever one exists in the residual flow graph.
        """
        successors: Dict[str, List[str]] = {}
        for (source, target), value in flows.items():
            if value > 0:
                successors.setdefault(source, []).append(target)
        for targets in successors.values():
            targets.sort()

        def search(node: str, visited: frozenset) -> Optional[List[str]]:
            if node in attachments:
                return [node]
            for target in successors.get(node, []):
                if target in visited:
                    continue
                suffix = search(target, visited | {target})
                if suffix is not None:
                    return [node] + suffix
            return None

        return search(ingress, frozenset({ingress}))
