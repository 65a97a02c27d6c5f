"""Flow descriptors.

A :class:`Flow` is one unidirectional application-level stream (e.g. one
video playback) identified by an integer id, entering the network at an
ingress router and heading to a destination prefix with a nominal demand
(the video bitrate).  The data plane never needs packet-level detail; what
matters is where the flow enters, where it leaves, how much it would like to
send, and how much it actually gets (its allocated rate).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator

from repro.util.errors import SimulationError, ValidationError
from repro.util.prefixes import Prefix
from repro.util.validation import check_positive

__all__ = ["Flow", "FlowSpec", "FlowSet"]


@dataclass(frozen=True)
class FlowSpec:
    """Parameters of a flow about to be created (id not yet allocated).

    Batch APIs (:meth:`~repro.dataplane.engine.DataPlaneEngine.add_flows`)
    take a list of these so a whole arrival wave pays for one path/allocation
    recomputation instead of one per flow.
    """

    ingress: str
    prefix: Prefix
    demand: float
    label: str = ""


@dataclass(frozen=True)
class Flow:
    """One unidirectional flow from an ingress router toward a prefix."""

    flow_id: int
    ingress: str
    prefix: Prefix
    demand: float
    label: str = ""

    def __post_init__(self) -> None:
        if self.flow_id < 0:
            raise ValidationError(f"flow_id must be non-negative, got {self.flow_id}")
        if not self.ingress:
            raise ValidationError("flow ingress router must be a non-empty name")
        check_positive(self.demand, "demand")

    def __str__(self) -> str:
        name = self.label or f"flow-{self.flow_id}"
        return f"{name}({self.ingress}->{self.prefix} @ {self.demand:.0f} bit/s)"


class FlowSet:
    """Mutable collection of active flows with id allocation."""

    def __init__(self) -> None:
        self._flows: Dict[int, Flow] = {}
        self._next_id = 0

    def create(self, ingress: str, prefix: Prefix, demand: float, label: str = "") -> Flow:
        """Create, register and return a new flow with a fresh id."""
        flow = Flow(
            flow_id=self._next_id, ingress=ingress, prefix=prefix, demand=demand, label=label
        )
        self._flows[flow.flow_id] = flow
        self._next_id += 1
        return flow

    def remove(self, flow_id: int) -> Flow:
        """Deregister and return the flow with ``flow_id``."""
        try:
            return self._flows.pop(flow_id)
        except KeyError:
            raise SimulationError(f"flow id {flow_id} is not active") from None

    def get(self, flow_id: int) -> Flow:
        """The active flow with ``flow_id`` (raises if absent)."""
        try:
            return self._flows[flow_id]
        except KeyError:
            raise SimulationError(f"flow id {flow_id} is not active") from None

    def __contains__(self, flow_id: int) -> bool:
        return flow_id in self._flows

    def __iter__(self) -> Iterator[Flow]:
        for flow_id in sorted(self._flows):
            yield self._flows[flow_id]

    def __len__(self) -> int:
        return len(self._flows)
