"""Per-link load accounting and utilisation summaries."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple

from repro.igp.topology import Topology
from repro.util.validation import check_non_negative

__all__ = ["LinkLoads", "LinkUtilization"]

LinkKey = Tuple[str, str]


@dataclass(frozen=True)
class LinkUtilization:
    """Utilisation of one directed link: carried load relative to capacity."""

    link: LinkKey
    load: float
    capacity: float

    @property
    def utilization(self) -> float:
        """Fraction of the capacity in use (may exceed 1.0 when oversubscribed)."""
        return self.load / self.capacity if self.capacity > 0 else 0.0


class LinkLoads:
    """Accumulated per-link offered load in bit/s."""

    def __init__(self) -> None:
        self._loads: Dict[LinkKey, float] = {}

    def add(self, source: str, target: str, rate: float) -> None:
        """Add ``rate`` bit/s of load on the directed link ``source -> target``."""
        check_non_negative(rate, "rate")
        key = (source, target)
        self._loads[key] = self._loads.get(key, 0.0) + rate

    def load(self, source: str, target: str) -> float:
        """Current load on ``source -> target`` (0.0 when untouched)."""
        return self._loads.get((source, target), 0.0)

    # ------------------------------------------------------------------ #
    # Utilisation views (need the topology for capacities)
    # ------------------------------------------------------------------ #
    def utilizations(self, topology: Topology) -> List[LinkUtilization]:
        """Utilisation of every directed link of ``topology`` (including idle ones)."""
        result = []
        for link in topology.links:
            result.append(
                LinkUtilization(
                    link=link.key,
                    load=self.load(link.source, link.target),
                    capacity=link.capacity,
                )
            )
        return result

    def utilization_of(self, topology: Topology, source: str, target: str) -> LinkUtilization:
        """Utilisation of one directed link (raises if the link does not exist)."""
        link = topology.link(source, target)
        return LinkUtilization(link=link.key, load=self.load(source, target), capacity=link.capacity)

    def max_utilization(self, topology: Topology) -> float:
        """The maximal link utilisation — the quantity the paper's TE minimises."""
        utilizations = self.utilizations(topology)
        return max((entry.utilization for entry in utilizations), default=0.0)

    def __iter__(self) -> Iterator[Tuple[LinkKey, float]]:
        for key in sorted(self._loads):
            yield key, self._loads[key]

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"LinkLoads(links={len(self._loads)}, total={sum(self._loads.values()):.0f})"
