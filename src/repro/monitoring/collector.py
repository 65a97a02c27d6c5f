"""Smoothed per-link utilisation view.

The collector turns raw poll samples into the per-link utilisation estimates
the controller's alarm logic evaluates.  An EWMA per link filters out
single-sample noise, like a production monitoring pipeline would, while
remaining responsive (the demo's controller reacts within a couple of poll
periods).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.igp.topology import Topology
from repro.monitoring.poller import PollSample
from repro.util.errors import MonitoringError
from repro.util.stats import Ewma
from repro.util.validation import check_fraction

__all__ = ["LinkLoadView", "LoadCollector"]

LinkKey = Tuple[str, str]


@dataclass(frozen=True)
class LinkLoadView:
    """The collector's current estimate for one directed link."""

    link: LinkKey
    rate: float
    capacity: float

    @property
    def utilization(self) -> float:
        """Estimated utilisation (load / capacity)."""
        return self.rate / self.capacity if self.capacity > 0 else 0.0


class LoadCollector:
    """Maintains an EWMA-smoothed utilisation estimate per directed link."""

    def __init__(self, topology: Topology, alpha: float = 0.6) -> None:
        self.topology = topology
        self.alpha = check_fraction(alpha, "alpha")
        if self.alpha == 0.0:
            raise MonitoringError("alpha must be strictly positive")
        self._estimates: Dict[LinkKey, Ewma] = {
            link.key: Ewma(alpha=self.alpha) for link in topology.links
        }
        # Capacities are read through the topology, keyed on its revision:
        # a link re-added at another capacity must reach the alarm
        # utilisation at the next read, not stay frozen at the
        # construction-time value.
        self._capacities: Dict[LinkKey, float] = {}
        self._capacity_revision: Optional[int] = None
        self._refresh_capacities()
        self.last_update: Optional[float] = None

    def _refresh_capacities(self) -> None:
        """Sync the monitored link set with the topology when its revision moved.

        Links that vanished from the topology (failures, maintenance) are
        dropped outright — estimate and capacity entry both — mirroring the
        poller's vanished-interface cleanup: the agents stop reporting them,
        so a retained entry could only ever feed the alarm a phantom
        utilisation against state that no longer exists.  Links that
        appeared (restorations, provisioning) start monitoring with a fresh
        EWMA; surviving links re-read their capacity so provisioning events
        reach the alarm at the next read.
        """
        revision = self.topology.revision
        if revision == self._capacity_revision:
            return
        current = self.topology.capacities()
        for key in list(self._estimates):
            if key not in current:
                del self._estimates[key]
                self._capacities.pop(key, None)
        for key, capacity in current.items():
            if key not in self._estimates:
                self._estimates[key] = Ewma(alpha=self.alpha)
            self._capacities[key] = capacity
        self._capacity_revision = revision

    def ingest(self, sample: PollSample) -> None:
        """Fold one poll sample into the estimates (idle links decay toward 0)."""
        self._refresh_capacities()
        for link, ewma in self._estimates.items():
            ewma.update(sample.rates.get(link, 0.0))
        self.last_update = sample.time

    def rate(self, source: str, target: str) -> float:
        """Smoothed rate estimate for a directed link (bit/s)."""
        self._refresh_capacities()
        key = (source, target)
        if key not in self._estimates:
            raise MonitoringError(f"link {source}->{target} is not monitored")
        return self._estimates[key].value

    def utilization(self, source: str, target: str) -> float:
        """Smoothed utilisation estimate for a directed link."""
        self._refresh_capacities()
        key = (source, target)
        if key not in self._estimates:
            raise MonitoringError(f"link {source}->{target} is not monitored")
        capacity = self._capacities[key]
        return self._estimates[key].value / capacity if capacity > 0 else 0.0

    def views(self) -> List[LinkLoadView]:
        """Current estimate for every monitored link, sorted by link key."""
        self._refresh_capacities()
        return [
            LinkLoadView(link=key, rate=self._estimates[key].value, capacity=self._capacities[key])
            for key in sorted(self._estimates)
        ]

    def max_utilization(self) -> float:
        """Largest estimated utilisation across all monitored links."""
        return max((view.utilization for view in self.views()), default=0.0)

    def links_above(self, threshold: float) -> List[LinkLoadView]:
        """Monitored links whose estimated utilisation is >= ``threshold``."""
        return [view for view in self.views() if view.utilization >= threshold]
