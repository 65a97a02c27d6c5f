"""Aggregate traffic matrices and demand classes.

The TE baselines and the Fibbing optimizer reason about aggregate demands
(how many bit/s enter at router X toward prefix P) rather than individual
flows.  :class:`TrafficMatrix` is that aggregation; it is built directly
(static experiments like Fig. 1) or from the servers' new-client
notifications (the controller's view).

:class:`DemandClass` extends the aggregation into the data plane itself: a
class is an ``(ingress, prefix, per-session rate, session_count)`` bundle —
one arrival cohort of a flash crowd — that the
:class:`~repro.dataplane.engine.AggregateDemandEngine` routes and rates as
a unit.  Every class owns a contiguous block of session ids drawn from the
same id sequence :class:`~repro.dataplane.flows.FlowSet` uses, so an
aggregate run and a per-flow oracle run fed the same arrival sequence give
every session the same id — the anchor of the per-session ECMP hashing
equivalence the differential suite pins.

Float discipline: per-key demand contributions are stored individually and
summed with :func:`math.fsum` (correctly rounded), so the aggregate rate is
independent of the order in which entries were added, and
:meth:`TrafficMatrix.entries` sorts by ``(ingress, prefix)``.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Mapping, Tuple

from repro.util.errors import SimulationError, ValidationError
from repro.util.prefixes import Prefix
from repro.util.validation import check_non_negative, check_positive

__all__ = ["DemandEntry", "TrafficMatrix", "ClassSpec", "DemandClass", "ClassSet"]


@dataclass(frozen=True)
class DemandEntry:
    """Aggregate demand entering the network at ``ingress`` toward ``prefix``."""

    ingress: str
    prefix: Prefix
    rate: float

    def __post_init__(self) -> None:
        check_non_negative(self.rate, "rate")


class TrafficMatrix:
    """Mapping from (ingress router, destination prefix) to aggregate rate.

    Contributions are kept individually and folded with :func:`math.fsum`,
    so every derived quantity (rates, totals, entries) is independent of
    insertion order.
    """

    def __init__(self, entries: Iterable[DemandEntry] = ()) -> None:
        self._contributions: Dict[Tuple[str, Prefix], List[float]] = {}
        for entry in entries:
            self.add(entry.ingress, entry.prefix, entry.rate)

    @classmethod
    def from_dict(cls, demands: Mapping[Tuple[str, str | Prefix], float]) -> "TrafficMatrix":
        """Build from a ``{(ingress, prefix): rate}`` dictionary (prefixes may be strings)."""
        matrix = cls()
        for (ingress, prefix), rate in demands.items():
            if isinstance(prefix, str):
                prefix = Prefix.parse(prefix)
            matrix.add(ingress, prefix, rate)
        return matrix

    def add(self, ingress: str, prefix: Prefix, rate: float) -> None:
        """Add ``rate`` bit/s to the demand from ``ingress`` toward ``prefix``."""
        check_non_negative(rate, "rate")
        if not ingress:
            raise ValidationError("ingress must be a non-empty router name")
        self._contributions.setdefault((ingress, prefix), []).append(float(rate))

    def rate(self, ingress: str, prefix: Prefix) -> float:
        """Demand from ``ingress`` toward ``prefix`` (0.0 when absent)."""
        return math.fsum(self._contributions.get((ingress, prefix), ()))

    def _rates(self) -> Dict[Tuple[str, Prefix], float]:
        """Per-key correctly-rounded sums of the stored contributions."""
        return {
            key: math.fsum(values) for key, values in self._contributions.items()
        }

    @property
    def prefixes(self) -> List[Prefix]:
        """All destination prefixes with positive demand, sorted."""
        return sorted({prefix for (_, prefix), rate in self._rates().items() if rate > 0})

    def entries(self) -> List[DemandEntry]:
        """All positive demand entries, sorted for determinism."""
        return [
            DemandEntry(ingress=ingress, prefix=prefix, rate=rate)
            for (ingress, prefix), rate in sorted(
                self._rates().items(), key=lambda item: (item[0][0], item[0][1])
            )
            if rate > 0
        ]

    def demands_for(self, prefix: Prefix) -> Dict[str, float]:
        """Per-ingress demands toward ``prefix``."""
        return {
            ingress: rate
            for (ingress, pfx), rate in self._rates().items()
            if pfx == prefix and rate > 0
        }

    def total(self) -> float:
        """Total offered load (bit/s)."""
        return math.fsum(
            value for values in self._contributions.values() for value in values
        )

    def __len__(self) -> int:
        return sum(1 for rate in self._rates().values() if rate > 0)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"TrafficMatrix(entries={len(self)}, total={self.total():.0f} bit/s)"


# --------------------------------------------------------------------- #
# Demand classes
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class ClassSpec:
    """Parameters of a demand class about to be created (ids not yet allocated).

    The aggregate mirror of :class:`~repro.dataplane.flows.FlowSpec`: one
    arrival cohort of ``count`` sessions, each demanding ``rate`` bit/s.
    """

    ingress: str
    prefix: Prefix
    rate: float
    count: int
    label: str = ""


@dataclass(frozen=True)
class DemandClass:
    """One cohort of identical sessions: ``count`` × (``ingress`` → ``prefix`` @ ``rate``).

    The class owns the contiguous session-id block
    ``[base_session_id, base_session_id + count)``; per-session ECMP hashing
    uses those ids exactly as it uses a flow's id, so a cohort routes every
    session as the same sessions would route as flows.
    """

    class_id: int
    ingress: str
    prefix: Prefix
    rate: float
    count: int
    base_session_id: int
    label: str = ""

    def __post_init__(self) -> None:
        if self.class_id < 0:
            raise ValidationError(f"class_id must be non-negative, got {self.class_id}")
        if not self.ingress:
            raise ValidationError("class ingress router must be a non-empty name")
        check_positive(self.rate, "rate")
        if not isinstance(self.count, int) or isinstance(self.count, bool) or self.count < 1:
            raise ValidationError(f"session count must be a positive int, got {self.count!r}")

    @property
    def session_ids(self) -> range:
        """The session ids of this cohort (contiguous, ascending)."""
        return range(self.base_session_id, self.base_session_id + self.count)


class ClassSet:
    """Mutable collection of active demand classes with id-block allocation.

    Class ids and session-id blocks are allocated from monotonic counters;
    session ids are never reused, matching
    :class:`~repro.dataplane.flows.FlowSet`'s flow-id discipline.
    """

    def __init__(self) -> None:
        self._classes: Dict[int, DemandClass] = {}
        self._next_class_id = 0
        self._next_session_id = 0
        #: Sorted (base_session_id, class_id) pairs of the active classes,
        #: for session-id → class lookups by bisection.
        self._bases: List[Tuple[int, int]] = []

    def create(
        self, ingress: str, prefix: Prefix, rate: float, count: int, label: str = ""
    ) -> DemandClass:
        """Create, register and return a new class with fresh id block."""
        demand_class = DemandClass(
            class_id=self._next_class_id,
            ingress=ingress,
            prefix=prefix,
            rate=rate,
            count=count,
            base_session_id=self._next_session_id,
            label=label,
        )
        self._classes[demand_class.class_id] = demand_class
        self._next_class_id += 1
        self._next_session_id += count
        self._bases.append((demand_class.base_session_id, demand_class.class_id))
        return demand_class

    def remove(self, class_id: int) -> DemandClass:
        """Deregister and return the class with ``class_id``."""
        try:
            demand_class = self._classes.pop(class_id)
        except KeyError:
            raise SimulationError(f"class id {class_id} is not active") from None
        self._bases.remove((demand_class.base_session_id, class_id))
        return demand_class

    def get(self, class_id: int) -> DemandClass:
        """The active class with ``class_id`` (raises if absent)."""
        try:
            return self._classes[class_id]
        except KeyError:
            raise SimulationError(f"class id {class_id} is not active") from None

    def class_of_session(self, session_id: int) -> DemandClass:
        """The active class whose id block contains ``session_id``."""
        index = bisect_right(self._bases, (session_id, float("inf"))) - 1
        if index >= 0:
            base, class_id = self._bases[index]
            demand_class = self._classes[class_id]
            if base <= session_id < base + demand_class.count:
                return demand_class
        raise SimulationError(f"session id {session_id} belongs to no active class")

    def __contains__(self, class_id: int) -> bool:
        return class_id in self._classes

    def __iter__(self) -> Iterator[DemandClass]:
        for class_id in sorted(self._classes):
            yield self._classes[class_id]

    def __len__(self) -> int:
        return len(self._classes)

    def total_sessions(self) -> int:
        """Number of active sessions across all classes."""
        return sum(demand_class.count for demand_class in self._classes.values())
