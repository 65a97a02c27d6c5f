"""Event-driven data-plane simulation engine.

One engine, :class:`AggregateDemandEngine`, owns *demand classes* —
``(ingress, prefix, per-session rate, session_count)`` cohorts — and does
O(classes × path groups) work per event instead of O(sessions), which is
what makes million-session flash crowds simulable on one core.  A class is
routed by walking the whole session population down the per-prefix
forwarding DAG, hashing individual session ids only at genuine ECMP branch
points; rates come from progressive filling with the entity ``count``
multiplicity of :mod:`repro.dataplane.fairness`.

:class:`DataPlaneEngine` is its per-flow view: every flow is a one-session
class, hashed at every branch as a session of a cohort would be.  Fig. 2
and the ISP worlds run flows, the flash crowds run cohorts; on the same
arrival sequence both produce bit-identical session rates, link rates,
byte counters and samples (``tests/test_dataplane_classes.py``).

Between state changes rates are constant, so byte counters (the quantities
SNMP exposes and Fig. 2 plots) are advanced analytically — no per-packet or
per-session work is ever done.

The refresh is **incremental**, mirroring the control plane's SPF/RIB
caches one layer down the stack: a
:class:`~repro.dataplane.path_cache.FlowPathCache` diffs the FIBs and
re-walks only the classes whose cached walk crosses a changed *(router,
prefix)* entry, and a
:class:`~repro.dataplane.path_cache.WarmStartAllocator` re-runs progressive
filling only on the connected components of the entity-link hypergraph that
the event dirtied, however many that is; only the first allocation of an
engine runs from scratch.  Both repairs are bit-identical to a from-scratch
re-walk and re-allocation; the from-scratch engines (per flow and per
class) live in ``tests/oracles.py``, and the differential suites
``tests/test_dataplane_incremental.py`` / ``tests/test_dataplane_classes.py``
hold the product to them.

Per-link totals are computed *canonically*: member contributions are
grouped by exact rate value and summed in ascending rate order, multiplied
by the integer session count per group.  The grouping makes the totals a
function of the (rate → session count) multiset only, so ``n`` flows and
one cohort of ``n`` sessions produce bitwise-equal link rates (and hence
byte counters and samples).

Periodic sampling events record the average per-link throughput since the
previous sample; the Fig. 2 benchmark plots exactly those samples.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from dataclasses import dataclass

import numpy as np

from repro.dataplane.demand import ClassSpec, ClassSet, DemandClass
from repro.dataplane.flows import Flow, FlowSpec
from repro.dataplane.forwarding import (
    ClassPathGroup,
    FlowPath,
    route_class_sessions,
)
from repro.dataplane.linkstats import LinkLoads
from repro.dataplane.path_cache import (
    DataPlaneCounters,
    FlowInput,
    FlowPathCache,
    WarmStartAllocator,
)
from repro.igp.fib import Fib
from repro.igp.topology import Topology
from repro.util.errors import SimulationError
from repro.util.prefixes import Prefix
from repro.util.timeline import Timeline
from repro.util.validation import check_positive

__all__ = ["DataPlaneEngine", "AggregateDemandEngine", "LinkSample"]

LinkKey = Tuple[str, str]

#: Type of the callable giving the engine the routers' current FIBs.  Routers
#: that have not installed a FIB yet may simply be absent from the mapping.
FibProvider = Callable[[], Mapping[str, Fib]]


@dataclass(frozen=True)
class LinkSample:
    """Average per-link throughput (bit/s) over one sampling interval."""

    time: float
    interval: float
    rates: Dict[LinkKey, float]

    def rate_of(self, source: str, target: str) -> float:
        """Average rate on the directed link ``source -> target`` (0.0 if idle)."""
        return self.rates.get((source, target), 0.0)


def _canonical_link_total(contributions: Iterable[Tuple[float, int]]) -> float:
    """Canonical per-link total of ``(per-session rate, session count)`` pairs.

    Contributions are grouped by exact rate value (session counts summed as
    exact integers) and folded in ascending rate order, so the result
    depends only on the (rate → session count) multiset.  ``n`` flows at
    rate ``r`` and one class group of count ``n`` at rate ``r`` therefore
    total bitwise-identically — the keystone of the flow/cohort
    equivalence.
    """
    groups: Dict[float, int] = {}
    for rate, count in contributions:
        if rate > 0:
            groups[rate] = groups.get(rate, 0) + count
    total = 0.0
    for rate in sorted(groups):
        total += rate * groups[rate]
    return total


class DataPlaneEngineBase:
    """Timeline, sampling and byte-counter core of a data-plane engine.

    Subclasses (the class engine here, the from-scratch per-flow oracle in
    ``tests/oracles.py``) implement ``_recompute(arrivals=...,
    departures=...)`` (refresh routing and rates after one event) and
    ``_advance_entity_bytes(elapsed)`` (integrate per-entity byte
    counters); everything else — periodic sampling, link byte integration,
    network binding, listeners — lives here.
    """

    def __init__(
        self,
        topology: Topology,
        fib_provider: FibProvider,
        timeline: Timeline,
        sample_interval: float = 1.0,
        hash_salt: int = 0,
    ) -> None:
        self.topology = topology
        self.fib_provider = fib_provider
        self.timeline = timeline
        self.sample_interval = check_positive(sample_interval, "sample_interval")
        self.hash_salt = hash_salt

        self.samples: List[LinkSample] = []
        self.counters = DataPlaneCounters()

        self._allocator = WarmStartAllocator()
        # Read through _current_capacities(), which follows the topology's
        # revision.
        self._capacities: Dict[LinkKey, float] = topology.capacities()
        self._capacity_revision = topology.revision
        # Current (instantaneous) per-link rates, valid since _last_advance.
        self._link_rates: Dict[LinkKey, float] = {}
        # Cumulative transmitted bytes (what SNMP interface counters expose).
        self._link_bytes: Dict[LinkKey, float] = {link.key: 0.0 for link in topology.links}
        self._last_advance = timeline.now
        self._last_sample_bytes: Dict[LinkKey, float] = dict(self._link_bytes)
        self._last_sample_time = timeline.now

        self._sample_listeners: List[Callable[[LinkSample], None]] = []
        self._started = False

    # ------------------------------------------------------------------ #
    # Listeners
    # ------------------------------------------------------------------ #
    def on_sample(self, listener: Callable[[LinkSample], None]) -> None:
        """Register ``listener(sample)`` called after every periodic sample."""
        self._sample_listeners.append(listener)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> None:
        """Begin periodic sampling (idempotent)."""
        if self._started:
            return
        self._started = True
        self.timeline.schedule_in(self.sample_interval, self._sample, label="dataplane-sample")

    def notify_routing_change(self) -> None:
        """Tell the engine the FIBs changed; paths and rates are recomputed.

        The control plane calls this (directly or through
        :meth:`bind_to_network`) after a router installs a new FIB.  Only
        the entities whose cached walk crosses a changed FIB entry are
        re-walked.
        """
        self._advance_counters()
        self._recompute()

    def bind_to_network(self, network) -> None:
        """Convenience: recompute paths whenever an IgpNetwork installs a FIB.

        Also registers this engine with the network so its ``dp_*`` counters
        ride along the SPF/RIB ones in ``IgpNetwork.spf_stats`` and the
        monitoring collector.
        """
        network.on_fib_change(lambda _router, _fib: self.notify_routing_change())
        register = getattr(network, "register_dataplane", None)
        if register is not None:
            register(self)

    # ------------------------------------------------------------------ #
    # State inspection
    # ------------------------------------------------------------------ #
    def link_rate(self, source: str, target: str) -> float:
        """Current instantaneous rate on the directed link ``source -> target``."""
        return self._link_rates.get((source, target), 0.0)

    def link_transmitted_bytes(self, source: str, target: str) -> float:
        """Cumulative transmitted bytes on a directed link (SNMP-style counter)."""
        self._advance_counters()
        return self._link_bytes[(source, target)]

    def all_link_counters(self) -> Dict[LinkKey, float]:
        """Snapshot of every link's cumulative byte counter."""
        self._advance_counters()
        return dict(self._link_bytes)

    def current_loads(self) -> LinkLoads:
        """Current instantaneous per-link carried load as a :class:`LinkLoads`."""
        loads = LinkLoads()
        for (source, target), rate in self._link_rates.items():
            if rate > 0:
                loads.add(source, target, rate)
        return loads

    def max_link_utilization(self) -> float:
        """Maximal instantaneous link utilisation across the topology."""
        return self.current_loads().max_utilization(self.topology)

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _recompute(
        self, arrivals: Sequence = (), departures: Sequence = ()
    ) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def _advance_entity_bytes(self, elapsed: float) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def _current_capacities(self) -> Dict[LinkKey, float]:
        """Link capacities at the topology's current revision.

        Re-read through :meth:`~repro.igp.topology.Topology.capacities`
        whenever the revision moved, as the monitoring collector does, so
        the allocator and the alarm divide by the same capacity.  A link
        that vanished keeps its last capacity: flows still routed over it
        until the FIBs reconverge are filled against it.  A capacity that
        moved makes the next allocation a full one, since a warm repair
        re-fills only the components of re-routed flows.
        """
        revision = self.topology.revision
        if revision != self._capacity_revision:
            self._capacity_revision = revision
            for key, capacity in self.topology.capacities().items():
                if self._capacities.setdefault(key, capacity) != capacity:
                    self._capacities[key] = capacity
                    self._allocator.reset()
        return self._capacities

    def _advance_counters(self) -> None:
        """Integrate the constant rates since the last advance into byte counters."""
        now = self.timeline.now
        elapsed = now - self._last_advance
        if elapsed < 0:  # pragma: no cover - defensive
            raise SimulationError("timeline moved backwards")
        if elapsed > 0:
            for link, rate in self._link_rates.items():
                if rate > 0:
                    self._link_bytes[link] = self._link_bytes.get(link, 0.0) + rate * elapsed / 8.0
            self._advance_entity_bytes(elapsed)
        self._last_advance = now

    def _sample(self) -> None:
        """Periodic sampling: average link rates since the previous sample."""
        self._advance_counters()
        now = self.timeline.now
        interval = now - self._last_sample_time
        rates: Dict[LinkKey, float] = {}
        if interval > 0:
            for link, total_bytes in self._link_bytes.items():
                previous = self._last_sample_bytes.get(link, 0.0)
                delta = total_bytes - previous
                if delta > 0:
                    rates[link] = delta * 8.0 / interval
        sample = LinkSample(time=now, interval=interval, rates=rates)
        self.samples.append(sample)
        self._last_sample_bytes = dict(self._link_bytes)
        self._last_sample_time = now
        for listener in self._sample_listeners:
            listener(sample)
        self.timeline.schedule_in(self.sample_interval, self._sample, label="dataplane-sample")


@dataclass
class _ByteCohort:
    """A maximal session subset with bitwise-identical per-session bytes.

    Cohorts start as one-per-path-group and are refined (split, never
    merged) whenever a re-walk regroups the class's sessions, so each
    cohort always lies inside exactly one current path group
    (``entity_id``).  Per-session byte accrual is then the very same
    ``bytes += rate * elapsed / 8`` a one-session class (a flow) applies
    to its own counter.
    """

    ids: Sequence[int]
    bytes_per_session: float
    entity_id: int

    @property
    def count(self) -> int:
        return len(self.ids)


def _ids_equal(left: Sequence[int], right: Sequence[int]) -> bool:
    """Exact equality of two strictly ascending id populations (O(1) with a range)."""
    if left is right:
        return True
    if isinstance(left, range) and isinstance(right, range):
        return left == right
    if len(left) != len(right):
        return False
    if isinstance(right, range):
        left, right = right, left
    if isinstance(left, range) and left.step == 1:
        # n strictly ascending ints from left[0] to left[-1] fill the range.
        return not left or (left[0] == right[0] and left[-1] == right[-1])
    if type(left) is type(right):
        return left == right
    return all(a == b for a, b in zip(left, right))


# Ids searched per numpy round trip of an array x array intersection: bounds
# the scratch index and mask arrays whatever the cohort sizes.
_INTERSECT_CHUNK = 1 << 13


def _ids_intersect(left: Sequence[int], right: Sequence[int]) -> Optional[Sequence[int]]:
    """Ascending intersection of two ascending id populations (``None`` if empty)."""
    if not len(left) or not len(right):
        return None
    # Fast paths: containment of one contiguous range in the other.
    if isinstance(left, range) and isinstance(right, range):
        start = max(left.start, right.start)
        stop = min(left.stop, right.stop)
        return range(start, stop) if start < stop else None
    if isinstance(right, range):
        left, right = right, left
    if isinstance(left, range):
        # left is a contiguous range, right an explicit array.
        lo = bisect_left(right, left.start)
        hi = bisect_left(right, left.stop)
        if lo >= hi:
            return None
        selected = right[lo:hi]
        return selected if len(selected) else None
    # Two explicit array('q') cohorts: binary-search each id of the shorter
    # one in the longer one, in chunks.
    if len(left) > len(right):
        left, right = right, left
    haystack = np.frombuffer(right, dtype=np.int64)
    last = len(haystack) - 1
    needles = np.frombuffer(left, dtype=np.int64)
    out = array("q")
    for start in range(0, len(needles), _INTERSECT_CHUNK):
        chunk = needles[start:start + _INTERSECT_CHUNK]
        found = haystack[np.minimum(np.searchsorted(haystack, chunk), last)] == chunk
        out.frombytes(chunk[found].tobytes())
    return out if len(out) else None


class AggregateDemandEngine(DataPlaneEngineBase):
    """Class-level data plane: cohorts of identical sessions as one entity.

    :meth:`add_classes` / :meth:`remove_class` start and end cohorts,
    :meth:`session_rate` / :meth:`session_transmitted_bytes` give
    per-session views (exact — each session gets the bitwise rate and byte
    counter it would get as a one-session class), and
    :meth:`class_transmitted_bytes` the aggregate the video layer feeds
    its cohort QoE clients from.  Work per event is O(classes × path
    groups); individual session ids are only ever touched at ECMP branch
    partitions (``dp_classes_splits``): one sha256 per session per branch.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.classes = ClassSet()
        self._path_cache = FlowPathCache()  # keyed by class id
        # Path groups and their allocator entities, per class.
        self._class_groups: Dict[int, List[ClassPathGroup]] = {}
        # Classes with an undelivered (blackholed or looping) path group.
        self._flawed_classes: Set[int] = set()
        self._class_entities: Dict[int, Tuple[int, ...]] = {}
        self._entity_links: Dict[int, Tuple[LinkKey, ...]] = {}
        self._entity_counts: Dict[int, int] = {}
        self._entity_rates: Dict[int, float] = {}
        self._link_members: Dict[LinkKey, Set[int]] = {}
        self._byte_cohorts: Dict[int, List[_ByteCohort]] = {}
        self._next_entity_id = 0

    # ------------------------------------------------------------------ #
    # Class management
    # ------------------------------------------------------------------ #
    def add_class(
        self, ingress: str, prefix: Prefix, rate: float, count: int, label: str = ""
    ) -> DemandClass:
        """Start one cohort of ``count`` sessions now; rates recompute immediately."""
        return self.add_classes(
            [ClassSpec(ingress=ingress, prefix=prefix, rate=rate, count=count, label=label)]
        )[0]

    def add_classes(self, specs: Sequence[ClassSpec]) -> List[DemandClass]:
        """Start a batch of cohorts now, paying for a single recomputation."""
        for spec in specs:
            if not self.topology.has_router(spec.ingress):
                raise SimulationError(
                    f"class ingress {spec.ingress!r} is not a router of the topology"
                )
            check_positive(spec.rate, "rate")
            if not isinstance(spec.count, int) or isinstance(spec.count, bool) or spec.count < 1:
                raise SimulationError(
                    f"class session count must be a positive int, got {spec.count!r}"
                )
        if not specs:
            return []
        self._advance_counters()
        classes: List[DemandClass] = []
        for spec in specs:
            demand_class = self.classes.create(
                ingress=spec.ingress,
                prefix=spec.prefix,
                rate=spec.rate,
                count=spec.count,
                label=spec.label,
            )
            classes.append(demand_class)
        self._recompute(arrivals=classes)
        return classes

    def remove_class(self, class_id: int) -> DemandClass:
        """Terminate the whole cohort ``class_id`` now; rates recompute immediately."""
        self._advance_counters()
        demand_class = self.classes.remove(class_id)
        self._recompute(departures=[demand_class])
        return demand_class

    # ------------------------------------------------------------------ #
    # State inspection
    # ------------------------------------------------------------------ #
    def routing_flaws(self) -> Tuple[Dict[object, int], Dict[object, int]]:
        """Path groups currently looping / blackholed on the installed FIBs.

        Returns ``(looping, blackholed)`` maps of opaque observation keys
        (``(class_id, hops)``) to affected session counts (whole path-group
        populations; 1 for a flow).  A *blackholed* group is one whose walk
        ended without reaching the destination and without looping —
        typically a missing FIB entry on a mixed-FIB interim state.  Pure
        read: no counter advance, no recomputation — safe to call from
        FIB-change listeners mid-convergence.
        """
        looping: Dict[object, int] = {}
        blackholed: Dict[object, int] = {}
        for class_id in self._flawed_classes:
            for group in self._class_groups[class_id]:
                if group.looped:
                    key = (class_id, group.hops)
                    looping[key] = looping.get(key, 0) + group.count
                elif not group.delivered:
                    key = (class_id, group.hops)
                    blackholed[key] = blackholed.get(key, 0) + group.count
        return looping, blackholed

    def session_rate(self, session_id: int) -> float:
        """Current allocated rate of one session (bit/s)."""
        demand_class = self.classes.class_of_session(session_id)
        for group, entity_id in zip(
            self._class_groups.get(demand_class.class_id, ()),
            self._class_entities.get(demand_class.class_id, ()),
        ):
            if self._population_contains(group.ids, session_id):
                return self._entity_rates.get(entity_id, 0.0)
        return 0.0

    def session_transmitted_bytes(self, session_id: int) -> float:
        """Bytes delivered so far for one session (bitwise per-flow-equal)."""
        self._advance_counters()
        demand_class = self.classes.class_of_session(session_id)
        for cohort in self._byte_cohorts.get(demand_class.class_id, ()):
            if self._population_contains(cohort.ids, session_id):
                return cohort.bytes_per_session
        return 0.0

    def class_transmitted_bytes(self, class_id: int) -> float:
        """Total bytes delivered to the cohort so far (canonical grouped sum)."""
        self._advance_counters()
        return _canonical_link_total(
            (cohort.bytes_per_session, cohort.count)
            for cohort in self._byte_cohorts.get(class_id, ())
        )

    def class_mean_transmitted_bytes(self, class_id: int) -> float:
        """Mean per-session delivered bytes of the cohort.

        When every byte cohort of the class carries the same per-session
        counter — the common case, populations only diverge at ECMP
        repartitions — that exact value is returned directly, with no
        ``* count / count`` round trip that could cost an ulp against a
        one-session class.  Divergent cohorts fall back to the count-weighted
        mean over the canonical grouped total.
        """
        self._advance_counters()
        cohorts = self._byte_cohorts.get(class_id, ())
        if not cohorts:
            return 0.0
        first = cohorts[0].bytes_per_session
        if all(cohort.bytes_per_session == first for cohort in cohorts[1:]):
            return first
        sessions = sum(cohort.count for cohort in cohorts)
        return _canonical_link_total(
            (cohort.bytes_per_session, cohort.count) for cohort in cohorts
        ) / sessions

    @staticmethod
    def _population_contains(ids: Sequence[int], session_id: int) -> bool:
        if isinstance(ids, range):
            return session_id in ids
        index = bisect_left(ids, session_id)
        return index < len(ids) and ids[index] == session_id

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _advance_entity_bytes(self, elapsed: float) -> None:
        for cohorts in self._byte_cohorts.values():
            for cohort in cohorts:
                rate = self._entity_rates.get(cohort.entity_id, 0.0)
                if rate > 0:
                    cohort.bytes_per_session += rate * elapsed / 8.0

    def _walk_class(
        self, demand_class: DemandClass, fibs: Mapping[str, Fib]
    ) -> List[ClassPathGroup]:
        groups, splits = route_class_sessions(
            fibs,
            demand_class.ingress,
            demand_class.prefix,
            demand_class.session_ids,
            salt=self.hash_salt,
        )
        self.counters.class_splits += splits
        return groups

    def _install_class_groups(
        self, demand_class: DemandClass, groups: List[ClassPathGroup]
    ) -> Tuple[List[int], Set[LinkKey], Dict[int, FlowInput]]:
        """Replace one class's entities; returns (old ids, old links, new inputs)."""
        class_id = demand_class.class_id
        old_entities, old_links = self._forget_entities(class_id)
        new_inputs: Dict[int, FlowInput] = {}
        entity_ids: List[int] = []
        for group in groups:
            entity_id = self._next_entity_id
            self._next_entity_id += 1
            entity_ids.append(entity_id)
            if group.delivered:
                links, demand = group.links, demand_class.rate
            else:
                links, demand = (), 0.0
            count = group.count
            new_inputs[entity_id] = (links, demand, count)
            self._entity_links[entity_id] = links
            self._entity_counts[entity_id] = count
            for link in links:
                self._link_members.setdefault(link, set()).add(entity_id)
        self._class_groups[class_id] = groups
        if all(group.delivered for group in groups):
            self._flawed_classes.discard(class_id)
        else:
            self._flawed_classes.add(class_id)
        self._class_entities[class_id] = tuple(entity_ids)
        self._refine_cohorts(class_id, groups, entity_ids)
        return old_entities, old_links, new_inputs

    def _refine_cohorts(
        self, class_id: int, groups: List[ClassPathGroup], entity_ids: List[int]
    ) -> None:
        """Re-anchor byte cohorts onto the new path groups, splitting as needed."""
        previous = self._byte_cohorts.get(class_id)
        if previous is None:
            self._byte_cohorts[class_id] = [
                _ByteCohort(ids=group.ids, bytes_per_session=0.0, entity_id=entity_id)
                for group, entity_id in zip(groups, entity_ids)
            ]
            return
        if len(entity_ids) == 1:
            # One group holds every session of the class: no cohort splits.
            for cohort in previous:
                cohort.entity_id = entity_ids[0]
            return
        refined: List[_ByteCohort] = []
        for cohort in previous:
            for group, entity_id in zip(groups, entity_ids):
                shared = _ids_intersect(cohort.ids, group.ids)
                if shared is None:
                    continue
                refined.append(
                    _ByteCohort(
                        ids=shared,
                        bytes_per_session=cohort.bytes_per_session,
                        entity_id=entity_id,
                    )
                )
        self._byte_cohorts[class_id] = refined

    def _drop_class_state(self, class_id: int) -> Tuple[List[int], Set[LinkKey]]:
        """Forget all entity state of a departed class; returns (ids, links)."""
        old_entities, old_links = self._forget_entities(class_id)
        self._class_entities.pop(class_id, None)
        self._class_groups.pop(class_id, None)
        self._flawed_classes.discard(class_id)
        self._byte_cohorts.pop(class_id, None)
        return old_entities, old_links

    def _forget_entities(self, class_id: int) -> Tuple[List[int], Set[LinkKey]]:
        """Drop the link state of one class's entities; returns (ids, links)."""
        old_entities = list(self._class_entities.get(class_id, ()))
        old_links: Set[LinkKey] = set()
        for entity_id in old_entities:
            links = self._entity_links.pop(entity_id, ())
            old_links.update(links)
            for link in links:
                self._discard_member(link, entity_id)
            self._entity_counts.pop(entity_id, None)
        return old_entities, old_links

    def _discard_member(self, link: LinkKey, entity_id: int) -> None:
        members = self._link_members.get(link)
        if members is not None:
            members.discard(entity_id)
            if not members:
                del self._link_members[link]

    def _recompute(
        self, arrivals: Sequence[DemandClass] = (), departures: Sequence[DemandClass] = ()
    ) -> None:
        """Re-walk only the dirty classes and warm-start the fair allocation."""
        fibs = dict(self.fib_provider())
        removed_entities: List[int] = []
        affected_links: Set[LinkKey] = set()
        for demand_class in departures:
            self._path_cache.drop(demand_class.class_id)
            old_entities, old_links = self._drop_class_state(demand_class.class_id)
            removed_entities.extend(old_entities)
            affected_links.update(old_links)

        dirty_entries = self._path_cache.observe(fibs)
        to_walk = sorted(
            self._path_cache.dirty_flows(dirty_entries).union(
                demand_class.class_id for demand_class in arrivals
            )
        )
        self.counters.classes_rewalked += len(to_walk)
        self.counters.classes_reused += len(self.classes) - len(to_walk)

        changed_inputs: Dict[int, FlowInput] = {}
        for class_id in to_walk:
            demand_class = self.classes.get(class_id)
            groups = self._walk_class(demand_class, fibs)
            self._path_cache.store_entity(
                class_id,
                demand_class.prefix,
                [hop for group in groups for hop in group.hops],
            )
            previous = self._class_groups.get(class_id)
            if previous is not None and self._groups_equal(previous, groups):
                # Same partition, same paths: entities and inputs carry over
                # (the allocator sees nothing and keeps the exact rates).
                continue
            old_entities, old_links, new_inputs = self._install_class_groups(
                demand_class, groups
            )
            removed_entities.extend(old_entities)
            affected_links.update(old_links)
            changed_inputs.update(new_inputs)

        repair = self._allocator.update(
            changed=changed_inputs,
            removed=removed_entities,
            capacities=self._current_capacities(),
        )
        if repair.mode == "warm":
            self.counters.alloc_warm_starts += 1
        elif repair.mode == "full":
            self.counters.alloc_full += 1
        self._entity_rates = self._allocator.rates

        for entity_id, (links, _demand, _count) in changed_inputs.items():
            affected_links.update(links)
        for entity_id in repair.rate_changed:
            if entity_id not in changed_inputs:
                affected_links.update(self._entity_links.get(entity_id, ()))
        for link in affected_links:
            self._retotal_link(link)

    @staticmethod
    def _groups_equal(
        previous: Sequence[ClassPathGroup], groups: Sequence[ClassPathGroup]
    ) -> bool:
        if len(previous) != len(groups):
            return False
        for old, new in zip(previous, groups):
            if (
                old.hops != new.hops
                or old.delivered != new.delivered
                or old.looped != new.looped
                or not _ids_equal(old.ids, new.ids)
            ):
                return False
        return True

    def _retotal_link(self, link: LinkKey) -> None:
        """Re-sum one link's carried rate over its member entities, canonically."""
        total = _canonical_link_total(
            (self._entity_rates.get(entity_id, 0.0), self._entity_counts[entity_id])
            for entity_id in self._link_members.get(link, ())
        )
        if total > 0:
            self._link_rates[link] = total
        else:
            self._link_rates.pop(link, None)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"{type(self).__name__}(classes={len(self.classes)}, "
            f"sessions={self.classes.total_sessions()}, t={self.timeline.now:.3f}, "
            f"samples={len(self.samples)})"
        )


class DataPlaneEngine(AggregateDemandEngine):
    """Flow-level view of the class engine: every flow is a one-session class.

    While every class holds one session, :class:`ClassSet` hands out class
    and session ids in step, so a flow's id is its class id and its session
    id: it is hashed by that id at every ECMP branch, and
    :meth:`routing_flaws` reports it under ``(flow_id, hops)`` with weight 1.
    """

    @property
    def flows(self) -> ClassSet:
        """The active flows: one-session :class:`DemandClass` records whose
        ``class_id`` is the flow id."""
        return self.classes

    def add_flow(self, ingress: str, prefix: Prefix, demand: float, label: str = "") -> Flow:
        """Start a new flow now; rates are recomputed immediately."""
        return self.add_flows([FlowSpec(ingress=ingress, prefix=prefix, demand=demand, label=label)])[0]

    def add_flows(self, specs: Sequence[FlowSpec]) -> List[Flow]:
        """Start a batch of flows now, paying for a single recomputation.

        All-or-nothing, like :meth:`add_classes`: one bad spec starts none.
        """
        classes = self.add_classes(
            [
                ClassSpec(
                    ingress=spec.ingress, prefix=spec.prefix, rate=spec.demand, count=1,
                    label=spec.label,
                )
                for spec in specs
            ]
        )
        return [_as_flow(demand_class) for demand_class in classes]

    def remove_flow(self, flow_id: int) -> Flow:
        """Terminate the flow with ``flow_id`` now; rates are recomputed immediately."""
        return _as_flow(self.remove_class(flow_id))

    def flow_rate(self, flow_id: int) -> float:
        """Current allocated rate of a flow (bit/s; 0.0 once it ended)."""
        entities = self._class_entities.get(flow_id)
        return self._entity_rates.get(entities[0], 0.0) if entities else 0.0

    def flow_path(self, flow_id: int) -> Optional[FlowPath]:
        """Current path of a flow (``None`` once it ended)."""
        groups = self._class_groups.get(flow_id)
        if not groups:
            return None
        group = groups[0]
        return FlowPath(
            flow_id=flow_id, hops=group.hops, delivered=group.delivered, looped=group.looped
        )

    def flow_transmitted_bytes(self, flow_id: int) -> float:
        """Bytes delivered so far for a flow (0.0 once it ended).

        Reads advance the byte counters first, like the link counters do.
        """
        self._advance_counters()
        cohorts = self._byte_cohorts.get(flow_id)
        return cohorts[0].bytes_per_session if cohorts else 0.0

    # Its own name in this class body, so a tracer patching
    # ``vars(DataPlaneEngine)`` finds it.
    routing_flaws = AggregateDemandEngine.routing_flaws



def _as_flow(demand_class: DemandClass) -> Flow:
    return Flow(
        flow_id=demand_class.class_id,
        ingress=demand_class.ingress,
        prefix=demand_class.prefix,
        demand=demand_class.rate,
        label=demand_class.label,
    )
