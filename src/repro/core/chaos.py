"""Deterministic fault injection on the shared timeline.

The paper's central robustness claim is that Fibbing degrades gracefully:
the lies live *in the IGP* (fake LSAs in every router's LSDB), so routers
keep forwarding on the lied topology even when the controller or the
monitoring path dies.  This module provides the machinery to actually test
that claim:

* :class:`FaultPlan` — a declarative, seeded description of the chaos a run
  is subjected to: discrete events (link down/up, controller crash/restart)
  pinned to simulated-time instants, plus continuous degradation knobs
  (per-adjacency LSA loss in the flooding fabric, SNMP poll timeouts with
  retry/backoff/omission).  Every random draw comes from an explicit
  ``random.Random`` derived from the plan's integer seed by integer
  arithmetic, so runs are bit-reproducible and independent of
  ``PYTHONHASHSEED``.

* :class:`FaultInjector` — binds a plan to a live
  :class:`~repro.igp.network.IgpNetwork` (and optionally a controller and a
  poller), schedules the events on the shared timeline, wires the loss and
  timeout knobs, and accounts for everything in :class:`FaultCounters`
  (``fault_*`` keys), which ride along the other layers in
  ``IgpNetwork.spf_stats``.

The degenerate point costs nothing: an empty plan schedules no events,
draws no random numbers, and leaves every knob at its byte-identical
default — runs without a fault plan are unchanged down to the goldens.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.util.counters import Counters, counter
from repro.util.errors import ValidationError
from repro.util.validation import check_non_negative

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.controller import FibbingController
    from repro.igp.network import IgpNetwork
    from repro.igp.topology import Topology
    from repro.monitoring.poller import SnmpPoller

__all__ = [
    "FaultCounters",
    "FaultEvent",
    "FaultPlan",
    "FaultInjector",
    "build_link_churn",
]

#: Recognised :class:`FaultEvent` kinds.
FAULT_KINDS = ("link_down", "link_up", "controller_crash", "controller_restart")


@dataclass
class FaultCounters(Counters):
    """Accounting of injected chaos (the ``fault_*`` counters).

    ``link_downs`` / ``link_ups`` count executed link failure/restoration
    events; ``lsas_dropped`` counts flooding messages lost to the
    per-adjacency loss knob; ``poll_timeouts`` / ``poll_omissions`` count
    SNMP poll attempts that timed out and polling rounds abandoned after
    every retry failed; ``controller_crashes`` / ``controller_restarts``
    count :meth:`~repro.core.controller.FibbingController.detach` /
    :meth:`~repro.core.controller.FibbingController.resync` events executed
    by the injector.
    """

    link_downs: int = counter("fault_link_downs")
    link_ups: int = counter("fault_link_ups")
    lsas_dropped: int = counter("fault_lsas_dropped")
    poll_timeouts: int = counter("fault_poll_timeouts")
    poll_omissions: int = counter("fault_poll_omissions")
    controller_crashes: int = counter("fault_controller_crashes")
    controller_restarts: int = counter("fault_controller_restarts")


@dataclass(frozen=True)
class FaultEvent:
    """One discrete fault pinned to a simulated-time instant.

    ``kind`` is one of :data:`FAULT_KINDS`; link events name the two
    endpoints (order-insensitive, like
    :meth:`~repro.igp.network.IgpNetwork.fail_link`), controller events
    carry no operands (the injector's bound controller is the target).
    """

    time: float
    kind: str
    first: Optional[str] = None
    second: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValidationError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )
        check_non_negative(self.time, "fault event time")
        if self.kind in ("link_down", "link_up"):
            if not self.first or not self.second:
                raise ValidationError(
                    f"{self.kind} events need both link endpoints "
                    f"(got first={self.first!r}, second={self.second!r})"
                )
        elif self.first is not None or self.second is not None:
            raise ValidationError(
                f"{self.kind} events take no link endpoints "
                f"(got first={self.first!r}, second={self.second!r})"
            )


@dataclass(frozen=True)
class FaultPlan:
    """A declarative, seeded chaos schedule for one run.

    ``events`` are executed at their absolute simulated-time instants;
    ``lsa_loss_rate`` is the per-hop flooding drop probability (controller
    injections are exempt — see
    :meth:`~repro.igp.flooding.FloodingFabric.set_loss`);
    ``poll_timeout_rate`` / ``poll_max_retries`` / ``poll_retry_backoff``
    configure the SNMP degradation (see
    :meth:`~repro.monitoring.poller.SnmpPoller.set_timeouts`).  ``seed``
    derives the independent random streams of the two continuous knobs by
    integer arithmetic, so the loss outcomes do not shift when the timeout
    knob is toggled (and vice versa), and nothing depends on
    ``PYTHONHASHSEED``.
    """

    events: Tuple[FaultEvent, ...] = ()
    lsa_loss_rate: float = 0.0
    poll_timeout_rate: float = 0.0
    poll_max_retries: int = 2
    poll_retry_backoff: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(self.events))
        for name in ("lsa_loss_rate", "poll_timeout_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValidationError(f"{name} must be in [0, 1], got {rate}")
        if self.poll_max_retries < 0:
            raise ValidationError(
                f"poll_max_retries must be >= 0, got {self.poll_max_retries}"
            )
        check_non_negative(self.poll_retry_backoff, "poll_retry_backoff")

    @property
    def is_empty(self) -> bool:
        """Whether this plan injects nothing at all (the degenerate point)."""
        return (
            not self.events
            and self.lsa_loss_rate == 0.0
            and self.poll_timeout_rate == 0.0
        )

    def loss_rng(self) -> random.Random:
        """The seeded stream of the LSA-loss knob."""
        return random.Random(self.seed * 1_000_003 + 101)

    def timeout_rng(self) -> random.Random:
        """The seeded stream of the poll-timeout knob."""
        return random.Random(self.seed * 1_000_003 + 211)


def build_link_churn(
    topology: "Topology",
    rng: random.Random,
    count: int,
    start: float,
    spacing: float,
    hold: float,
    exclude_routers: Sequence[str] = (),
) -> List[FaultEvent]:
    """Seeded sequential link down/up churn that never partitions the domain.

    Generates ``count`` failure/restoration pairs: episode ``k`` fails one
    randomly chosen link at ``start + k * spacing`` and restores it ``hold``
    seconds later.  ``hold`` must stay below ``spacing`` so at most one link
    is down at any instant, and each candidate is connectivity-checked
    against the (intact) topology before selection — a failed link never
    splits the router graph, so SPF stays total and the run exercises
    *degradation*, not disconnection.  ``exclude_routers`` removes every
    link incident to the named routers from the candidate pool — the chaos
    experiments exclude the lie anchors, whose adjacency an installed fake
    LSA's forwarding address must keep resolving through.  The choice is
    made on the sorted undirected link list with an explicit ``rng``,
    independent of ``PYTHONHASHSEED``.
    """
    if count < 0:
        raise ValidationError(f"churn count must be >= 0, got {count}")
    if count and hold >= spacing:
        raise ValidationError(
            f"hold ({hold}) must stay below spacing ({spacing}) so episodes "
            "never overlap (at most one link down at a time)"
        )
    excluded = set(exclude_routers)
    pairs = sorted(
        {(min(link.source, link.target), max(link.source, link.target))
         for link in topology.links}
    )
    candidates = [
        pair
        for pair in pairs
        if pair[0] not in excluded
        and pair[1] not in excluded
        and _stays_connected(topology, pair[0], pair[1])
    ]
    if count and not candidates:
        raise ValidationError(
            "no link of the topology can fail without partitioning it"
        )
    events: List[FaultEvent] = []
    for index in range(count):
        first, second = candidates[rng.randrange(len(candidates))]
        down_at = start + index * spacing
        events.append(FaultEvent(time=down_at, kind="link_down", first=first, second=second))
        events.append(FaultEvent(time=down_at + hold, kind="link_up", first=first, second=second))
    return events


def _stays_connected(topology: "Topology", first: str, second: str) -> bool:
    """Whether the router graph stays connected without link first-second."""
    routers = sorted(topology.routers)
    if len(routers) <= 1:
        return True
    adjacency: Dict[str, List[str]] = {router: [] for router in routers}
    removed = {(first, second), (second, first)}
    for link in topology.links:
        if (link.source, link.target) in removed:
            continue
        adjacency[link.source].append(link.target)
    seen = {routers[0]}
    frontier = [routers[0]]
    while frontier:
        node = frontier.pop()
        for neighbor in adjacency[node]:
            if neighbor not in seen:
                seen.add(neighbor)
                frontier.append(neighbor)
    return len(seen) == len(routers)


class FaultInjector:
    """Executes a :class:`FaultPlan` against a live network.

    Construction wires nothing; :meth:`start` registers the injector with
    the network (so its counters surface through ``spf_stats``), installs
    the continuous degradation knobs and schedules every discrete event on
    the shared timeline.  Events then
    fire as the timeline advances — interleaved with polls, reactions and
    flooding exactly as a real outage would be.
    """

    def __init__(
        self,
        network: "IgpNetwork",
        plan: FaultPlan,
        controller: Optional["FibbingController"] = None,
        poller: Optional["SnmpPoller"] = None,
    ) -> None:
        needs_controller = any(
            event.kind in ("controller_crash", "controller_restart")
            for event in plan.events
        )
        if needs_controller and controller is None:
            raise ValidationError(
                "the fault plan schedules controller crash/restart events "
                "but no controller was bound to the injector"
            )
        if plan.poll_timeout_rate > 0.0 and poller is None:
            raise ValidationError(
                "the fault plan sets poll_timeout_rate but no poller was "
                "bound to the injector"
            )
        self.network = network
        self.plan = plan
        self.controller = controller
        self.poller = poller
        self._events = FaultCounters()
        self._started = False

    @property
    def counters(self) -> FaultCounters:
        """Current fault accounting (event counts plus live poller reads).

        Poll timeouts/omissions are counted where they happen (on the
        poller) and folded in at read time, so there is exactly one source
        of truth per counter.
        """
        merged = FaultCounters()
        merged.merge(self._events)
        if self.poller is not None:
            merged.poll_timeouts += self.poller.poll_timeouts
            merged.poll_omissions += self.poller.poll_omissions
        return merged

    def start(self) -> None:
        """Register, wire the knobs and schedule every event (idempotent)."""
        if self._started:
            return
        self._started = True
        self.network.register_fault_injector(self)
        if self.plan.lsa_loss_rate > 0.0:
            self.network.fabric.set_loss(
                self.plan.lsa_loss_rate,
                self.plan.loss_rng(),
                on_drop=self._on_lsa_drop,
            )
        if self.plan.poll_timeout_rate > 0.0:
            assert self.poller is not None  # enforced in __init__
            self.poller.set_timeouts(
                self.plan.poll_timeout_rate,
                self.plan.timeout_rng(),
                max_retries=self.plan.poll_max_retries,
                retry_backoff=self.plan.poll_retry_backoff,
            )
        now = self.network.timeline.now
        for event in sorted(self.plan.events, key=lambda item: (item.time, item.kind)):
            if event.time < now:
                raise ValidationError(
                    f"fault event at t={event.time} is in the past (now={now})"
                )
            self.network.timeline.schedule(
                event.time,
                lambda fault=event: self._fire(fault),
                label=f"fault:{event.kind}",
            )

    def _on_lsa_drop(self, _source: str, _target: str, _lsa: object) -> None:
        self._events.lsas_dropped += 1

    def _fire(self, event: FaultEvent) -> None:
        if event.kind == "link_down":
            self.network.fail_link(event.first, event.second)
            self._events.link_downs += 1
        elif event.kind == "link_up":
            self.network.restore_link(event.first, event.second)
            self._events.link_ups += 1
        elif event.kind == "controller_crash":
            assert self.controller is not None  # enforced in __init__
            self.controller.detach()
            self._events.controller_crashes += 1
        else:  # controller_restart
            assert self.controller is not None  # enforced in __init__
            self.controller.resync()
            self._events.controller_restarts += 1

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"FaultInjector(events={len(self.plan.events)}, "
            f"loss={self.plan.lsa_loss_rate}, timeout={self.plan.poll_timeout_rate}, "
            f"started={self._started})"
        )
