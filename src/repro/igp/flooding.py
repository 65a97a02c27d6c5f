"""Reliable LSA flooding between adjacent routers.

The fabric models what OSPF flooding provides to the rest of the system:
every LSA originated (or injected by the Fibbing controller at its
attachment point) eventually reaches every router, propagating hop by hop
with per-link delays, and duplicate instances stop spreading as soon as a
router recognises them as stale.

Deliveries due at the same instant ride in *runs*: one timeline event
hands a list of ``(target, lsa, source)`` to the routers one LSA at a time.
A send joins the open run only while that run's event is due at the same
instant, has not started firing and is still the last event the timeline
scheduled; otherwise it opens a new run.  The sends a run merges would have
been adjacent in the timeline's FIFO order anyway, so every delivery keeps
its exact position relative to every other event.

The fabric also keeps counters (messages, bytes) that the control-plane
overhead benchmark reads to compare Fibbing against the MPLS RSVP-TE
baseline.  They count LSA-hops, not runs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.igp.lsa import Lsa
from repro.igp.topology import Topology
from repro.util.counters import Counters, counter
from repro.util.errors import TopologyError
from repro.util.timeline import ScheduledEvent, Timeline
from repro.util.validation import check_non_negative

__all__ = ["FloodingFabric", "FloodingStats"]

#: Per-hop processing delay added on top of the link propagation delay, in
#: seconds.  Mirrors the per-LSA processing cost of a software router.
DEFAULT_PROCESSING_DELAY = 0.002

#: One delivery of a run: ``(target, lsa, source)``; ``source`` is ``None``
#: for a controller injection.
Delivery = Tuple[str, Lsa, Optional[str]]


@dataclass
class FloodingStats(Counters):
    """Counters describing the flooding traffic seen so far."""

    messages_sent: int = counter("messages_sent")
    bytes_sent: int = counter("bytes_sent")
    deliveries: int = counter("deliveries")
    duplicates_suppressed: int = counter("duplicates_suppressed")
    messages_dropped: int = counter("messages_dropped")


class FloodingFabric:
    """Delivers LSAs between adjacent routers with realistic delays."""

    def __init__(
        self,
        topology: Topology,
        timeline: Timeline,
        processing_delay: float = DEFAULT_PROCESSING_DELAY,
    ) -> None:
        self.topology = topology
        self.timeline = timeline
        self.processing_delay = check_non_negative(processing_delay, "processing_delay")
        self.stats = FloodingStats()
        # Fault-injection knob: per-adjacency LSA loss.  At the default rate
        # of 0.0 no random numbers are drawn and every message is delivered,
        # so runs without a fault plan are bit-identical to the pre-chaos
        # behaviour.  Controller injections (``inject``) are never subject to
        # loss: the controller session is a reliable TCP-like adjacency, and
        # exempting it guarantees every committed lie reaches the attachment
        # router's LSDB (which the crash/recovery resync relies on).
        self.loss_rate: float = 0.0
        self.loss_rng: Optional[random.Random] = None
        self.on_drop: Optional[Callable[[str, str, Lsa], None]] = None
        # Set by the IgpNetwork once the router processes exist.
        self._deliver: Optional[Callable[[str, Lsa, Optional[str]], None]] = None
        # The open run and the timeline event that will deliver it.
        self._run: List[Delivery] = []
        self._run_event: Optional[ScheduledEvent] = None

    def set_loss(
        self,
        rate: float,
        rng: Optional[random.Random] = None,
        on_drop: Optional[Callable[[str, str, Lsa], None]] = None,
    ) -> None:
        """Configure per-adjacency LSA loss.

        ``rate`` is the independent drop probability applied to each
        router-to-router flooding hop; ``rng`` must be an explicit seeded
        ``random.Random`` whenever ``rate`` is positive so chaos runs stay
        reproducible.  ``on_drop(source, target, lsa)`` is invoked for every
        dropped message (the fault injector uses it to bump its counters).
        """
        rate = check_non_negative(rate, "loss rate")
        if rate > 1.0:
            raise ValueError(f"loss rate must be at most 1.0, got {rate}")
        if rate > 0.0 and rng is None:
            raise ValueError("a seeded random.Random is required when loss rate is positive")
        self.loss_rate = rate
        self.loss_rng = rng
        self.on_drop = on_drop

    def bind(self, deliver: Callable[[str, Lsa, Optional[str]], None]) -> None:
        """Register the callback used to hand an LSA to a router process.

        The callback signature is ``deliver(router_name, lsa, from_neighbor)``.
        """
        self._deliver = deliver

    def send(self, source: str, target: str, lsa: Lsa) -> None:
        """Send ``lsa`` from ``source`` to its direct neighbor ``target``."""
        if self._deliver is None:
            raise TopologyError("flooding fabric is not bound to any router processes")
        link = self.topology.link(source, target)
        delay = link.delay + self.processing_delay
        self.stats.messages_sent += 1
        self.stats.bytes_sent += lsa.size_bytes
        if self.loss_rate > 0.0 and self.loss_rng is not None:
            if self.loss_rng.random() < self.loss_rate:
                self.stats.messages_dropped += 1
                if self.on_drop is not None:
                    self.on_drop(source, target, lsa)
                return
        self._enqueue(delay, (target, lsa, source), "lsa-delivery")

    def flood_from(self, origin: str, lsa: Lsa, exclude: Optional[str] = None) -> None:
        """Send ``lsa`` from ``origin`` to every neighbor except ``exclude``."""
        for neighbor in self.topology.neighbors(origin):
            if neighbor == exclude:
                continue
            self.send(origin, neighbor, lsa)

    def inject(self, router: str, lsa: Lsa) -> None:
        """Deliver ``lsa`` directly to ``router``, as the controller session does.

        The Fibbing controller maintains an adjacency with a single router
        (R3 in the demo); from the IGP's point of view an injected lie is
        simply an LSA received over that adjacency, which the router then
        floods onwards.  A small processing delay models the controller
        session itself.
        """
        if self._deliver is None:
            raise TopologyError("flooding fabric is not bound to any router processes")
        if not self.topology.has_router(router):
            raise TopologyError(f"cannot inject LSAs at unknown router {router!r}")
        self.stats.messages_sent += 1
        self.stats.bytes_sent += lsa.size_bytes
        self._enqueue(self.processing_delay, (router, lsa, None), "lsa-injection")

    def record_duplicate(self) -> None:
        """Called by router processes when they drop a stale/duplicate LSA."""
        self.stats.duplicates_suppressed += 1

    def _enqueue(self, delay: float, delivery: Delivery, label: str) -> None:
        """Append ``delivery`` to the open run, or open a run due in ``delay``."""
        timeline = self.timeline
        time = timeline.now + delay
        event = self._run_event
        if (
            event is not None
            and event is timeline.last_scheduled
            and not event.fired
            and event.time == time
            and event.label == label
        ):
            self._run.append(delivery)
            return
        run = [delivery]
        self._run = run
        self._run_event = timeline.schedule(time, lambda: self._deliver_run(run), label=label)

    def _deliver_run(self, run: List[Delivery]) -> None:
        deliver = self._deliver
        assert deliver is not None  # guarded in send()/inject()
        stats = self.stats
        for target, lsa, source in run:
            stats.deliveries += 1
            deliver(target, lsa, source)
