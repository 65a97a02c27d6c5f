"""A deterministic, logical-time event timeline.

Both the control plane (LSA flooding, SPF scheduling, SNMP polling) and the
data plane (flow arrivals and departures, rate re-computation) are driven by
one shared notion of simulated time.  :class:`Timeline` is a tiny
priority-queue wrapper that guarantees:

* events fire in non-decreasing time order;
* ties are broken by insertion order (FIFO), so runs are fully deterministic;
* cancelled events are skipped cheaply (lazy deletion).
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, List, Optional, Tuple

from repro.util.errors import SimulationError, ValidationError

__all__ = ["Timeline", "ScheduledEvent"]


@dataclass(order=True)
class _Entry:
    time: float
    sequence: int
    event: "ScheduledEvent" = field(compare=False)


class ScheduledEvent:
    """Handle returned by :meth:`Timeline.schedule`, usable to cancel the event."""

    __slots__ = ("time", "action", "label", "cancelled", "fired", "_timeline")

    def __init__(
        self,
        time: float,
        action: Callable[[], Any],
        label: str,
        timeline: Optional["Timeline"] = None,
    ) -> None:
        self.time = time
        self.action = action
        self.label = label
        self.cancelled = False
        self.fired = False
        self._timeline = timeline

    def cancel(self) -> None:
        """Prevent the event from firing (no-op if it already fired)."""
        if self.cancelled or self.fired:
            return
        self.cancelled = True
        if self._timeline is not None:
            self._timeline._pending_count -= 1

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        state = (
            "fired" if self.fired else "cancelled" if self.cancelled else "pending"
        )
        return f"ScheduledEvent(t={self.time}, label={self.label!r}, {state})"


class Timeline:
    """Priority queue of timed callbacks with a monotonically advancing clock."""

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)
        self._heap: List[_Entry] = []
        self._counter = itertools.count()
        self._fired = 0
        # Live count of scheduled-but-not-yet-fired, not-cancelled events;
        # maintained on schedule/cancel/step so `pending` never walks the
        # heap (it is read on every `__repr__` and `converged()` check).
        self._pending_count = 0
        self._last_scheduled: Optional[ScheduledEvent] = None

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    @property
    def pending(self) -> int:
        """Number of events still waiting to fire (cancelled events excluded)."""
        return self._pending_count

    @property
    def fired(self) -> int:
        """Number of events executed so far."""
        return self._fired

    @property
    def last_scheduled(self) -> Optional[ScheduledEvent]:
        """The event handed out by the latest :meth:`schedule` call, fired or not.

        Nothing scheduled since means nothing can fire between it and an
        event scheduled next at the same instant: they are adjacent in the
        FIFO order.  The flooding fabric relies on that to put same-instant
        deliveries behind one event.
        """
        return self._last_scheduled

    def schedule(self, time: float, action: Callable[[], Any], label: str = "") -> ScheduledEvent:
        """Schedule ``action`` to run at absolute simulated ``time``.

        Scheduling in the past raises :class:`ValidationError`; scheduling at
        the current time is allowed (the event runs on the next step).
        """
        time = float(time)
        if time < self._now:
            raise ValidationError(
                f"cannot schedule event {label!r} at t={time} before current time t={self._now}"
            )
        event = ScheduledEvent(time, action, label, timeline=self)
        heapq.heappush(self._heap, _Entry(time, next(self._counter), event))
        self._pending_count += 1
        self._last_scheduled = event
        return event

    def cancel(self, event: ScheduledEvent) -> bool:
        """Cancel a pending event; returns whether it was actually cancelled.

        Cancelling an event that already fired or was already cancelled is a
        no-op returning ``False``.  The heap entry is dropped lazily (on the
        next :meth:`peek_time`/:meth:`step` that reaches it), but
        :attr:`pending` reflects the cancellation immediately.
        """
        if event.cancelled or event.fired:
            return False
        event.cancel()
        return True

    def schedule_in(self, delay: float, action: Callable[[], Any], label: str = "") -> ScheduledEvent:
        """Schedule ``action`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise ValidationError(f"delay must be non-negative, got {delay}")
        return self.schedule(self._now + delay, action, label)

    def peek_time(self) -> Optional[float]:
        """Time of the next pending event, or ``None`` when the timeline is empty."""
        self._drop_cancelled()
        return self._heap[0].time if self._heap else None

    def step(self) -> Optional[ScheduledEvent]:
        """Execute the next pending event and return it (``None`` if empty)."""
        self._drop_cancelled()
        if not self._heap:
            return None
        entry = heapq.heappop(self._heap)
        if entry.time < self._now:  # pragma: no cover - defensive, cannot happen
            raise SimulationError("timeline invariant violated: event in the past")
        self._now = entry.time
        self._fired += 1
        self._pending_count -= 1
        entry.event.fired = True
        entry.event.action()
        return entry.event

    def run_until(self, time: float, max_events: int = 1_000_000) -> int:
        """Run every event scheduled at or before ``time`` and advance the clock.

        Returns the number of events executed.  ``max_events`` guards against
        runaway event loops (an event endlessly rescheduling itself at the
        same instant).
        """
        time = float(time)
        if time < self._now:
            raise ValidationError(f"cannot run backwards to t={time} from t={self._now}")
        executed = 0
        while True:
            next_time = self.peek_time()
            if next_time is None or next_time > time:
                break
            if executed >= max_events:
                # Exact cap: at most `max_events` events execute; the
                # (max_events + 1)-th due event raises instead of running.
                raise SimulationError(
                    f"more than {max_events} events before t={time}; likely an event loop"
                )
            self.step()
            executed += 1
        self._now = max(self._now, time)
        return executed

    def run_all(self, max_events: int = 1_000_000) -> int:
        """Run until no pending events remain; returns the number executed."""
        executed = 0
        while self.peek_time() is not None:
            if executed >= max_events:
                raise SimulationError(
                    f"more than {max_events} events executed; likely an event loop"
                )
            self.step()
            executed += 1
        return executed

    def _drop_cancelled(self) -> None:
        while self._heap and self._heap[0].event.cancelled:
            heapq.heappop(self._heap)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"Timeline(now={self._now}, pending={self.pending})"
