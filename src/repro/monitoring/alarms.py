"""Utilisation threshold alarms with hysteresis.

The alarm watches the collector after every poll and fires a callback when
at least one link's estimated utilisation crosses the configured threshold.
Two pieces of hysteresis keep it from flapping:

* a *clear* threshold below the *raise* threshold — the alarm only re-arms
  after every link dropped below the clear level;
* a *cooldown* period after each firing, during which the alarm stays
  silent even if the condition persists (the controller needs time for its
  lies to propagate and take effect before being asked again).

Each firing feeds the on-demand load balancer's ``react()``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.monitoring.collector import LinkLoadView, LoadCollector
from repro.monitoring.poller import PollSample
from repro.util.errors import MonitoringError
from repro.util.validation import check_non_negative

__all__ = ["AlarmEvent", "UtilizationAlarm"]


@dataclass(frozen=True)
class AlarmEvent:
    """One firing of the alarm: when it fired and which links were hot."""

    time: float
    hot_links: Tuple[LinkLoadView, ...]

    @property
    def hot_link_keys(self) -> Tuple[Tuple[str, str], ...]:
        """The ``(source, target)`` keys of the hot links.

        The controller-facing view: the load balancer's ``react()`` records
        these on each :class:`~repro.core.loadbalancer.RebalanceAction`, and
        comparing them across consecutive events tells the reconciler
        whether an alarm re-fired for the *same* congestion (in which case
        an unchanged demand matrix makes the whole reaction a plan-cache
        hit) or for a new hot spot.  An alarm whose surge touches only some
        prefixes re-plans only their requirements; the others are served
        from the plan cache (``ctl_plan_cache_hits`` in the action's counter
        snapshot).
        """
        return tuple(view.link for view in self.hot_links)


class UtilizationAlarm:
    """Fires a callback when some link utilisation exceeds a threshold."""

    def __init__(
        self,
        collector: LoadCollector,
        raise_threshold: float = 0.9,
        clear_threshold: Optional[float] = None,
        cooldown: float = 3.0,
        staleness_horizon: Optional[float] = None,
    ) -> None:
        """Create an alarm over ``collector``.

        ``staleness_horizon`` (seconds, ``None`` disables the check) guards
        the degraded-monitoring path: when SNMP polls time out and are
        omitted (see :meth:`~repro.monitoring.poller.SnmpPoller.set_timeouts`),
        the next successful sample averages its rates over the whole elapsed
        gap.  A sample whose ``interval`` exceeds the horizon is too stale
        to act on — the measured average says little about the *current*
        load — so the alarm stays silent for it (counted in
        :attr:`suppressed_stale`) instead of asking the controller to react
        to phantom congestion.
        """
        if not 0.0 < raise_threshold:
            raise MonitoringError(f"raise_threshold must be positive, got {raise_threshold}")
        if clear_threshold is None:
            clear_threshold = raise_threshold * 0.8
        if clear_threshold <= 0.0:
            raise MonitoringError(
                f"clear_threshold must be positive, got {clear_threshold} "
                "(a zero clear level could never re-arm the alarm)"
            )
        if clear_threshold > raise_threshold:
            raise MonitoringError(
                f"clear_threshold ({clear_threshold}) must not exceed raise_threshold "
                f"({raise_threshold})"
            )
        self.collector = collector
        self.raise_threshold = raise_threshold
        self.clear_threshold = clear_threshold
        self.cooldown = check_non_negative(cooldown, "cooldown")
        if staleness_horizon is not None:
            staleness_horizon = check_non_negative(staleness_horizon, "staleness_horizon")
        self.staleness_horizon = staleness_horizon
        #: Samples on which a decision was suppressed for staleness.
        self.suppressed_stale = 0
        self.events: List[AlarmEvent] = []
        self._listeners: List[Callable[[AlarmEvent], None]] = []
        self._armed = True
        self._last_fired: Optional[float] = None

    def on_alarm(self, listener: Callable[[AlarmEvent], None]) -> None:
        """Register ``listener(event)`` invoked every time the alarm fires."""
        self._listeners.append(listener)

    @property
    def last_event(self) -> Optional[AlarmEvent]:
        """The most recent firing (``None`` before the first one)."""
        return self.events[-1] if self.events else None

    def check(self, sample: PollSample) -> Optional[AlarmEvent]:
        """Evaluate the alarm after a poll; returns the event if it fired.

        Intended to be registered as a poller listener *after* the collector
        (the collector must ingest the sample first); for convenience it can
        also be wired through :meth:`wire`.
        """
        if (
            self.staleness_horizon is not None
            and sample.interval > self.staleness_horizon
        ):
            # Degraded monitoring: the sample covers a gap longer than the
            # horizon (omitted polls), so its averaged rates are too stale
            # to base a reaction on.  No firing, no re-arming — the next
            # fresh sample decides.
            self.suppressed_stale += 1
            return None
        hot = self.collector.links_above(self.raise_threshold)
        if not hot:
            if not self.collector.links_above(self.clear_threshold):
                self._armed = True
            return None
        if self._last_fired is not None and sample.time - self._last_fired < self.cooldown:
            # Within the cooldown the alarm stays silent even if the
            # condition persists (armed or not).
            return None
        if not self._armed:
            # Not re-armed: the congestion never dropped below the clear
            # threshold since the last firing.  Stay silent unless the
            # cooldown re-fire applies — the cooldown fully elapsed and the
            # congestion persists, meaning the previous mitigation was
            # insufficient and the controller must be asked again.
            cooldown_refire = (
                self._last_fired is not None
                and sample.time - self._last_fired >= self.cooldown
            )
            if not cooldown_refire:
                return None
        event = AlarmEvent(time=sample.time, hot_links=tuple(hot))
        self.events.append(event)
        self._armed = False
        self._last_fired = sample.time
        for listener in self._listeners:
            listener(event)
        return event

    def wire(self, poller) -> None:
        """Attach collector ingestion and alarm evaluation to a poller, in order."""
        poller.on_sample(self.collector.ingest)
        poller.on_sample(self.check)
