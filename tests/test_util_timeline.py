"""Tests for repro.util.timeline."""

import pytest

from repro.util.errors import SimulationError, ValidationError
from repro.util.timeline import Timeline


class TestScheduling:
    def test_events_fire_in_time_order(self):
        timeline = Timeline()
        fired = []
        timeline.schedule(2.0, lambda: fired.append("late"))
        timeline.schedule(1.0, lambda: fired.append("early"))
        timeline.run_all()
        assert fired == ["early", "late"]

    def test_ties_fire_in_insertion_order(self):
        timeline = Timeline()
        fired = []
        for name in ["first", "second", "third"]:
            timeline.schedule(1.0, lambda name=name: fired.append(name))
        timeline.run_all()
        assert fired == ["first", "second", "third"]

    def test_clock_advances_to_event_time(self):
        timeline = Timeline()
        timeline.schedule(3.5, lambda: None)
        timeline.run_all()
        assert timeline.now == 3.5

    def test_schedule_in_uses_relative_delay(self):
        timeline = Timeline(start=10.0)
        event = timeline.schedule_in(2.0, lambda: None)
        assert event.time == 12.0

    def test_scheduling_in_the_past_rejected(self):
        timeline = Timeline(start=5.0)
        with pytest.raises(ValidationError):
            timeline.schedule(4.0, lambda: None)

    def test_negative_delay_rejected(self):
        timeline = Timeline()
        with pytest.raises(ValidationError):
            timeline.schedule_in(-1.0, lambda: None)

    def test_scheduling_at_current_time_allowed(self):
        timeline = Timeline(start=5.0)
        fired = []
        timeline.schedule(5.0, lambda: fired.append(True))
        timeline.run_all()
        assert fired == [True]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        timeline = Timeline()
        fired = []
        event = timeline.schedule(1.0, lambda: fired.append(True))
        event.cancel()
        timeline.run_all()
        assert fired == []

    def test_pending_excludes_cancelled(self):
        timeline = Timeline()
        event = timeline.schedule(1.0, lambda: None)
        timeline.schedule(2.0, lambda: None)
        assert timeline.pending == 2
        event.cancel()
        assert timeline.pending == 1

    def test_timeline_cancel_reports_whether_it_cancelled(self):
        timeline = Timeline()
        event = timeline.schedule(1.0, lambda: None)
        assert timeline.cancel(event) is True
        # Cancelling twice is a no-op (and must not corrupt `pending`).
        assert timeline.cancel(event) is False
        assert timeline.pending == 0

    def test_cancel_after_fire_is_a_noop(self):
        timeline = Timeline()
        event = timeline.schedule(1.0, lambda: None)
        timeline.run_all()
        assert event.fired
        assert timeline.cancel(event) is False
        event.cancel()
        # A late cancel must not drive the O(1) pending count negative.
        assert timeline.pending == 0

    def test_pending_tracks_schedule_fire_cancel_interleaving(self):
        timeline = Timeline()
        keep = timeline.schedule(2.0, lambda: None)
        drop = timeline.schedule(3.0, lambda: None)
        timeline.schedule(1.0, lambda: None)
        assert timeline.pending == 3
        timeline.run_until(1.0)
        assert timeline.pending == 2
        timeline.cancel(drop)
        assert timeline.pending == 1
        timeline.run_all()
        assert keep.fired
        assert timeline.pending == 0


class TestRunUntil:
    def test_run_until_executes_only_due_events(self):
        timeline = Timeline()
        fired = []
        timeline.schedule(1.0, lambda: fired.append(1))
        timeline.schedule(5.0, lambda: fired.append(5))
        executed = timeline.run_until(3.0)
        assert executed == 1
        assert fired == [1]
        assert timeline.now == 3.0

    def test_run_until_includes_boundary_events(self):
        timeline = Timeline()
        fired = []
        timeline.schedule(3.0, lambda: fired.append(3))
        timeline.run_until(3.0)
        assert fired == [3]

    def test_run_until_cannot_go_backwards(self):
        timeline = Timeline(start=5.0)
        with pytest.raises(ValidationError):
            timeline.run_until(4.0)

    def test_events_can_schedule_more_events(self):
        timeline = Timeline()
        fired = []

        def chain():
            fired.append(timeline.now)
            if timeline.now < 3.0:
                timeline.schedule_in(1.0, chain)

        timeline.schedule(1.0, chain)
        timeline.run_until(10.0)
        assert fired == [1.0, 2.0, 3.0]

    def test_runaway_loop_is_detected(self):
        timeline = Timeline()

        def reschedule():
            timeline.schedule_in(0.0, reschedule)

        timeline.schedule(1.0, reschedule)
        with pytest.raises(SimulationError):
            timeline.run_until(1.0, max_events=100)

    def test_exactly_max_events_legitimate_events_are_allowed(self):
        # The historical off-by-one allowed max_events + 1 events through;
        # the cap is now exact.
        timeline = Timeline()
        fired = []
        for index in range(5):
            timeline.schedule(1.0, lambda index=index: fired.append(index))
        assert timeline.run_until(1.0, max_events=5) == 5
        assert fired == [0, 1, 2, 3, 4]

    def test_one_event_past_the_cap_raises(self):
        timeline = Timeline()
        for _ in range(6):
            timeline.schedule(1.0, lambda: None)
        with pytest.raises(SimulationError):
            timeline.run_until(1.0, max_events=5)

    def test_run_all_cap_is_exact_too(self):
        timeline = Timeline()
        for _ in range(5):
            timeline.schedule(1.0, lambda: None)
        assert timeline.run_all(max_events=5) == 5
        timeline = Timeline()
        for _ in range(6):
            timeline.schedule(1.0, lambda: None)
        with pytest.raises(SimulationError):
            timeline.run_all(max_events=5)

    def test_peek_time_returns_next_event(self):
        timeline = Timeline()
        assert timeline.peek_time() is None
        timeline.schedule(4.0, lambda: None)
        assert timeline.peek_time() == 4.0

    def test_fired_counter(self):
        timeline = Timeline()
        timeline.schedule(1.0, lambda: None)
        timeline.schedule(2.0, lambda: None)
        timeline.run_all()
        assert timeline.fired == 2

    def test_step_returns_none_when_empty(self):
        assert Timeline().step() is None


class TestLastScheduled:
    def test_none_before_anything_is_scheduled(self):
        assert Timeline().last_scheduled is None

    def test_set_by_schedule_and_schedule_in(self):
        timeline = Timeline()
        first = timeline.schedule(2.0, lambda: None)
        assert timeline.last_scheduled is first
        # An earlier event scheduled later is still the last one scheduled.
        second = timeline.schedule_in(1.0, lambda: None)
        assert timeline.last_scheduled is second

    def test_unchanged_by_step_and_cancel(self):
        timeline = Timeline()
        first = timeline.schedule(1.0, lambda: None)
        last = timeline.schedule(2.0, lambda: None)
        assert timeline.step() is first
        assert timeline.last_scheduled is last
        last.cancel()
        assert timeline.last_scheduled is last
        timeline.cancel(last)
        assert timeline.last_scheduled is last

    def test_still_the_last_once_fired(self):
        timeline = Timeline()
        event = timeline.schedule(1.0, lambda: None)
        timeline.run_all()
        assert event.fired and timeline.last_scheduled is event

    def test_events_scheduled_by_an_action_become_the_last(self):
        timeline = Timeline()
        spawned = []
        timeline.schedule(1.0, lambda: spawned.append(timeline.schedule_in(0.0, lambda: None)))
        timeline.step()
        assert timeline.last_scheduled is spawned[0]

    def test_correct_under_the_tracing_schedule_wrapper(self):
        from perf.trace import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            timeline = Timeline()
            event = timeline.schedule_in(1.0, lambda: None, label="spf:R1")
            assert timeline.last_scheduled is event
            timeline.run_all()
            assert event.fired and timeline.last_scheduled is event
        finally:
            tracer.uninstall()
        assert "event:spf" in [span[4] for span in tracer.spans]
