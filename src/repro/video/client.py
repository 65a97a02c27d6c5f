"""Playback client buffer model.

A client downloads the video over one network flow and plays it back from a
buffer.  The model is the standard fluid playback model used in streaming
QoE studies:

* the buffer holds *content seconds*; it fills at ``received_rate / bitrate``
  seconds of content per wall-clock second and drains at one content second
  per wall-clock second while playing;
* playback starts once ``startup_buffer`` seconds are buffered (the initial
  buffering period counts as startup delay, not as a stall);
* if the buffer empties mid-playback the client *stalls* (the stutter the
  demo demonstrates); playback resumes once ``resume_buffer`` seconds have
  been re-accumulated;
* the session finishes when the whole duration has been played.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.util.errors import SimulationError, ValidationError
from repro.video.catalog import Video
from repro.util.validation import check_non_negative, check_positive

__all__ = ["PlaybackState", "PlaybackClient"]


class PlaybackState(enum.Enum):
    """Lifecycle states of a playback session."""

    STARTUP = "startup"
    PLAYING = "playing"
    STALLED = "stalled"
    FINISHED = "finished"


@dataclass
class _StallRecord:
    started_at: float
    ended_at: Optional[float] = None


class PlaybackClient:
    """One playback session's buffer state machine."""

    def __init__(
        self,
        client_id: int,
        video: Video,
        started_at: float,
        startup_buffer: float = 2.0,
        resume_buffer: float = 1.0,
        session_count: int = 1,
    ) -> None:
        if client_id < 0:
            raise ValidationError(f"client_id must be non-negative, got {client_id}")
        if not isinstance(session_count, int) or isinstance(session_count, bool) or session_count < 1:
            raise ValidationError(
                f"session_count must be a positive int, got {session_count!r}"
            )
        self.client_id = client_id
        self.video = video
        self.started_at = started_at
        self.startup_buffer = check_non_negative(startup_buffer, "startup_buffer")
        self.resume_buffer = check_positive(resume_buffer, "resume_buffer")
        #: Number of real playback sessions this buffer model stands for: 1
        #: for an individual viewer, ``n`` for a demand-class cohort whose
        #: buffer is fed the cohort's mean per-session goodput.  QoE
        #: aggregation weights every metric by this multiplicity.
        self.session_count = session_count

        self.state = PlaybackState.STARTUP
        self.downloaded_seconds = 0.0
        self.played_seconds = 0.0
        self.playback_started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self._stalls: List[_StallRecord] = []
        self._now = started_at

    # ------------------------------------------------------------------ #
    # Derived state
    # ------------------------------------------------------------------ #
    @property
    def buffer_seconds(self) -> float:
        """Content seconds downloaded but not yet played."""
        return self.downloaded_seconds - self.played_seconds

    @property
    def finished(self) -> bool:
        """Whether the whole video has been played out."""
        return self.state is PlaybackState.FINISHED

    @property
    def startup_delay(self) -> float:
        """Seconds between session start and first rendered frame.

        For sessions that never started playing, the delay is counted up to
        the last observed instant (a lower bound), which penalises them in
        aggregate statistics instead of silently dropping them.
        """
        if self.playback_started_at is None:
            return self._now - self.started_at
        return self.playback_started_at - self.started_at

    @property
    def stall_count(self) -> int:
        """Number of distinct mid-playback stalls."""
        return len(self._stalls)

    @property
    def total_stall_time(self) -> float:
        """Total seconds spent stalled (an ongoing stall counts up to now)."""
        total = 0.0
        for record in self._stalls:
            end = record.ended_at if record.ended_at is not None else self._now
            total += end - record.started_at
        return total

    # ------------------------------------------------------------------ #
    # Advancing the model
    # ------------------------------------------------------------------ #
    def advance(self, now: float, received_bits: float) -> None:
        """Advance the session to time ``now`` given ``received_bits`` since the last call.

        The received bits are assumed to have arrived at a constant rate over
        the elapsed interval; for the buffer occupancy at the *end* of the
        interval (which is all the QoE metrics need) this is equivalent to
        crediting them upfront.
        """
        check_non_negative(received_bits, "received_bits")
        if now < self._now:
            raise SimulationError(f"client time went backwards: {now} < {self._now}")
        elapsed = now - self._now
        self._now = now
        if self.state is PlaybackState.FINISHED:
            return

        self.downloaded_seconds = min(
            self.video.duration, self.downloaded_seconds + received_bits / self.video.bitrate
        )

        if self.state is PlaybackState.STARTUP:
            if (
                self.buffer_seconds >= self.startup_buffer
                or self.downloaded_seconds >= self.video.duration
            ):
                self.state = PlaybackState.PLAYING
                self.playback_started_at = now
            return

        if self.state is PlaybackState.STALLED:
            if (
                self.buffer_seconds >= self.resume_buffer
                or self.downloaded_seconds >= self.video.duration
            ):
                self._stalls[-1].ended_at = now
                self.state = PlaybackState.PLAYING
            return

        # PLAYING: consume content for the elapsed wall-clock time.
        playable = min(elapsed, self.buffer_seconds)
        self.played_seconds += playable
        if self.played_seconds >= self.video.duration - 1e-9:
            self.state = PlaybackState.FINISHED
            self.finished_at = now
            return
        if playable < elapsed - 1e-9:
            # The buffer ran dry before the end of the interval: stall.
            self._stalls.append(_StallRecord(started_at=now - (elapsed - playable)))
            self.state = PlaybackState.STALLED

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"PlaybackClient(id={self.client_id}, state={self.state.value}, "
            f"buffer={self.buffer_seconds:.2f}s, played={self.played_seconds:.1f}s)"
        )
