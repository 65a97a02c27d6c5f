"""Tests for the playback client buffer model."""

import pytest

from repro.util.errors import SimulationError, ValidationError
from repro.video.catalog import Video, VideoCatalog
from repro.video.client import PlaybackClient, PlaybackState
from repro.util.units import mbps

VIDEO = Video(title="clip", bitrate=mbps(1), duration=30.0)


def make_client(startup=2.0, resume=1.0) -> PlaybackClient:
    return PlaybackClient(
        client_id=0, video=VIDEO, started_at=0.0, startup_buffer=startup, resume_buffer=resume
    )


def full_rate_bits(seconds: float) -> float:
    """Bits received when downloading at exactly the video bitrate."""
    return VIDEO.bitrate * seconds


class TestCatalog:
    def test_video_size(self):
        assert VIDEO.size_bits == mbps(1) * 30.0

    def test_video_validation(self):
        with pytest.raises(ValidationError):
            Video(title="", bitrate=1.0, duration=1.0)
        with pytest.raises(ValidationError):
            Video(title="x", bitrate=0.0, duration=1.0)

    def test_catalog_lookup_and_duplicates(self):
        catalog = VideoCatalog([VIDEO])
        assert catalog.get("clip") is VIDEO
        with pytest.raises(ValidationError):
            catalog.add(VIDEO)
        with pytest.raises(ValidationError):
            catalog.get("missing")

    def test_default_catalog(self):
        catalog = VideoCatalog.default()
        assert catalog.get("demo-clip-long").duration == 2 * catalog.get("demo-clip").duration


class TestStartup:
    def test_starts_in_startup_state(self):
        client = make_client()
        assert client.state is PlaybackState.STARTUP
        assert client.buffer_seconds == 0.0

    def test_playback_starts_after_startup_buffer(self):
        client = make_client(startup=2.0)
        client.advance(1.0, full_rate_bits(1.0))
        assert client.state is PlaybackState.STARTUP
        client.advance(2.0, full_rate_bits(1.0))
        assert client.state is PlaybackState.PLAYING
        assert client.startup_delay == pytest.approx(2.0)

    def test_slow_download_delays_startup(self):
        client = make_client(startup=2.0)
        # Half-rate download: needs 4 seconds to accumulate 2 content seconds.
        for second in range(1, 5):
            client.advance(float(second), full_rate_bits(0.5))
        assert client.state is PlaybackState.PLAYING
        assert client.startup_delay == pytest.approx(4.0)

    def test_never_started_counts_elapsed_as_delay(self):
        client = make_client()
        client.advance(5.0, 0.0)
        assert client.state is PlaybackState.STARTUP
        assert client.startup_delay == 5.0


class TestSmoothPlayback:
    def test_full_rate_playback_never_stalls(self):
        client = make_client()
        for second in range(1, 40):
            client.advance(float(second), full_rate_bits(1.0))
            if client.finished:
                break
        assert client.finished
        assert client.stall_count == 0
        assert client.total_stall_time == 0.0
        assert client.played_seconds == pytest.approx(VIDEO.duration)

    def test_fast_download_finishes_playback_in_real_time(self):
        client = make_client(startup=1.0)
        # Download the whole video in the first 5 seconds.
        for second in range(1, 6):
            client.advance(float(second), full_rate_bits(6.0))
        for second in range(6, 40):
            client.advance(float(second), 0.0)
            if client.finished:
                break
        assert client.finished
        assert client.stall_count == 0


class TestStalling:
    def test_starved_client_stalls(self):
        client = make_client(startup=2.0)
        client.advance(2.0, full_rate_bits(2.0))   # buffer = 2s, starts playing
        client.advance(4.0, full_rate_bits(2.0))   # keeps up
        client.advance(10.0, 0.0)                   # starvation: buffer drains
        assert client.state is PlaybackState.STALLED
        assert client.stall_count == 1
        assert client.total_stall_time > 0

    def test_stall_ends_after_resume_buffer(self):
        client = make_client(startup=2.0, resume=1.0)
        client.advance(2.0, full_rate_bits(2.0))
        client.advance(10.0, 0.0)  # stall
        client.advance(11.0, full_rate_bits(2.0))  # 2 content seconds arrive
        assert client.state is PlaybackState.PLAYING
        assert client.stall_count == 1
        assert client.total_stall_time == pytest.approx(11.0 - 4.0)

    def test_half_rate_playback_stalls_repeatedly(self):
        client = make_client(startup=2.0, resume=1.0)
        for second in range(1, 61):
            client.advance(float(second), full_rate_bits(0.5))
        assert client.stall_count >= 2
        assert client.total_stall_time > 5.0

    def test_rebuffer_time_roughly_matches_deficit(self):
        """At half rate, playing 30s of content takes about 60s wall clock."""
        client = make_client(startup=2.0, resume=1.0)
        second = 0
        while not client.finished and second < 120:
            second += 1
            client.advance(float(second), full_rate_bits(0.5))
        assert client.finished
        total_time = client.finished_at - client.started_at
        assert total_time == pytest.approx(60.0, rel=0.1)


class TestValidation:
    def test_time_cannot_go_backwards(self):
        client = make_client()
        client.advance(2.0, 0.0)
        with pytest.raises(SimulationError):
            client.advance(1.0, 0.0)

    def test_negative_bits_rejected(self):
        client = make_client()
        with pytest.raises(ValidationError):
            client.advance(1.0, -5.0)

    def test_negative_client_id_rejected(self):
        with pytest.raises(ValidationError):
            PlaybackClient(client_id=-1, video=VIDEO, started_at=0.0)

    def test_advance_after_finish_is_noop(self):
        client = make_client()
        for second in range(1, 40):
            client.advance(float(second), full_rate_bits(1.0))
            if client.finished:
                break
        finished_at = client.finished_at
        client.advance(100.0, full_rate_bits(10.0))
        assert client.finished_at == finished_at
