"""Video content descriptions."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.util.errors import ValidationError
from repro.util.units import mbps
from repro.util.validation import check_positive

__all__ = ["Video", "VideoCatalog"]


@dataclass(frozen=True)
class Video:
    """A single video asset: constant-bitrate stream of a given duration."""

    title: str
    bitrate: float
    duration: float

    def __post_init__(self) -> None:
        if not self.title:
            raise ValidationError("video title must be a non-empty string")
        check_positive(self.bitrate, "bitrate")
        check_positive(self.duration, "duration")

    @property
    def size_bits(self) -> float:
        """Total size of the encoded video, in bits."""
        return self.bitrate * self.duration

    def __str__(self) -> str:
        return f"{self.title} ({self.bitrate / 1e6:.1f} Mbit/s, {self.duration:.0f}s)"


class VideoCatalog:
    """A small collection of videos a server can stream."""

    def __init__(self, videos: List[Video] = ()) -> None:
        self._videos: Dict[str, Video] = {}
        for video in videos:
            self.add(video)

    @classmethod
    def default(cls, bitrate: float = mbps(1), duration: float = 60.0) -> "VideoCatalog":
        """The catalog used by the demo reproduction: one clip per source.

        The bitrate defaults to 1 Mbit/s so that ~31 concurrent flows sum to
        the ~4e6 byte/s plateau of Fig. 2.
        """
        return cls(
            [
                Video(title="demo-clip", bitrate=bitrate, duration=duration),
                Video(title="demo-clip-long", bitrate=bitrate, duration=duration * 2),
            ]
        )

    def add(self, video: Video) -> None:
        """Add ``video`` to the catalog (titles must be unique)."""
        if video.title in self._videos:
            raise ValidationError(f"video {video.title!r} is already in the catalog")
        self._videos[video.title] = video

    def get(self, title: str) -> Video:
        """Look a video up by title (raises if absent)."""
        try:
            return self._videos[title]
        except KeyError:
            raise ValidationError(f"video {title!r} is not in the catalog") from None
