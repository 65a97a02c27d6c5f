"""Video servers and the streaming service.

A :class:`VideoServer` sits behind an ingress router and streams videos to
clients that belong to a destination prefix.  Starting a playback session:

1. starts its traffic in the data-plane engine (server router -> client
   prefix, at the video bitrate),
2. publishes a :class:`~repro.monitoring.notifications.ClientNotification`
   on the notification bus (this is how the demo's controller learns about
   demand), and
3. registers a :class:`PlaybackClient` whose buffer is fed from the
   session's transmitted-byte counter at every data-plane sample.

The :class:`StreamingService` owns all servers and sessions, performs the
per-sample updates, and tears sessions down when their video finishes.

The engine's type sets the granularity.  On a
:class:`~repro.dataplane.engine.DataPlaneEngine` (the per-flow view of the
class engine) every viewer is one flow — a one-session class — and one
client.  On a plain :class:`~repro.dataplane.engine.AggregateDemandEngine`
each same-instant arrival batch becomes ONE demand class, ONE cohort client
(``session_count = n``, its buffer fed the cohort's mean per-session
goodput from :meth:`~repro.dataplane.engine.AggregateDemandEngine.class_mean_transmitted_bytes`)
and ONE ``delta=+n`` notification — so a million-viewer flash crowd costs
O(arrival batches) service work, and QoE aggregates weight by the counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Union

from repro.dataplane.engine import AggregateDemandEngine, DataPlaneEngine, LinkSample
from repro.dataplane.flows import FlowSpec
from repro.monitoring.notifications import ClientNotification, NotificationBus
from repro.util.errors import SimulationError, ValidationError
from repro.util.prefixes import Prefix
from repro.video.catalog import Video, VideoCatalog
from repro.video.client import PlaybackClient

__all__ = ["VideoServer", "StreamingSession", "StreamingService"]


@dataclass(frozen=True)
class VideoServer:
    """A video server attached behind one ingress router."""

    name: str
    ingress: str
    catalog: VideoCatalog

    def __post_init__(self) -> None:
        if not self.name:
            raise ValidationError("server name must be a non-empty string")
        if not self.ingress:
            raise ValidationError("server ingress router must be a non-empty name")


@dataclass
class StreamingSession:
    """One active playback: the demand entity, the client buffer, bookkeeping.

    On the flow engine the entity is one flow (``flow_id`` set,
    ``class_id`` ``None``, ``session_count`` 1); on the aggregate engine it
    is one demand class (``class_id`` set, ``flow_id`` ``None``,
    ``session_count`` the cohort size).
    """

    session_id: int
    server: VideoServer
    video: Video
    prefix: Prefix
    client: PlaybackClient
    flow_id: Optional[int] = None
    class_id: Optional[int] = None
    session_count: int = 1
    last_flow_bytes: float = 0.0
    closed: bool = False


class StreamingService:
    """Coordinates servers, sessions, the data plane and the notification bus."""

    def __init__(
        self,
        engine: Union[DataPlaneEngine, AggregateDemandEngine],
        bus: Optional[NotificationBus] = None,
        startup_buffer: float = 2.0,
        resume_buffer: float = 1.0,
    ) -> None:
        self.engine = engine
        #: Whether sessions are demand-class cohorts rather than flows: the
        #: per-flow view is a class engine too, but its unit is the flow.
        self.aggregate = isinstance(engine, AggregateDemandEngine) and not isinstance(
            engine, DataPlaneEngine
        )
        self.bus = bus if bus is not None else NotificationBus()
        self.startup_buffer = startup_buffer
        self.resume_buffer = resume_buffer
        self._servers: Dict[str, VideoServer] = {}
        self._sessions: Dict[int, StreamingSession] = {}
        self._next_session_id = 0
        self._finished_sessions: List[StreamingSession] = []
        engine.on_sample(self._on_sample)

    # ------------------------------------------------------------------ #
    # Server management
    # ------------------------------------------------------------------ #
    def add_server(self, server: VideoServer) -> VideoServer:
        """Register a server (names must be unique)."""
        if server.name in self._servers:
            raise SimulationError(f"server {server.name!r} already registered")
        if not self.engine.topology.has_router(server.ingress):
            raise SimulationError(
                f"server {server.name!r} attaches to unknown router {server.ingress!r}"
            )
        self._servers[server.name] = server
        return server

    def server(self, name: str) -> VideoServer:
        """Look up a registered server by name."""
        try:
            return self._servers[name]
        except KeyError:
            raise SimulationError(f"unknown server {name!r}") from None

    # ------------------------------------------------------------------ #
    # Session lifecycle
    # ------------------------------------------------------------------ #
    def start_session(self, server_name: str, video_title: str, prefix: Prefix) -> StreamingSession:
        """Start one playback of ``video_title`` from ``server_name`` toward ``prefix``."""
        return self.start_sessions(server_name, video_title, prefix, count=1)[0]

    def start_sessions(
        self, server_name: str, video_title: str, prefix: Prefix, count: int
    ) -> List[StreamingSession]:
        """Start ``count`` same-instant playbacks as one data-plane batch.

        A flash-crowd arrival event brings whole batches of viewers at the
        same simulated instant.  On the flow engine the batch becomes
        ``count`` flows through
        :meth:`~repro.dataplane.engine.DataPlaneEngine.add_flows` (one
        path/allocation refresh instead of one per viewer); on the aggregate
        engine it becomes a single demand class — one session record, one
        cohort client, one ``delta=+count`` notification — so the returned
        list has one element standing for the whole cohort.
        """
        if count < 1:
            raise ValidationError(f"session count must be >= 1, got {count}")
        server = self.server(server_name)
        video = server.catalog.get(video_title)
        label = f"{server_name}:{video_title}"
        if self.aggregate:
            demand_class = self.engine.add_class(
                ingress=server.ingress,
                prefix=prefix,
                rate=video.bitrate,
                count=count,
                label=label,
            )
            return [
                self._register_session(
                    server, video, prefix, class_id=demand_class.class_id, count=count
                )
            ]
        spec = FlowSpec(
            ingress=server.ingress, prefix=prefix, demand=video.bitrate, label=label
        )
        flows = self.engine.add_flows([spec] * count)
        return [
            self._register_session(server, video, prefix, flow_id=flow.flow_id)
            for flow in flows
        ]

    def _register_session(
        self,
        server: VideoServer,
        video: Video,
        prefix: Prefix,
        flow_id: Optional[int] = None,
        class_id: Optional[int] = None,
        count: int = 1,
    ) -> StreamingSession:
        client = PlaybackClient(
            client_id=self._next_session_id,
            video=video,
            started_at=self.engine.timeline.now,
            startup_buffer=self.startup_buffer,
            resume_buffer=self.resume_buffer,
            session_count=count,
        )
        session = StreamingSession(
            session_id=self._next_session_id,
            server=server,
            video=video,
            prefix=prefix,
            client=client,
            flow_id=flow_id,
            class_id=class_id,
            session_count=count,
        )
        self._sessions[session.session_id] = session
        self._next_session_id += 1
        self.bus.publish(
            ClientNotification(
                time=self.engine.timeline.now,
                server=server.name,
                ingress=server.ingress,
                prefix=prefix,
                bitrate=video.bitrate,
                delta=+count,
            )
        )
        return session

    def end_session(self, session_id: int) -> StreamingSession:
        """Terminate a session (normally called automatically at video completion)."""
        try:
            session = self._sessions.pop(session_id)
        except KeyError:
            raise SimulationError(f"session {session_id} is not active") from None
        if session.class_id is not None:
            if session.class_id in self.engine.classes:
                self.engine.remove_class(session.class_id)
        elif session.flow_id in self.engine.flows:
            self.engine.remove_flow(session.flow_id)
        session.closed = True
        self._finished_sessions.append(session)
        self.bus.publish(
            ClientNotification(
                time=self.engine.timeline.now,
                server=session.server.name,
                ingress=session.server.ingress,
                prefix=session.prefix,
                bitrate=session.video.bitrate,
                delta=-session.session_count,
            )
        )
        return session

    # ------------------------------------------------------------------ #
    # State inspection
    # ------------------------------------------------------------------ #
    @property
    def active_sessions(self) -> List[StreamingSession]:
        """Currently active sessions, sorted by id."""
        return [self._sessions[key] for key in sorted(self._sessions)]

    @property
    def finished_sessions(self) -> List[StreamingSession]:
        """Sessions that have been closed, in closing order."""
        return list(self._finished_sessions)

    @property
    def all_sessions(self) -> List[StreamingSession]:
        """Every session ever started (active and finished), sorted by id."""
        sessions = list(self._sessions.values()) + self._finished_sessions
        return sorted(sessions, key=lambda session: session.session_id)

    def clients(self) -> List[PlaybackClient]:
        """The playback clients of every session ever started, sorted by id."""
        return [session.client for session in self.all_sessions]

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _session_bytes(self, session: StreamingSession) -> float:
        """Delivered bytes feeding the session's client buffer.

        Flow sessions read their flow's counter; cohort sessions read the
        class's mean per-session goodput — exact (no division) while the
        population is uniform, so the cohort buffer model consumes the
        bitwise same byte stream its per-flow twins would.
        """
        if session.class_id is not None:
            return self.engine.class_mean_transmitted_bytes(session.class_id)
        return self.engine.flow_transmitted_bytes(session.flow_id)

    def _on_sample(self, sample: LinkSample) -> None:
        """Feed each active client's buffer from its entity's byte counter."""
        finished: List[int] = []
        for session in list(self._sessions.values()):
            transmitted = self._session_bytes(session)
            delta_bits = max(0.0, (transmitted - session.last_flow_bytes) * 8.0)
            session.last_flow_bytes = transmitted
            session.client.advance(sample.time, delta_bits)
            if session.client.finished:
                finished.append(session.session_id)
        for session_id in finished:
            self.end_session(session_id)
