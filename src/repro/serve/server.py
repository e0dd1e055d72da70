"""The asyncio TCP front end of the multi-session sensing service.

``SensingServer`` binds a socket, accepts any number of client
connections, and multiplexes their sessions over one
:class:`~repro.serve.scheduler.MicroBatchScheduler`.  Each connection
is handled sequentially (read a frame, answer it, read the next) so
per-session ordering is free; concurrency — and hence cross-session
batches — comes from many connections awaiting their window futures
at once.

Sessions are connection-scoped: they die with their socket, and a
session that walks its health machine to FAILED is closed alone — the
degradation boundary the single-tenant pipeline never needed.

Request telemetry follows the stack's conventions: with a telemetry
session active every request runs inside a ``serve.<type>`` span,
counters track requests/errors/sessions, and the scheduler feeds
queue-depth and batch-occupancy instruments.  Always-on counters
(:class:`ServerStats`, the scheduler's stats) keep the load benchmark
and ``server_stats`` frame working with telemetry off.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Any

from repro.dsp.backend import active_backend_name
from repro.errors import (
    ProtocolError,
    ReproError,
    SequenceError,
    ServeOverloadError,
    ServeTimeoutError,
    SessionLimitError,
)
from repro.serve import protocol
from repro.serve.scheduler import MicroBatchScheduler, SchedulerConfig
from repro.serve.session import ServeSession, config_from_wire
from repro.telemetry.context import get_telemetry
from repro.telemetry.metrics import LATENCY_BUCKETS_MS, Histogram


@dataclass(frozen=True)
class ServeConfig:
    """Deployment knobs of the sensing service.

    Attributes:
        idle_timeout_s: per-connection read deadline — the longest the
            server waits for one complete frame (covers both idle
            connections and slow-loris partial lines).  On expiry the
            client draws a typed :class:`ServeTimeoutError` frame and
            the connection closes; ``None`` disables the deadline.
        write_timeout_s: the longest one reply write may take to drain
            before the connection is declared dead (a client that
            stopped reading).  ``None`` disables the deadline.
        max_frame_bytes: bounded-read ceiling on one wire line; longer
            frames draw a typed error, never a bigger buffer.
        record_dir: when set, the server opens a
            :class:`repro.capture.store.CaptureStore` there and records
            every *fresh* session (resumed sessions start mid-stream,
            so their captures could never pass the determinism gate):
            exactly the blocks each session's tracker ingested, its
            health events, and its served columns.  The capture seals
            when the session ends — cleanly or not.
    """

    host: str = "127.0.0.1"
    port: int = 0
    max_sessions: int = 64
    max_push_samples: int = 16384
    idle_timeout_s: float | None = 30.0
    write_timeout_s: float | None = 10.0
    max_frame_bytes: int = protocol.MAX_FRAME_BYTES
    scheduler: SchedulerConfig = field(default_factory=SchedulerConfig)
    record_dir: str | None = None

    def __post_init__(self) -> None:
        if self.max_sessions < 1:
            raise ValueError("max_sessions must be positive")
        if self.max_push_samples < 1:
            raise ValueError("max_push_samples must be positive")
        for name in ("idle_timeout_s", "write_timeout_s"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be positive (or None)")
        if self.max_frame_bytes < 4096:
            raise ValueError("max_frame_bytes must hold a control frame")


@dataclass
class ServerStats:
    """Always-on request accounting."""

    requests: int = 0
    errors: int = 0
    sessions_opened: int = 0
    sessions_closed: int = 0
    sessions_failed: int = 0
    sessions_resumed: int = 0
    columns_served: int = 0
    disconnects: int = 0
    read_timeouts: int = 0
    write_timeouts: int = 0
    malformed_frames: int = 0
    duplicate_pushes: int = 0
    sequence_errors: int = 0
    request_latency_ms: Histogram = field(
        default_factory=lambda: Histogram(
            "serve.request_latency_ms", LATENCY_BUCKETS_MS
        )
    )

    def snapshot(self) -> dict[str, Any]:
        return {
            "requests": self.requests,
            "errors": self.errors,
            "sessions_opened": self.sessions_opened,
            "sessions_closed": self.sessions_closed,
            "sessions_failed": self.sessions_failed,
            "sessions_resumed": self.sessions_resumed,
            "columns_served": self.columns_served,
            "disconnects": self.disconnects,
            "read_timeouts": self.read_timeouts,
            "write_timeouts": self.write_timeouts,
            "malformed_frames": self.malformed_frames,
            "duplicate_pushes": self.duplicate_pushes,
            "sequence_errors": self.sequence_errors,
            "request_p50_ms": self.request_latency_ms.percentile(0.5),
            "request_p99_ms": self.request_latency_ms.percentile(0.99),
        }


class SensingServer:
    """Serve many concurrent Wi-Vi sessions over micro-batched DSP."""

    def __init__(
        self, config: ServeConfig | None = None, chaos: Any = None, hub: Any = None
    ):
        self.config = config if config is not None else ServeConfig()
        #: Optional :class:`repro.chaos.ServerChaos` — injects stalled
        #: ticks (inside the scheduler) and delayed replies (here).
        self.chaos = chaos
        #: Optional :class:`repro.observe.hub.TelemetryHub` — the live
        #: operator tap.  Publishing never blocks: with no dashboard
        #: subscribed each tap costs one list check, and a slow
        #: subscriber is shed by the hub, never felt here.
        self.hub = hub
        self.scheduler = MicroBatchScheduler(self.config.scheduler, chaos=chaos, hub=hub)
        self.stats = ServerStats()
        self.capture_store = None
        if self.config.record_dir is not None:
            # Imported here, not at module top: repro.capture's replay
            # side imports the serve client, and a top-level import in
            # both directions would tie the packages into a knot.
            from repro.capture.store import CaptureStore

            self.capture_store = CaptureStore(self.config.record_dir)
        self.sessions: dict[str, ServeSession] = {}
        self._server: asyncio.AbstractServer | None = None
        self._connections: set[asyncio.StreamWriter] = set()
        self._session_counter = 0
        self._inflight_requests = 0
        self._stopped = asyncio.Event()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def port(self) -> int:
        """The bound port (meaningful after :meth:`start`)."""
        if self._server is None or not self._server.sockets:
            raise RuntimeError("server is not started")
        return self._server.sockets[0].getsockname()[1]

    @property
    def draining(self) -> bool:
        """Whether shutdown has begun (drives ``/readyz``)."""
        return self._stopped.is_set()

    def session_snapshots(self) -> list[dict[str, Any]]:
        """Every live session's :meth:`~ServeSession.snapshot`, sorted."""
        return [
            self.sessions[session_id].snapshot()
            for session_id in sorted(
                self.sessions, key=lambda s: (len(s), s)
            )
        ]

    async def start(self) -> int:
        """Bind, start the scheduler, return the bound port."""
        if self._server is not None:
            raise RuntimeError("server is already started")
        self._server = await asyncio.start_server(
            self._handle_connection,
            host=self.config.host,
            port=self.config.port,
            limit=self.config.max_frame_bytes,
        )
        self.scheduler.start()
        return self.port

    async def shutdown(self) -> None:
        """Graceful drain: stop accepting, answer everything admitted.

        Order matters: close the listener (no new connections), drain
        the scheduler (every queued window completes, so in-flight
        push requests get their columns), wait for those requests'
        replies to reach the wire, then close the remaining client
        connections.  Idempotent.
        """
        if self._stopped.is_set():
            return
        self._stopped.set()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        await self.scheduler.drain()
        # The drained windows resolved handler futures, but the
        # handlers still need loop turns to serialize their replies —
        # closing the sockets first would swallow them.
        for _ in range(1000):
            if self._inflight_requests == 0:
                break
            await asyncio.sleep(0.005)
        for writer in list(self._connections):
            writer.close()
        for writer in list(self._connections):
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover - teardown races
                pass
        self._connections.clear()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------

    async def _read_line(self, reader: asyncio.StreamReader) -> bytes:
        """One wire line, bounded by the idle deadline when configured."""
        if self.config.idle_timeout_s is None:
            return await reader.readline()
        return await asyncio.wait_for(
            reader.readline(), timeout=self.config.idle_timeout_s
        )

    async def _send(self, writer: asyncio.StreamWriter, frame: dict[str, Any]) -> bool:
        """Write one reply frame; ``False`` means the peer is gone.

        A reset/broken-pipe mid-write must not raise through the
        handler — the caller tears the connection (and its sessions)
        down cleanly with the disconnect accounted for.
        """
        if self.chaos is not None:
            await self.chaos.before_reply()
        try:
            writer.write(protocol.encode_frame(frame))
            if self.config.write_timeout_s is None:
                await writer.drain()
            else:
                await asyncio.wait_for(
                    writer.drain(), timeout=self.config.write_timeout_s
                )
        except asyncio.TimeoutError:
            self.stats.write_timeouts += 1
            self._count_disconnect("reply write exceeded write_timeout_s")
            return False
        except (ConnectionError, OSError):
            self._count_disconnect("peer vanished during reply write")
            return False
        return True

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._connections.add(writer)
        owned: dict[str, ServeSession] = {}
        try:
            while True:
                try:
                    line = await self._read_line(reader)
                except asyncio.TimeoutError:
                    self.stats.read_timeouts += 1
                    self._count_error()
                    await self._send(
                        writer,
                        protocol.error_frame(
                            ServeTimeoutError(
                                "no complete frame within the "
                                f"{self.config.idle_timeout_s}s idle deadline"
                            )
                        ),
                    )
                    break
                except (asyncio.LimitOverrunError, ValueError):
                    self._count_error()
                    await self._send(
                        writer,
                        protocol.error_frame(
                            ProtocolError("frame exceeds the size limit")
                        ),
                    )
                    break
                if not line:
                    break
                if line.strip() == b"":
                    continue
                try:
                    frame = protocol.decode_frame(line, self.config.max_frame_bytes)
                except ProtocolError as exc:
                    # The newline framing survives one corrupt line, so
                    # a torn or mangled frame costs the client a typed
                    # error — not the connection and its sessions.
                    self.stats.malformed_frames += 1
                    self._count_error()
                    if not await self._send(writer, protocol.error_frame(exc)):
                        break
                    continue
                self._inflight_requests += 1
                delivered = False
                try:
                    reply = await self._handle_frame(frame, owned)
                    delivered = await self._send(writer, reply)
                finally:
                    self._inflight_requests -= 1
                if not delivered:
                    break
        except (ConnectionError, OSError):
            self._count_disconnect("connection reset mid-request")
        finally:
            for session_id in list(owned):
                self._drop_session(session_id, owned)
            self._connections.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    def _drop_session(self, session_id: str, owned: dict[str, ServeSession]) -> None:
        owned.pop(session_id, None)
        session = self.sessions.pop(session_id, None)
        if session is None:
            return
        if session.recorder is not None and not session.recorder.writer.sealed:
            # Seal whatever the session lived to see — a clean close, a
            # FAILED health machine, and a vanished connection all leave
            # a complete (replayable) record of the blocks ingested.
            session.recorder.seal(
                session=session.id,
                health=session.health.value,
                columns_out=session.stats.columns_out,
            )
        telemetry = get_telemetry()
        if telemetry.enabled:
            telemetry.metrics.gauge("serve.active_sessions").set(
                len(self.sessions)
            )
        if self.hub is not None:
            self.hub.publish(
                "session.closed",
                session=session_id,
                health=session.health.value,
                columns_out=session.stats.columns_out,
                active_sessions=len(self.sessions),
            )

    def _count_error(self) -> None:
        self.stats.errors += 1
        telemetry = get_telemetry()
        if telemetry.enabled:
            telemetry.metrics.counter("serve.errors").inc()

    def _count_disconnect(self, reason: str) -> None:
        self.stats.disconnects += 1
        telemetry = get_telemetry()
        if telemetry.enabled:
            telemetry.metrics.counter("serve.disconnects").inc()
            telemetry.events.emit("serve.disconnect", reason=reason)
        if self.hub is not None:
            self.hub.publish("serve.disconnect", reason=reason)

    async def _handle_frame(
        self, frame: dict[str, Any], owned: dict[str, ServeSession]
    ) -> dict[str, Any]:
        """Answer one request frame; errors become error frames."""
        kind = frame["type"]
        session_id = frame.get("session")
        seq = frame.get("seq")
        self.stats.requests += 1
        start = time.perf_counter()
        telemetry = get_telemetry()
        if telemetry.enabled:
            telemetry.metrics.counter("serve.requests").inc()
            telemetry.metrics.counter(f"serve.requests.{kind}").inc()
        try:
            with telemetry.span(f"serve.{kind}", session=session_id):
                if kind == protocol.PING:
                    reply: dict[str, Any] = {"type": protocol.PONG}
                elif kind == protocol.SERVER_STATS:
                    reply = self._stats_reply()
                elif kind == protocol.TELEMETRY_SNAPSHOT:
                    reply = self._telemetry_snapshot_reply()
                elif kind == protocol.OPEN_SESSION:
                    reply = self._open_session(frame, owned)
                elif kind == protocol.PUSH_BLOCKS:
                    reply = await self._push_blocks(frame, owned)
                elif kind == protocol.CLOSE_SESSION:
                    reply = self._close_session(frame, owned)
                else:
                    raise ProtocolError(f"unknown frame type {kind!r}")
        except ReproError as exc:
            self._count_error()
            if isinstance(exc, (ServeOverloadError, ProtocolError)) and telemetry.enabled:
                telemetry.events.emit(
                    "serve.request_rejected",
                    kind=kind,
                    session=session_id,
                    error=type(exc).__name__,
                    message=str(exc),
                )
            reply = protocol.error_frame(exc, session=session_id, seq=seq)
        except Exception as exc:  # noqa: BLE001 - a bug must not kill the connection
            self._count_error()
            reply = protocol.error_frame(
                ReproError(f"internal error: {exc}"), session=session_id, seq=seq
            )
        finally:
            self.stats.request_latency_ms.observe(
                (time.perf_counter() - start) * 1e3
            )
        return reply

    # ------------------------------------------------------------------
    # Requests
    # ------------------------------------------------------------------

    def _stats_reply(self) -> dict[str, Any]:
        return {
            "type": protocol.SERVER_STATS_REPLY,
            "active_sessions": len(self.sessions),
            "queue_depth": self.scheduler.queue_depth,
            "dsp_backend": active_backend_name(),
            "server": self.stats.snapshot(),
            "scheduler": self.scheduler.stats.snapshot(),
        }

    def _telemetry_snapshot_reply(self) -> dict[str, Any]:
        """This process's exact metrics snapshot (the fleet merge feed).

        The snapshot is the PR-3 merge form: a fleet frontend folds one
        per worker into a fresh registry with
        :meth:`~repro.telemetry.metrics.MetricsRegistry.merge`, and the
        result provably equals the sum of the per-process registries.
        With telemetry disabled the reply is flagged and empty rather
        than an error, so probing a bare server stays harmless.
        """
        telemetry = get_telemetry()
        return {
            "type": protocol.TELEMETRY_SNAPSHOT_REPLY,
            "enabled": telemetry.enabled,
            "dsp_backend": active_backend_name(),
            "metrics": telemetry.metrics.snapshot() if telemetry.enabled else {},
        }

    def _open_session(
        self, frame: dict[str, Any], owned: dict[str, ServeSession]
    ) -> dict[str, Any]:
        if len(self.sessions) >= self.config.max_sessions:
            raise SessionLimitError(
                f"server is at its limit of {self.config.max_sessions} sessions"
            )
        config = config_from_wire(frame.get("config"))
        use_music = frame.get("use_music", True)
        if not isinstance(use_music, bool):
            raise ProtocolError("use_music must be a boolean")
        start_time_s = frame.get("start_time_s", 0.0)
        if isinstance(start_time_s, bool) or not isinstance(start_time_s, (int, float)):
            raise ProtocolError("start_time_s must be a number")
        resumable = frame.get("resumable", False)
        if not isinstance(resumable, bool):
            raise ProtocolError("resumable must be a boolean")
        checkpoint = frame.get("resume")
        self._session_counter += 1
        session_id = f"s{self._session_counter}"
        if checkpoint is not None:
            session = ServeSession.resume(
                session_id=session_id,
                config=config,
                checkpoint=checkpoint,
                use_music=use_music,
                start_time_s=float(start_time_s),
                max_push_samples=self.config.max_push_samples,
            )
            self.stats.sessions_resumed += 1
        else:
            session = ServeSession(
                session_id=session_id,
                config=config,
                use_music=use_music,
                start_time_s=float(start_time_s),
                max_push_samples=self.config.max_push_samples,
                resumable=resumable,
            )
        if self.capture_store is not None and checkpoint is None:
            from repro.capture.recorder import CaptureRecorder

            writer = self.capture_store.create(
                source="serve",
                config=config,
                sample_rate_hz=1.0 / config.sample_period_s,
                use_music=use_music,
                start_time_s=float(start_time_s),
                ring_capacity=session.tracker.ring.capacity,
                extra={"session": session.id},
            )
            session.recorder = CaptureRecorder(writer)
        self.sessions[session.id] = session
        owned[session.id] = session
        self.stats.sessions_opened += 1
        telemetry = get_telemetry()
        if telemetry.enabled:
            telemetry.metrics.counter("serve.sessions_opened").inc()
            if checkpoint is not None:
                telemetry.metrics.counter("serve.sessions_resumed").inc()
            telemetry.metrics.gauge("serve.active_sessions").set(len(self.sessions))
        if self.hub is not None:
            self.hub.publish(
                "session.opened",
                session=session.id,
                resumed=checkpoint is not None,
                use_music=use_music,
                window_size=config.window_size,
                hop=config.hop,
                active_sessions=len(self.sessions),
            )
        return {
            "type": protocol.SESSION_OPENED,
            "session": session.id,
            "window_size": config.window_size,
            "hop": config.hop,
            "num_angles": len(config.theta_grid_deg),
            "use_music": use_music,
            "resumed": checkpoint is not None,
            "last_seq": session.last_seq,
        }

    def _owned_session(
        self, frame: dict[str, Any], owned: dict[str, ServeSession]
    ) -> ServeSession:
        session_id = protocol.require_field(frame, "session")
        session = owned.get(session_id)
        if session is None:
            raise ProtocolError(
                f"no session {session_id!r} is open on this connection"
            )
        return session

    async def _push_blocks(
        self, frame: dict[str, Any], owned: dict[str, ServeSession]
    ) -> dict[str, Any]:
        session = self._owned_session(frame, owned)
        seq = frame.get("seq")
        if seq is not None:
            try:
                apply_push = session.check_seq(seq)
            except SequenceError:
                self.stats.sequence_errors += 1
                raise
            if not apply_push:
                # Duplicate of an already-applied push: acknowledge
                # idempotently, touch nothing.  The columns it produced
                # the first time rode the original reply.
                self.stats.duplicate_pushes += 1
                reply = {
                    "type": protocol.SPECTROGRAM_COLUMNS,
                    "session": session.id,
                    "columns": [],
                    "detections": [],
                    "health": [],
                    "duplicate": True,
                    "seq": seq,
                }
                if session.resumable:
                    reply["checkpoint"] = session.checkpoint()
                return reply
        samples = protocol.decode_samples(protocol.require_field(frame, "samples"))
        num_windows = session.validate_push(samples)
        if not self.scheduler.admit(num_windows):
            session.stats.shed_requests += 1
            raise self.scheduler.shed(num_windows)
        try:
            ingest = session.ingest(samples)
        except ReproError:
            # Health machine reached FAILED: this session alone dies.
            self.stats.sessions_failed += 1
            self._drop_session(session.id, owned)
            raise
        futures = [
            self.scheduler.submit(session.config, session.use_music, pending)
            for pending in ingest.pending
        ]
        frames = (
            await asyncio.gather(*futures, return_exceptions=True) if futures else []
        )
        failure = next(
            (f for f in frames if isinstance(f, BaseException)), None
        )
        if failure is not None:
            # Every future was retrieved above; surface the first
            # failure as a structured error for this request alone.
            if isinstance(failure, ReproError):
                raise failure
            raise ReproError(f"batch estimation failed: {failure}") from failure
        columns = []
        detections = []
        for pending, estimated in zip(ingest.pending, frames):
            column, detection = session.resolve(pending, estimated)
            columns.append(protocol.column_to_wire(column))
            if detection is not None:
                detections.append(
                    {
                        "column_index": detection.column_index,
                        "time_s": detection.time_s,
                        "angle_deg": detection.angle_deg,
                        "strength_db": detection.strength_db,
                    }
                )
        self.stats.columns_served += len(columns)
        telemetry = get_telemetry()
        if telemetry.enabled and columns:
            telemetry.metrics.counter("serve.columns").inc(len(columns))
        health_events = [
            {"state": event.state.value, "reason": event.reason}
            for event in ingest.health_events
        ]
        if self.hub is not None:
            # One batched event per push (not per column): the wire
            # dicts already built for the reply are shared as-is, so a
            # subscribed dashboard costs no extra encoding on this path.
            if columns:
                self.hub.publish("columns", session=session.id, columns=columns)
            if detections:
                self.hub.publish(
                    "detections", session=session.id, detections=detections
                )
            if health_events:
                self.hub.publish("health", session=session.id, events=health_events)
        reply: dict[str, Any] = {
            "type": protocol.SPECTROGRAM_COLUMNS,
            "session": session.id,
            "columns": columns,
            "detections": detections,
            "health": health_events,
        }
        if seq is not None:
            session.advance_seq(seq)
            reply["seq"] = seq
        if session.resumable:
            reply["checkpoint"] = session.checkpoint()
        return reply

    def _close_session(
        self, frame: dict[str, Any], owned: dict[str, ServeSession]
    ) -> dict[str, Any]:
        session = self._owned_session(frame, owned)
        body = session.close()
        self._drop_session(session.id, owned)
        self.stats.sessions_closed += 1
        return {"type": protocol.SESSION_CLOSED, **body}
