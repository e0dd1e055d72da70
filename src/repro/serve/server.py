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

Each serve event is counted once, in the always-on :class:`ServerStats`
and the scheduler's stats; :meth:`SensingServer.metrics_snapshot`
exports them for ``/metrics``, the ``telemetry_snapshot`` reply (the
fleet's merge feed) and, at shutdown, an enabled telemetry session.
The ``server_stats`` reply is :func:`stats_view` of that export.
With telemetry on, every request also runs inside a ``serve.<type>``
span, and disconnects and rejected requests become events.
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
        record_dir: when set, the server opens a
            :class:`repro.capture.store.CaptureStore` there and records
            every *fresh* session (resumed sessions start mid-stream,
            so their captures could never pass the determinism gate):
            exactly the blocks each session's tracker ingested, its
            health events, and its served columns.  The capture seals
            when the session ends — cleanly or not.

    The wire limits are protocol constants, not knobs: a line longer
    than :data:`protocol.MAX_FRAME_BYTES` draws a typed error, never a
    bigger buffer, and a push of more than
    :data:`protocol.MAX_PUSH_SAMPLES` samples is refused.
    """

    host: str = "127.0.0.1"
    port: int = 0
    max_sessions: int = 64
    idle_timeout_s: float | None = 30.0
    write_timeout_s: float | None = 10.0
    scheduler: SchedulerConfig = field(default_factory=SchedulerConfig)
    record_dir: str | None = None

    def __post_init__(self) -> None:
        if self.max_sessions < 1:
            raise ValueError(f"max_sessions must be positive, got {self.max_sessions}")
        for name in ("idle_timeout_s", "write_timeout_s"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be positive (or None)")


async def read_line(reader: asyncio.StreamReader, config: ServeConfig) -> bytes:
    """One client wire line, bounded by ``config.idle_timeout_s``.

    Returns ``b""`` at EOF.

    Raises:
        ServeTimeoutError: no complete line within the idle deadline.
        ProtocolError: the line exceeds :data:`protocol.MAX_FRAME_BYTES`
            (the reader's limit).
    """
    try:
        async with asyncio.timeout(config.idle_timeout_s):
            return await reader.readline()
    except TimeoutError:
        raise ServeTimeoutError(
            f"no complete frame within the {config.idle_timeout_s}s idle deadline"
        ) from None
    except (asyncio.LimitOverrunError, ValueError):
        raise ProtocolError("frame exceeds the size limit") from None


async def write_line(
    writer: asyncio.StreamWriter, data: bytes, config: ServeConfig
) -> None:
    """Write one reply line and drain it within ``config.write_timeout_s``.

    A client that misses the deadline is aborted: a plain close would
    keep its socket open until it read the buffered reply.

    Both helpers bound their wait with ``asyncio.timeout``, which arms
    one timer, where ``wait_for`` also starts a Task per call (about
    22 µs against 7 on Python 3.11); a served push pays for one read
    and one drain.

    Raises:
        TimeoutError: the client stopped reading.
        ConnectionError, OSError: the client is gone.
    """
    writer.write(data)
    try:
        async with asyncio.timeout(config.write_timeout_s):
            await writer.drain()
    except TimeoutError:
        writer.transport.abort()
        raise


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

    def snapshot(self) -> dict[str, int]:
        """Every count, in field order (the histogram is exported whole)."""
        return {name: value for name, value in vars(self).items() if isinstance(value, int)}


def stats_view(metrics: dict[str, dict[str, Any]], dsp_backend: str) -> dict[str, Any]:
    """The ``server_stats`` reply, built from a merge-form snapshot.

    ``metrics`` is :meth:`SensingServer.metrics_snapshot` or a fleet's
    fold of its shards' snapshots.  Counts and levels read back as
    ints; the percentiles and the mean batch occupancy come from the
    histograms and counters, so they are exact for a fold too.
    """

    def count(name: str) -> int:
        return int(metrics.get(name, {}).get("value", 0))

    def percentiles(name: str) -> tuple[float, float]:
        snap = metrics.get(name)
        histogram = Histogram.from_snapshot(name, snap) if snap else Histogram(name)
        return histogram.percentile(0.5), histogram.percentile(0.99)

    server = {
        name.removeprefix("server."): int(snap["value"])
        for name, snap in metrics.items()
        if name.startswith("server.") and snap["type"] == "counter"
    }
    server["request_p50_ms"], server["request_p99_ms"] = percentiles(
        "server.request_latency_ms"
    )
    ticks, windows = count("scheduler.ticks"), count("scheduler.windows")
    batch_p50, batch_p99 = percentiles("scheduler.batch_windows")
    return {
        "type": protocol.SERVER_STATS_REPLY,
        "active_sessions": count("server.active_sessions"),
        "queue_depth": count("scheduler.queue_depth"),
        "dsp_backend": dsp_backend,
        "server": server,
        "scheduler": {
            "ticks": ticks,
            "windows": windows,
            "shed_windows": count("scheduler.shed_windows"),
            "max_queue_depth": count("scheduler.max_queue_depth"),
            "watchdog_activations": count("scheduler.watchdog_activations"),
            "serial_windows": count("scheduler.serial_windows"),
            "mean_batch_windows": windows / ticks if ticks else 0.0,
            "batch_p50": batch_p50,
            "batch_p99": batch_p99,
            "dsp_backend": dsp_backend,
        },
    }


class SensingServer:
    """Serve many concurrent Wi-Vi sessions over micro-batched DSP."""

    def __init__(
        self,
        config: ServeConfig | None = None,
        chaos: Any = None,
        hub: Any = None,
        shard: str | None = None,
    ):
        self.config = config if config is not None else ServeConfig()
        #: Session-id prefix.  A fleet worker passes its shard name and
        #: mints ``<shard>:s<n>``, unique across the fleet's processes,
        #: so the routing frontend relays its replies byte for byte.
        self._id_prefix = f"{shard}:" if shard is not None else ""
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

    def metrics_snapshot(self) -> dict[str, dict[str, Any]]:
        """The always-on serve counters in registry-snapshot (merge) form.

        ``server.*`` from :class:`ServerStats` and ``scheduler.*`` from
        the scheduler's stats: counters and histograms add exactly
        across processes; gauges are this process's current values.
        """
        scheduler = self.scheduler.stats
        counters = {
            f"server.{name}": value for name, value in self.stats.snapshot().items()
        }
        for name in ("ticks", "windows", "shed_windows", "serial_windows",
                     "watchdog_activations"):
            counters[f"scheduler.{name}"] = getattr(scheduler, name)
        gauges = {
            "server.active_sessions": len(self.sessions),
            "scheduler.max_queue_depth": scheduler.max_queue_depth,
            "scheduler.queue_depth": self.scheduler.queue_depth,
        }
        snaps = {
            name: {"type": "counter", "value": float(value)}
            for name, value in counters.items()
        }
        for name, value in gauges.items():
            snaps[name] = {"type": "gauge", "value": float(value)}
        snaps["server.request_latency_ms"] = self.stats.request_latency_ms.snapshot()
        snaps["scheduler.batch_windows"] = scheduler.occupancy.snapshot()
        return snaps

    async def start(self) -> int:
        """Bind, start the scheduler, return the bound port."""
        if self._server is not None:
            raise RuntimeError("server is already started")
        self._server = await asyncio.start_server(
            self._handle_connection,
            host=self.config.host,
            port=self.config.port,
            limit=protocol.MAX_FRAME_BYTES,
        )
        self.scheduler.start()
        return self.port

    async def shutdown(self) -> None:
        """Graceful drain: stop accepting, answer everything admitted.

        Order matters: close the listener (no new connections), drain
        the scheduler (every queued window completes, so in-flight
        push requests get their columns), wait for those requests'
        replies to reach the wire, then close the remaining client
        connections, and merge the final :meth:`metrics_snapshot` into
        an enabled telemetry registry.  Idempotent.
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
        telemetry = get_telemetry()
        if telemetry.enabled:
            telemetry.metrics.merge(self.metrics_snapshot())

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------

    async def _send(self, writer: asyncio.StreamWriter, frame: dict[str, Any]) -> bool:
        """Write one reply frame; ``False`` means the peer is gone.

        A reset/broken-pipe mid-write must not raise through the
        handler — the caller tears the connection (and its sessions)
        down cleanly with the disconnect accounted for.
        """
        if self.chaos is not None:
            await self.chaos.before_reply()
        try:
            await write_line(writer, protocol.encode_frame(frame), self.config)
        except TimeoutError:
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
                    line = await read_line(reader, self.config)
                except (ServeTimeoutError, ProtocolError) as exc:
                    if isinstance(exc, ServeTimeoutError):
                        self.stats.read_timeouts += 1
                    self._count_error()
                    await self._send(writer, protocol.error_frame(exc))
                    break
                if not line:
                    break
                if line.strip() == b"":
                    continue
                try:
                    frame = protocol.decode_frame(line)
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

    def _count_disconnect(self, reason: str) -> None:
        self.stats.disconnects += 1
        telemetry = get_telemetry()
        if telemetry.enabled:
            telemetry.events.emit("serve.disconnect", reason=reason)
        if self.hub is not None:
            self.hub.publish("serve.disconnect", reason=reason)

    async def _handle_frame(
        self, frame: dict[str, Any], owned: dict[str, ServeSession]
    ) -> dict[str, Any]:
        """Answer one request frame; errors become error frames.

        A ``telemetry_snapshot`` is answered outside request accounting:
        it is the fleet supervisor's probe, not client traffic.
        """
        kind = frame["type"]
        session_id = frame.get("session")
        seq = frame.get("seq")
        if kind == protocol.TELEMETRY_SNAPSHOT:
            try:
                return self._telemetry_snapshot_reply()
            except Exception as exc:  # noqa: BLE001 - a bug must not kill the connection
                self._count_error()
                return protocol.error_frame(
                    ReproError(f"internal error: {exc}"), session=session_id, seq=seq
                )
        self.stats.requests += 1
        start = time.perf_counter()
        telemetry = get_telemetry()
        try:
            with telemetry.span(f"serve.{kind}", session=session_id):
                if kind == protocol.PING:
                    reply: dict[str, Any] = {"type": protocol.PONG}
                elif kind == protocol.SERVER_STATS:
                    reply = self._stats_reply()
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
                    request=kind,
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
        return stats_view(self.metrics_snapshot(), active_backend_name())

    def _telemetry_snapshot_reply(self) -> dict[str, Any]:
        """This process's exact metrics snapshot (the fleet merge feed).

        :meth:`metrics_snapshot` laid over the enabled telemetry
        registry's snapshot, in merge form: a fleet frontend folds one
        per worker into a fresh registry with
        :meth:`~repro.telemetry.metrics.MetricsRegistry.merge`, and the
        result equals the sum of the per-process records.  ``enabled``
        says whether opt-in telemetry is on; the serve counters ride
        the reply either way.
        """
        telemetry = get_telemetry()
        metrics = telemetry.metrics.snapshot() if telemetry.enabled else {}
        metrics.update(self.metrics_snapshot())
        return {
            "type": protocol.TELEMETRY_SNAPSHOT_REPLY,
            "enabled": telemetry.enabled,
            "dsp_backend": active_backend_name(),
            "metrics": metrics,
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
        start_time_s = protocol.start_time_from_wire(frame.get("start_time_s", 0.0))
        resumable = frame.get("resumable", False)
        if not isinstance(resumable, bool):
            raise ProtocolError("resumable must be a boolean")
        checkpoint = frame.get("resume")
        self._session_counter += 1
        session_id = f"{self._id_prefix}s{self._session_counter}"
        if checkpoint is not None:
            session = ServeSession.resume(
                session_id=session_id,
                config=config,
                checkpoint=checkpoint,
                use_music=use_music,
                start_time_s=start_time_s,
            )
            self.stats.sessions_resumed += 1
        else:
            session = ServeSession(
                session_id=session_id,
                config=config,
                use_music=use_music,
                start_time_s=start_time_s,
                resumable=resumable,
            )
        if self.capture_store is not None and checkpoint is None:
            from repro.capture.recorder import CaptureRecorder

            writer = self.capture_store.create(
                source="serve",
                config=config,
                sample_rate_hz=1.0 / config.sample_period_s,
                use_music=use_music,
                start_time_s=start_time_s,
                extra={"session": session.id},
            )
            session.recorder = CaptureRecorder(writer)
        self.sessions[session.id] = session
        owned[session.id] = session
        self.stats.sessions_opened += 1
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
        frames = []
        failure: Exception | None = None
        for future in futures:
            # Await each future in turn, so every one is retrieved.
            try:
                frames.append(await future)
            except Exception as exc:  # noqa: BLE001 - surfaced below
                if failure is None:
                    failure = exc
        if failure is not None:
            # Surface the first failure as a structured error for this
            # request alone.
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
