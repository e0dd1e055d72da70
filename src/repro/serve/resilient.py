"""A reconnecting, resuming client that survives (and applies) chaos.

:class:`ResilientServeClient` wraps :class:`~repro.serve.client.
AsyncServeClient` with the full recovery loop the chaos harness
exercises:

* **Reconnect with backoff** — every connection loss (injected or
  real) triggers reconnection attempts paced by exponential backoff
  (:data:`BACKOFF_INITIAL_S` doubling up to :data:`BACKOFF_MAX_S`)
  with seeded jitter, so two runs of the same seed back off
  identically.
* **Session resume** — sessions open ``resumable=True``; every push
  reply carries the server's checkpoint, and after a reconnect the
  client presents the freshest one, rebuilding the session at exactly
  the state of the last *answered* push.
* **Idempotent re-send** — pushes carry monotonically increasing
  ``seq`` numbers that only advance when a reply lands.  A push whose
  reply was lost is re-sent with the same seq after resume: the server
  either applies it (the checkpoint predates it) or acks it as a
  duplicate — columns come out equal to an uninterrupted run either
  way.

With a :class:`~repro.chaos.ClientChaos` plan attached, the client
*performs* the scheduled mangling around its own pushes — torn
prefixes, guaranteed-invalid corruption, oversized junk, mid-push
disconnects, slow-loris dribble, duplicate and reordered sends — and
then recovers from each, which is what the chaos soak gates on.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.chaos.injector import ClientChaos
from repro.chaos.schedule import ChaosEvent, ChaosKind
from repro.errors import (
    FleetError,
    ProtocolError,
    ReproError,
    SequenceError,
    ServeOverloadError,
    ServeTimeoutError,
)
from repro.runtime.tracker import SpectrogramColumn
from repro.serve import protocol
from repro.serve.client import AsyncServeClient, ClientStats, PushReply

#: Bytes per chunk of a slow-loris frame (the chaos log names the size).
SLOW_LORIS_CHUNK_BYTES = 64

#: Retries of one shed push before the overload error propagates.
SHED_RETRY_LIMIT = 200


#: Connection attempts per recovery: about 8.5 s of backoff before a
#: session gives up on a server or shard.
RECONNECT_ATTEMPTS = 12
#: Delay before the first reconnect attempt.
BACKOFF_INITIAL_S = 0.05
#: Growth of the delay per attempt.
BACKOFF_MULTIPLIER = 2.0
#: Longest delay between two attempts.
BACKOFF_MAX_S = 1.0
#: Relative jitter on each delay: a seeded uniform factor in
#: ``1 ± BACKOFF_JITTER``.
BACKOFF_JITTER = 0.1


def _backoff_delay_s(attempt: int, rng: np.random.Generator) -> float:
    """Delay before reconnect ``attempt`` (0-based), jittered."""
    base = min(BACKOFF_INITIAL_S * BACKOFF_MULTIPLIER**attempt, BACKOFF_MAX_S)
    return base * (1.0 + BACKOFF_JITTER * float(rng.uniform(-1.0, 1.0)))


@dataclass
class ResilienceStats:
    """What the recovery loop had to do to keep the stream whole."""

    pushes: int = 0
    reconnects: int = 0
    resumes: int = 0
    resends: int = 0
    duplicate_acks: int = 0
    chaos_events_applied: int = 0
    shed_retries: int = 0
    #: Typed fleet migration signals absorbed (shard drain / crash).
    fleet_migrations: int = 0
    #: Reconnect-begin to first post-resume column, per recovery.
    recovery_latencies_s: list[float] = field(default_factory=list)


class ResilientServeClient:
    """One session's survivable connection to the sensing server."""

    def __init__(
        self,
        host: str,
        port: int,
        *,
        session_config: dict[str, Any] | None = None,
        use_music: bool = True,
        start_time_s: float = 0.0,
        chaos: ClientChaos | None = None,
        seed: int = 0,
        routing_key: str | None = None,
    ):
        self.host = host
        self.port = port
        self.session_config = session_config
        self.use_music = use_music
        self.start_time_s = start_time_s
        #: Stable shard-affinity key (fleet frontends route on it and
        #: echo it back; a resume presents the same key, so the session
        #: re-hashes deterministically).
        self.routing_key = routing_key
        self.chaos = chaos
        # Backoff jitter comes from its own child stream so it never
        # perturbs the chaos plan's draws.
        self._backoff_rng = np.random.default_rng([int(seed), 1_000_003])
        self.stats = ResilienceStats()
        #: Wire accounting summed over every connection of the session.
        self.wire_stats = ClientStats()
        #: Served columns keyed by column index (duplicates dropped).
        self.columns: dict[int, SpectrogramColumn] = {}
        self.detections: list[dict[str, Any]] = []
        self.health_events: list[dict[str, Any]] = []
        self._client: AsyncServeClient | None = None
        self._checkpoint: dict[str, Any] | None = None
        self._seq = 0
        self._push_op = 0
        self._recovery_started: float | None = None

    # ------------------------------------------------------------------
    # Connection lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        """Connect and open the (resumable) session."""
        await self._reconnect(resume=False)

    async def aclose(self) -> None:
        if self._client is not None:
            await self._client.aclose()
            self._client = None

    async def close_session(self) -> dict[str, Any]:
        """Close the session (with recovery) and return its report."""
        for attempt in range(RECONNECT_ATTEMPTS):
            try:
                if self._client is None or not self._client.connected:
                    await self._reconnect(resume=True)
                assert self._client is not None
                return await self._client.close_session()
            except FleetError:
                # The shard drained/crashed out from under the close;
                # resume on a healthy shard and close there.
                self.stats.fleet_migrations += 1
                await self._drop_connection()
            except (ConnectionError, OSError, asyncio.IncompleteReadError):
                await self._drop_connection()
        raise ConnectionError("could not close the session: server unreachable")

    async def _drop_connection(self) -> None:
        if self._client is not None:
            await self._client.aclose()
            self._client = None

    async def _abort_connection(self) -> None:
        """Hard-close the socket mid-exchange (the disconnect chaos)."""
        if self._client is not None and self._client._writer is not None:
            transport = self._client._writer.transport
            if transport is not None:
                transport.abort()
        await self._drop_connection()

    async def _reconnect(self, resume: bool) -> None:
        """(Re)connect and (re)open the session, with paced backoff."""
        if self._recovery_started is None and resume:
            self._recovery_started = time.perf_counter()
        last_error: Exception | None = None
        for attempt in range(RECONNECT_ATTEMPTS):
            if attempt > 0 or resume:
                await asyncio.sleep(_backoff_delay_s(attempt, self._backoff_rng))
            await self._drop_connection()
            client = AsyncServeClient(self.host, self.port)
            client.stats = self.wire_stats
            try:
                await client.connect()
                await client.open_session(
                    config=self.session_config,
                    use_music=self.use_music,
                    start_time_s=self.start_time_s,
                    resumable=True,
                    resume=self._checkpoint if resume else None,
                    routing_key=self.routing_key,
                )
                if client.routing_key is not None:
                    # Keep whatever key the frontend minted/echoed so
                    # later resumes hash to the same shard assignment.
                    self.routing_key = client.routing_key
            except ReproError:
                # A typed rejection (SessionResumeError, session limit,
                # ...) will not get better with retries — surface it.
                await client.aclose()
                raise
            except (ConnectionError, OSError, asyncio.IncompleteReadError) as exc:
                last_error = exc
                await client.aclose()
                continue
            self._client = client
            if resume:
                self.stats.reconnects += 1
                if self._checkpoint is not None:
                    self.stats.resumes += 1
            return
        raise ConnectionError(
            f"could not reconnect after {RECONNECT_ATTEMPTS} attempts"
        ) from last_error

    # ------------------------------------------------------------------
    # The push loop
    # ------------------------------------------------------------------

    async def push(self, samples: np.ndarray) -> PushReply:
        """Push one block through whatever chaos is scheduled for it."""
        op = self._push_op
        self._push_op += 1
        events = self.chaos.plan_for(op) if self.chaos is not None else []
        for event in events:
            await self._apply_prelude(event, samples, op)
        reply = await self._push_reliably(samples, op)
        for event in events:
            await self._apply_postlude(event, samples, op)
        self.stats.pushes += 1
        return reply

    async def _apply_prelude(
        self, event: ChaosEvent, samples: np.ndarray, op: int
    ) -> None:
        """Chaos applied *before* the clean push goes out."""
        chaos = self.chaos
        assert chaos is not None
        kind = event.kind
        if kind is ChaosKind.TRUNCATE_FRAME:
            # A torn frame loses the newline framing; the only sane
            # follow-up is hanging up and resuming.
            await self._ensure_connected()
            assert self._client is not None
            frame = self._client.push_frame(samples, self._seq + 1)
            torn, detail = chaos.truncate(protocol.encode_frame(frame), event)
            try:
                await self._client.send_raw(torn)
            except (ConnectionError, OSError):
                pass
            chaos.record(op, kind, detail)
            self.stats.chaos_events_applied += 1
            await self._abort_connection()
        elif kind is ChaosKind.CORRUPT_FRAME:
            # Newline framing survives: the server answers with a
            # typed error and keeps the connection.
            await self._ensure_connected()
            assert self._client is not None
            frame = self._client.push_frame(samples, self._seq + 1)
            mangled, detail = chaos.corrupt(protocol.encode_frame(frame), op)
            chaos.record(op, kind, detail)
            self.stats.chaos_events_applied += 1
            try:
                await self._client.send_raw(mangled)
                reply = await self._client.read_reply()
                if reply.get("type") != protocol.ERROR:
                    raise ProtocolError(
                        "server accepted a corrupted frame"
                    )  # pragma: no cover - would be a server bug
            except (ConnectionError, OSError, asyncio.IncompleteReadError):
                await self._drop_connection()
        elif kind is ChaosKind.OVERSIZED_FRAME:
            # Beyond the bounded read: the server reports and hangs up.
            await self._ensure_connected()
            assert self._client is not None
            junk, detail = chaos.oversize_frame(protocol.MAX_FRAME_BYTES)
            chaos.record(op, kind, detail)
            self.stats.chaos_events_applied += 1
            try:
                await self._client.send_raw(junk)
                await self._client.read_reply()  # the typed error, if it arrives
            except (ConnectionError, OSError, asyncio.IncompleteReadError):
                pass
            await self._drop_connection()
        elif kind is ChaosKind.DISCONNECT:
            if not chaos.disconnect_after_send(op):
                chaos.record(op, kind, "before send")
                self.stats.chaos_events_applied += 1
                await self._abort_connection()
            else:
                # The nasty half: bytes out, reply lost.  Send the real
                # push, kill the socket, and let the reliable loop
                # re-send the same seq after resume.
                await self._ensure_connected()
                assert self._client is not None
                frame = self._client.push_frame(samples, self._seq + 1)
                chaos.record(op, kind, "after send (reply lost)")
                self.stats.chaos_events_applied += 1
                try:
                    await self._client.send_raw(protocol.encode_frame(frame))
                except (ConnectionError, OSError):
                    pass
                await self._abort_connection()
        elif kind is ChaosKind.REORDER_PUSH:
            # A skipped-ahead seq must draw a typed SequenceError and
            # leave the session untouched.
            await self._ensure_connected()
            assert self._client is not None
            frame = self._client.push_frame(samples, self._seq + 2)
            chaos.record(op, kind, f"sent seq {self._seq + 2} early")
            self.stats.chaos_events_applied += 1
            try:
                reply = await self._client.request(frame)
                raise ProtocolError(
                    f"server accepted out-of-order seq: {reply.get('type')!r}"
                )  # pragma: no cover - would be a server bug
            except SequenceError:
                pass
            except (ConnectionError, OSError, asyncio.IncompleteReadError):
                await self._drop_connection()

    async def _apply_postlude(
        self, event: ChaosEvent, samples: np.ndarray, op: int
    ) -> None:
        """Chaos applied *after* the clean push was answered."""
        chaos = self.chaos
        assert chaos is not None
        if event.kind is not ChaosKind.DUPLICATE_PUSH:
            return
        # Blind re-send of the seq that just landed: the server must
        # ack idempotently with zero columns.
        chaos.record(op, event.kind, f"re-sent seq {self._seq}")
        self.stats.chaos_events_applied += 1
        try:
            await self._ensure_connected()
            assert self._client is not None
            frame = self._client.push_frame(samples, self._seq)
            reply = await self._client.request(frame)
            decoded = self._client.decode_push_reply(reply)
            if not decoded.duplicate or decoded.columns:
                raise ProtocolError(
                    "duplicate seq was not acked idempotently"
                )  # pragma: no cover - would be a server bug
            self.stats.duplicate_acks += 1
            if decoded.checkpoint is not None:
                self._checkpoint = decoded.checkpoint
        except (ConnectionError, OSError, asyncio.IncompleteReadError):
            await self._drop_connection()

    async def _ensure_connected(self) -> None:
        if self._client is None or not self._client.connected:
            await self._reconnect(resume=True)

    async def _push_reliably(self, samples: np.ndarray, op: int) -> PushReply:
        """Send the clean push for this op until a reply lands.

        Re-sends keep the same seq, so a push the server applied before
        the connection died is acked as a duplicate, never re-applied.
        """
        seq = self._seq + 1
        slow = (
            next(
                (
                    e
                    for e in (self.chaos.plan_for(op) if self.chaos else [])
                    if e.kind is ChaosKind.SLOW_LORIS
                ),
                None,
            )
        )
        shed_retries = 0
        attempts = 0
        while True:
            attempts += 1
            try:
                await self._ensure_connected()
                assert self._client is not None
                frame = self._client.push_frame(samples, seq)
                data = protocol.encode_frame(frame)
                start = time.perf_counter()
                if slow is not None and attempts == 1:
                    await self._send_slow_loris(data, slow, op)
                else:
                    await self._client.send_raw(data)
                reply = await self._client.read_reply()
            except (ConnectionError, OSError, asyncio.IncompleteReadError):
                await self._drop_connection()
                self.stats.resends += 1
                continue
            if reply.get("type") == protocol.ERROR:
                self._client.stats.errors += 1
                try:
                    protocol.raise_wire_error(reply)
                except ServeOverloadError:
                    # Shed pushes never advanced the tracker; retry the
                    # same seq until the queue drains.
                    shed_retries += 1
                    self.stats.shed_retries += 1
                    if shed_retries > SHED_RETRY_LIMIT:
                        raise
                    await asyncio.sleep(0.01)
                    continue
                except ServeTimeoutError:
                    # The idle deadline fired (a long stall on our
                    # side); the server is hanging up — reconnect.
                    await self._drop_connection()
                    self.stats.resends += 1
                    continue
                except FleetError:
                    # A migration signal from the routing frontend: the
                    # shard owning this session is draining or died.
                    # Reconnect and resume from the freshest checkpoint
                    # — the frontend hashes the session onto a healthy
                    # shard, and the same seq is re-sent there.
                    self.stats.fleet_migrations += 1
                    await self._drop_connection()
                    self.stats.resends += 1
                    continue
                # Any other taxonomy error is terminal for this push
                # and propagates (DeviceFailedError, ProtocolError...).
                raise AssertionError("unreachable")  # pragma: no cover
            latency = time.perf_counter() - start
            decoded = self._client.decode_push_reply(reply, latency_s=latency)
            self._client.stats.requests += 1
            self._client.stats.latencies_s.append(latency)
            self._absorb(decoded)
            if decoded.duplicate:
                self.stats.duplicate_acks += 1
            self._seq = seq
            return decoded

    async def _send_slow_loris(
        self, data: bytes, event: ChaosEvent, op: int
    ) -> None:
        """Dribble one frame out in small delayed chunks."""
        assert self._client is not None and self.chaos is not None
        chunk = SLOW_LORIS_CHUNK_BYTES
        pieces = range(0, len(data), chunk)
        self.chaos.record(
            op,
            event.kind,
            f"dribbled in {chunk}-byte chunks {event.magnitude:.3g} s apart",
        )
        self.stats.chaos_events_applied += 1
        for offset in pieces:
            await self._client.send_raw(data[offset : offset + chunk])
            if offset + chunk < len(data) and event.magnitude > 0:
                await asyncio.sleep(event.magnitude)

    def _absorb(self, reply: PushReply) -> None:
        """Fold one answered push into the served stream (dedup safe)."""
        for column in reply.columns:
            if column.index not in self.columns:
                self.columns[column.index] = column
        self.detections.extend(reply.detections)
        self.health_events.extend(reply.health)
        if reply.checkpoint is not None:
            self._checkpoint = reply.checkpoint
        if self._recovery_started is not None and reply.columns:
            self.stats.recovery_latencies_s.append(
                time.perf_counter() - self._recovery_started
            )
            self._recovery_started = None

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------

    def served_columns(self) -> list[SpectrogramColumn]:
        """All served columns in index order (gap-free when complete)."""
        return [self.columns[index] for index in sorted(self.columns)]
