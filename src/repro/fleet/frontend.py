"""The asyncio routing frontend of the sharded sensing fleet.

``FleetServer`` speaks the exact NDJSON wire protocol of
:class:`~repro.serve.server.SensingServer` on its listening socket and
proxies every session to one of N forked shard workers
(:mod:`repro.fleet.worker`), each a complete single-process serving
stack.  The frontend adds only routing-layer behavior:

* **Consistent assignment** — ``open_session`` routes on a
  ``routing_key`` (client-supplied or minted and echoed back) through
  a :class:`~repro.fleet.ring.HashRing`, so a resuming
  :class:`~repro.serve.resilient.ResilientServeClient` presenting the
  same key re-lands deterministically while the membership holds, and
  remaps minimally when it does not.
* **Admission** — the worker decides: its :class:`SessionLimitError`
  (counted in ``FleetStats.shed_sessions``) and its per-push
  :class:`ServeOverloadError` relay through untouched.  The frontend
  sheds a session itself only when no shard is routable.
* **Drain** — :meth:`drain_shard` removes the shard from the ring
  (new sessions re-hash), answers the shard's remaining sessions with
  typed :class:`ShardDrainingError` frames (their clients resume onto
  surviving shards via the checkpoint path), and SIGTERMs the worker
  once it empties.
* **Supervision** — a crashed worker is restarted under the same
  shard name (same ring points); sessions orphaned by the crash draw
  typed :class:`WorkerCrashedError` frames, which the resilient
  client treats as a reconnect-and-resume signal.
* **Exact telemetry** — the supervisor probes each live shard once
  per tick with ``telemetry_snapshot``, whose reply carries the shard's
  serve counters (and, with telemetry on, its registry) in merge form,
  and caches the last reply of every shard incarnation.  Every fleet
  number is read from that cache: counters and histograms add over
  every incarnation, levels (``active_sessions``, ``queue_depth``) add
  over live shards, and the ``max_queue_depth`` high-water mark is the
  largest any incarnation reported.  The fleet's ``server_stats`` reply
  is :func:`~repro.serve.server.stats_view` of that fold, as bare
  serve's is of its own snapshot.

Each worker mints its session ids in fleet form, ``<shard>:s<n>``, so
ids never collide across shards and nothing on the relay rewrites
them.  The relay decodes each client frame once, to route it and to
answer malformed input with a typed error, then forwards the client's
line to the shard unchanged.  ``push_blocks`` and ``close_session``
replies go back as the exact bytes the shard wrote; only the
``session_opened`` reply is re-encoded, to add ``routing_key`` and
``shard``.  Packed sample and column arrays therefore cross the extra
hop untouched, and the served-vs-offline bit-exactness contract holds.
"""

from __future__ import annotations

import asyncio
import dataclasses
import itertools
import time
from dataclasses import dataclass, field
from typing import Any

from repro.errors import (
    FleetError,
    ProtocolError,
    ReproError,
    ServeOverloadError,
    ServeTimeoutError,
    SessionLimitError,
    ShardDrainingError,
    WorkerCrashedError,
)
from repro.fleet.ring import HashRing
from repro.fleet.worker import WorkerHandle, WorkerSpec
from repro.serve import protocol
from repro.serve.client import AsyncServeClient
from repro.serve.server import ServeConfig, read_line, stats_view, write_line
from repro.telemetry.context import get_telemetry
from repro.telemetry.metrics import MetricsRegistry

__all__ = ["FleetConfig", "FleetServer", "FleetStats", "merge_snapshots"]

#: The longest the frontend waits on one shard: a connect, a probe, or
#: the reply to one relayed request.
BACKEND_TIMEOUT_S = 30.0

#: Seconds between supervisor ticks.  Each tick restarts a dead shard
#: or starts a probe of a live one; served totals lag a SIGKILL by one
#: probe.
SUPERVISOR_INTERVAL_S = 0.25


@dataclass(frozen=True)
class FleetConfig:
    """Deployment knobs of the routing frontend.

    Attributes:
        workers: shard count; shard names are ``w0..w{N-1}`` and stay
            stable across restarts (the ring hashes names, not pids).
        serve: the service clients see.  The frontend binds
            ``serve.host:serve.port`` and holds client connections to
            its idle and write deadlines.  Each worker runs this
            config too — its session and scheduler limits, and its
            ``record_dir`` (one shared capture store; the store's
            advisory locking keeps concurrent writers safe) — but on
            an ephemeral loopback port with no idle deadline: pooled
            frontend↔worker connections sit idle legitimately.
        telemetry_dir: when set, each worker runs an enabled telemetry
            session in ``<dir>/shard-<name>`` and the frontend merges
            :meth:`FleetServer.metrics_snapshot` into its own registry
            at shutdown — ``repro telemetry-report <dir>`` then reports
            exact fleet totals.
    """

    workers: int = 2
    serve: ServeConfig = field(default_factory=ServeConfig)
    drain_timeout_s: float = 15.0
    telemetry_dir: str | None = None
    dsp_backend: str | None = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"a fleet needs at least one worker, got {self.workers}")


@dataclass
class FleetStats:
    """Always-on routing-layer accounting.

    Each typed migration frame counts once, as a drain or a crash
    notice; ``relay_errors`` counts the frames the relay itself could
    not serve (malformed input, deadline expiries, unknown frames,
    fleet-level sheds and internal errors).
    """

    connections: int = 0
    requests_relayed: int = 0
    sessions_routed: int = 0
    sessions_resumed: int = 0
    shed_sessions: int = 0
    drain_notices: int = 0
    crash_notices: int = 0
    worker_crashes: int = 0
    worker_restarts: int = 0
    shards_drained: int = 0
    relay_errors: int = 0

    def snapshot(self) -> dict[str, Any]:
        return dict(vars(self))


@dataclass
class _SessionRoute:
    """Where one client session lives: shard + incarnation."""

    shard: str
    generation: int


class _ShardState:
    """The frontend's book-keeping for one shard."""

    def __init__(self, spec: WorkerSpec, handle: WorkerHandle):
        self.spec = spec
        self.handle = handle
        self.generation = 0
        self.draining = False
        self.stopped = False
        self.restarts = 0
        #: The last ``telemetry_snapshot`` reply of each incarnation, the
        #: current one last.  A retired incarnation (crashed or drained)
        #: keeps its final probe, so its served work stays in the totals.
        self.probes: list[dict[str, Any]] = [{}]
        #: The supervisor's probe of this shard, while one is in flight.
        self.probe_task: asyncio.Task | None = None

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def live(self) -> bool:
        return not self.stopped and self.handle.alive

    @property
    def routable(self) -> bool:
        return self.live and not self.draining

    def current(self, name: str) -> int:
        """A count or level of the current incarnation, as last probed."""
        return _value(self.probes[-1].get("metrics", {}), name)

    def totals(self) -> dict[str, Any]:
        """Counters and histograms summed over every incarnation.

        Gauges are dropped: a merged gauge would read whichever
        incarnation merged last.
        """
        merged = merge_snapshots([probe.get("metrics", {}) for probe in self.probes])
        return {name: snap for name, snap in merged.items() if snap["type"] != "gauge"}

    def snapshot(self) -> dict[str, Any]:
        state = (
            "drained"
            if self.stopped
            else "draining"
            if self.draining
            else "up"
            if self.handle.alive
            else "down"
        )
        return {
            "shard": self.name,
            "state": state,
            "pid": self.handle.pid,
            "port": self.handle.port,
            "generation": self.generation,
            "restarts": self.restarts,
            "active_sessions": self.current("server.active_sessions"),
            "queue_depth": self.current("scheduler.queue_depth"),
            "columns_served": self.current("server.columns_served"),
            "requests": self.current("server.requests"),
            "dsp_backend": self.probes[-1].get("dsp_backend"),
        }


def _value(metrics: dict[str, Any], name: str) -> int:
    return int(metrics.get(name, {}).get("value", 0))


def merge_snapshots(parts: list[dict[str, Any]]) -> dict[str, Any]:
    """Fold metric snapshots with PR-3 exact merge semantics."""
    registry = MetricsRegistry()
    for part in parts:
        if part:
            registry.merge(part)
    return registry.snapshot()


class FleetServer:
    """Route many client sessions across N shard worker processes."""

    def __init__(self, config: FleetConfig | None = None, hub: Any = None):
        self.config = config if config is not None else FleetConfig()
        self.hub = hub
        self.stats = FleetStats()
        self._shards: dict[str, _ShardState] = {}
        self._ring = HashRing()
        self._server: asyncio.AbstractServer | None = None
        self._supervisor: asyncio.Task | None = None
        self._drainers: set[asyncio.Task] = set()
        self._connections: set[asyncio.StreamWriter] = set()
        self._key_counter = itertools.count(1)
        self._stopped = asyncio.Event()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def port(self) -> int:
        """The bound frontend port (meaningful after :meth:`start`)."""
        if self._server is None or not self._server.sockets:
            raise RuntimeError("fleet is not started")
        return self._server.sockets[0].getsockname()[1]

    @property
    def draining(self) -> bool:
        """Whether fleet shutdown has begun (drives ``/readyz``)."""
        return self._stopped.is_set()

    def _worker_spec(self, name: str) -> WorkerSpec:
        serve = dataclasses.replace(
            self.config.serve, host="127.0.0.1", port=0, idle_timeout_s=None
        )
        telemetry_dir = (
            f"{self.config.telemetry_dir}/shard-{name}"
            if self.config.telemetry_dir is not None
            else None
        )
        return WorkerSpec(
            name=name,
            serve=serve,
            telemetry_dir=telemetry_dir,
            dsp_backend=self.config.dsp_backend,
        )

    async def start(self) -> int:
        """Boot every shard, bind the frontend, return its port."""
        if self._server is not None:
            raise RuntimeError("fleet is already started")
        names = [f"w{index}" for index in range(self.config.workers)]
        try:
            for name in names:
                spec = self._worker_spec(name)
                handle = WorkerHandle(spec)
                await handle.start()
                self._shards[name] = _ShardState(spec, handle)
                self._ring.add(name)
        except Exception:
            for state in self._shards.values():
                state.handle.kill()
            raise
        self._server = await asyncio.start_server(
            self._handle_client,
            host=self.config.serve.host,
            port=self.config.serve.port,
            limit=protocol.MAX_FRAME_BYTES,
        )
        self._supervisor = asyncio.create_task(self._supervise())
        return self.port

    async def shutdown(self) -> None:
        """Stop routing, collect final shard telemetry, reap workers."""
        if self._stopped.is_set():
            return
        self._stopped.set()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._supervisor is not None:
            self._supervisor.cancel()
            try:
                await self._supervisor
            except asyncio.CancelledError:
                pass
        probes = [state.probe_task for state in self._shards.values() if state.probe_task]
        for task in list(self._drainers) + probes:
            task.cancel()
            try:
                await task
            except asyncio.CancelledError:
                pass
        for writer in list(self._connections):
            writer.close()
        self._connections.clear()
        # Final probes before the workers go away; an enabled frontend
        # registry takes the fleet's fold, so `telemetry-report` over
        # this run reports the sum of shards.
        await self._probe_live()
        telemetry = get_telemetry()
        if telemetry.enabled:
            telemetry.metrics.merge(self.metrics_snapshot())
        for state in self._shards.values():
            await state.handle.stop()
            state.stopped = True

    # ------------------------------------------------------------------
    # Supervision, drain, restart
    # ------------------------------------------------------------------

    async def _probe(self, state: _ShardState) -> bool:
        """One ``telemetry_snapshot`` probe of a shard (fresh connection).

        The reply becomes the current incarnation's cache, unless a
        restart began meanwhile.  Returns whether the shard answered.
        """
        generation = state.generation
        probe = AsyncServeClient("127.0.0.1", state.handle.port)
        try:
            await asyncio.wait_for(probe.connect(), timeout=BACKEND_TIMEOUT_S)
            reply = await asyncio.wait_for(
                probe.telemetry_snapshot(), timeout=BACKEND_TIMEOUT_S
            )
        except (
            ConnectionError,
            OSError,
            asyncio.TimeoutError,
            asyncio.IncompleteReadError,
            ReproError,
        ):
            return False
        finally:
            await probe.aclose()
        if state.generation != generation:
            return False
        state.probes[-1] = reply
        return True

    async def _probe_live(self) -> None:
        """Probe every live shard once, so the fold is fresh."""
        for state in self._shards.values():
            if state.live:
                await self._probe(state)

    async def _supervise(self) -> None:
        """Restart crashed shards; start a probe of each live one per tick.

        A probe runs as its own task, at most one per shard, and the
        tick never awaits it: a wedged shard's probe, which may wait
        ``BACKEND_TIMEOUT_S``, delays neither a restart nor the other
        shards' probes.
        """
        while not self._stopped.is_set():
            await asyncio.sleep(SUPERVISOR_INTERVAL_S)
            for state in list(self._shards.values()):
                if state.stopped or state.draining:
                    continue
                if not state.handle.alive:
                    await self._restart_shard(state)
                elif state.probe_task is None or state.probe_task.done():
                    state.probe_task = asyncio.create_task(self._probe(state))
            if self.hub is not None:
                self.hub.publish("fleet.shards", shards=self.shard_snapshots())

    async def _restart_shard(self, state: _ShardState) -> None:
        """Bring a crashed shard back under the same name/ring points."""
        self.stats.worker_crashes += 1
        self._ring.remove(state.name)
        # The dead incarnation keeps its last probe, the best record of
        # its served work; the next one starts an empty cache.
        if state.probes[-1]:
            state.probes.append({})
        state.generation += 1
        handle = WorkerHandle(state.spec)
        try:
            await handle.start()
        except RuntimeError:
            # The replacement failed to boot; leave the shard out of
            # the ring — the next supervisor tick tries again.
            state.handle = handle
            return
        state.handle = handle
        state.restarts += 1
        self.stats.worker_restarts += 1
        self._ring.add(state.name)
        if self.hub is not None:
            self.hub.publish(
                "fleet.restart",
                shard=state.name,
                generation=state.generation,
                pid=handle.pid,
            )

    async def drain_shard(self, name: str) -> None:
        """Gracefully drain one shard: re-route, migrate, stop.

        Returns once the drain *began* (the shard is out of the ring
        and flagged, so new sessions re-hash immediately and existing
        ones draw :class:`ShardDrainingError` on their next request); a
        background task stops the worker once its sessions are gone.
        """
        state = self._shards.get(name)
        if state is None:
            raise LookupError(f"no shard named {name!r}")
        if state.draining or state.stopped:
            return
        state.draining = True
        self._ring.remove(name)
        self.stats.shards_drained += 1
        if self.hub is not None:
            self.hub.publish("fleet.drain", shard=name)
        task = asyncio.create_task(self._finish_drain(state))
        self._drainers.add(task)
        task.add_done_callback(self._drainers.discard)

    async def _finish_drain(self, state: _ShardState) -> None:
        """Stop a draining worker once its last session migrates."""
        deadline = time.monotonic() + self.config.drain_timeout_s
        # Every poll is a probe, so the last one is the final record.
        while not (
            await self._probe(state) and state.current("server.active_sessions") == 0
        ):
            if not state.handle.alive or time.monotonic() >= deadline:
                break
            await asyncio.sleep(0.05)
        await state.handle.stop()
        state.stopped = True

    # ------------------------------------------------------------------
    # Observability views
    # ------------------------------------------------------------------

    def shard_snapshots(self) -> list[dict[str, Any]]:
        """Every shard's routing-layer view (the ``/api/shards`` feed)."""
        return [
            self._shards[name].snapshot() for name in sorted(self._shards)
        ]

    def metric_snapshots(self) -> dict[str, dict[str, Any]]:
        """Each shard's :meth:`_ShardState.totals`, by shard name."""
        return {
            name: state.totals() for name, state in sorted(self._shards.items())
        }

    def metrics_snapshot(self) -> dict[str, dict[str, Any]]:
        """The fleet's serve counters and histograms, in merge form.

        The exact fold of every shard incarnation's cached probe; it
        holds no gauges.  ``/metrics`` renders it and shutdown merges
        it into an enabled telemetry registry.
        """
        return merge_snapshots(list(self.metric_snapshots().values()))

    def _stats_reply(self) -> dict[str, Any]:
        """:func:`stats_view` of the fold, with the fleet's levels."""
        live = [state for state in self._shards.values() if state.live]
        metrics = self.metrics_snapshot()
        for name in ("server.active_sessions", "scheduler.queue_depth"):
            level = sum(state.current(name) for state in live)
            metrics[name] = {"type": "gauge", "value": float(level)}
        high = max(
            _value(probe.get("metrics", {}), "scheduler.max_queue_depth")
            for state in self._shards.values()
            for probe in state.probes
        )
        metrics["scheduler.max_queue_depth"] = {"type": "gauge", "value": float(high)}
        backends = {state.probes[-1]["dsp_backend"] for state in live if state.probes[-1]}
        dsp_backend = "mixed" if len(backends) > 1 else next(iter(backends), "unknown")
        reply = stats_view(metrics, dsp_backend)
        reply["fleet"] = self.stats.snapshot()
        reply["shards"] = self.shard_snapshots()
        return reply

    def _telemetry_reply(self) -> dict[str, Any]:
        """Per-shard exact snapshots and their fold, self-certifying."""
        shards = self.metric_snapshots()
        telemetry = get_telemetry()
        frontend = telemetry.metrics.snapshot() if telemetry.enabled else {}
        merged = merge_snapshots([*shards.values(), frontend])
        return {
            "type": protocol.TELEMETRY_SNAPSHOT_REPLY,
            "enabled": True,
            "metrics": merged,
            "shards": shards,
            "frontend": frontend,
        }

    # ------------------------------------------------------------------
    # Client connections
    # ------------------------------------------------------------------

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.stats.connections += 1
        self._connections.add(writer)
        relay = _ClientRelay(self, reader, writer)
        try:
            await relay.run()
        finally:
            await relay.close_backends()
            self._connections.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover - teardown
                pass

    def _route_key(self, routing_key: str) -> _ShardState:
        """The routable shard owning ``routing_key``."""
        routable = [
            state.name for state in self._shards.values() if state.routable
        ]
        if not routable:
            raise ServeOverloadError(
                "fleet has no routable shards (all draining or down)"
            )
        ring = self._ring
        name = ring.lookup(routing_key)
        state = self._shards.get(name)
        if state is None or not state.routable:
            # The ring briefly lags membership changes mid-restart;
            # fall back to a deterministic rehash over routable shards.
            fallback = HashRing(routable)
            state = self._shards[fallback.lookup(routing_key)]
        return state


class _ClientRelay:
    """One client connection's sequential relay loop."""

    def __init__(
        self,
        fleet: FleetServer,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ):
        self.fleet = fleet
        self.reader = reader
        self.writer = writer
        #: fleet session id -> route
        self.routes: dict[str, _SessionRoute] = {}
        #: (shard, generation) -> pooled backend connection
        self.backends: dict[
            tuple[str, int], tuple[asyncio.StreamReader, asyncio.StreamWriter]
        ] = {}

    # -- plumbing ------------------------------------------------------

    async def _send_client(self, frame: dict[str, Any]) -> bool:
        return await self._send_client_raw(protocol.encode_frame(frame))

    async def _send_client_raw(self, data: bytes) -> bool:
        try:
            await write_line(self.writer, data, self.fleet.config.serve)
        except (asyncio.TimeoutError, ConnectionError, OSError):
            return False
        return True

    async def _backend(
        self, state: _ShardState
    ) -> tuple[asyncio.StreamReader, asyncio.StreamWriter]:
        key = (state.name, state.generation)
        pooled = self.backends.get(key)
        if pooled is not None and not pooled[1].is_closing():
            return pooled
        async with asyncio.timeout(BACKEND_TIMEOUT_S):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", state.handle.port, limit=protocol.MAX_FRAME_BYTES
            )
        self.backends[key] = (reader, writer)
        return reader, writer

    def _drop_backend(self, key: tuple[str, int]) -> None:
        pooled = self.backends.pop(key, None)
        if pooled is not None:
            pooled[1].close()

    async def close_backends(self) -> None:
        for key in list(self.backends):
            self._drop_backend(key)

    async def _exchange(self, state: _ShardState, line: bytes) -> bytes:
        """Send one request line to the shard; return its reply line.

        Raises:
            WorkerCrashedError: the backend connection broke mid-cycle.
        """
        key = (state.name, state.generation)
        try:
            reader, writer = await self._backend(state)
            writer.write(line)
            await writer.drain()
            async with asyncio.timeout(BACKEND_TIMEOUT_S):
                reply = await reader.readline()
        except (ConnectionError, OSError, TimeoutError) as exc:
            self._drop_backend(key)
            raise WorkerCrashedError(
                f"shard {state.name} did not answer: {type(exc).__name__}"
            ) from None
        if not reply:
            self._drop_backend(key)
            raise WorkerCrashedError(
                f"shard {state.name} closed the connection mid-request"
            )
        return reply

    # -- the loop ------------------------------------------------------

    async def run(self) -> None:
        fleet = self.fleet
        while True:
            try:
                line = await read_line(self.reader, fleet.config.serve)
            except (ServeTimeoutError, ProtocolError) as exc:
                fleet.stats.relay_errors += 1
                await self._send_client(protocol.error_frame(exc))
                return
            except (ConnectionError, OSError):
                return
            if not line:
                return
            if line.strip() == b"":
                continue
            try:
                frame = protocol.decode_frame(line)
            except ProtocolError as exc:
                fleet.stats.relay_errors += 1
                if not await self._send_client(protocol.error_frame(exc)):
                    return
                continue
            fleet.stats.requests_relayed += 1
            if not line.endswith(b"\n"):
                # A last line can end at EOF without its newline; the
                # shard must still read one whole line.
                line += b"\n"
            if not await self._handle_frame(frame, line):
                return

    async def _handle_frame(self, frame: dict[str, Any], line: bytes) -> bool:
        """Answer one client frame; ``False`` ends the connection."""
        fleet = self.fleet
        kind = frame.get("type")
        session_id = frame.get("session")
        seq = frame.get("seq")
        try:
            if kind == protocol.PING:
                return await self._send_client({"type": protocol.PONG})
            if kind == protocol.SERVER_STATS:
                await fleet._probe_live()
                return await self._send_client(fleet._stats_reply())
            if kind == protocol.TELEMETRY_SNAPSHOT:
                await fleet._probe_live()
                return await self._send_client(fleet._telemetry_reply())
            if kind == protocol.OPEN_SESSION:
                return await self._open_session(frame, line)
            if kind in (protocol.PUSH_BLOCKS, protocol.CLOSE_SESSION):
                return await self._relay_session_frame(frame, line)
            raise ProtocolError(f"unknown frame type {kind!r}")
        except ReproError as exc:
            # A typed fleet frame is a migration notice, not a relay fault.
            if isinstance(exc, ShardDrainingError):
                fleet.stats.drain_notices += 1
            elif isinstance(exc, FleetError):
                fleet.stats.crash_notices += 1
            else:
                fleet.stats.relay_errors += 1
            return await self._send_client(
                protocol.error_frame(exc, session=session_id, seq=seq)
            )
        except Exception as exc:  # noqa: BLE001 - a bug must not kill the relay
            fleet.stats.relay_errors += 1
            return await self._send_client(
                protocol.error_frame(
                    ReproError(f"internal fleet error: {exc}"),
                    session=session_id,
                    seq=seq,
                )
            )

    async def _open_session(self, frame: dict[str, Any], line: bytes) -> bool:
        fleet = self.fleet
        if fleet.draining:
            raise ServeOverloadError("fleet is shutting down")
        routing_key = frame.get("routing_key")
        if routing_key is not None and not isinstance(routing_key, str):
            raise ProtocolError("routing_key must be a string")
        if routing_key is None:
            routing_key = f"rk-{next(fleet._key_counter)}"
        state = fleet._route_key(routing_key)
        # The shard ignores ``routing_key``; the client's line goes as is.
        reply_line = await self._exchange(state, line)
        reply = protocol.decode_frame(reply_line)
        if reply.get("type") != protocol.SESSION_OPENED:
            # Typed worker rejection (session limit, bad resume, ...):
            # relay the exact error frame.
            if reply.get("error") == SessionLimitError.__name__:
                fleet.stats.shed_sessions += 1
            return await self._send_client_raw(reply_line)
        self.routes[str(reply.get("session"))] = _SessionRoute(
            shard=state.name, generation=state.generation
        )
        fleet.stats.sessions_routed += 1
        if reply.get("resumed"):
            fleet.stats.sessions_resumed += 1
        reply["routing_key"] = routing_key
        reply["shard"] = state.name
        return await self._send_client(reply)

    async def _relay_session_frame(self, frame: dict[str, Any], line: bytes) -> bool:
        fleet = self.fleet
        session_id = protocol.require_field(frame, "session")
        route = self.routes.get(session_id)
        if route is None:
            raise ProtocolError(
                f"no session {session_id!r} is open on this connection"
            )
        state = fleet._shards.get(route.shard)
        if state is None or state.generation != route.generation:
            # The owning incarnation is gone: this session is orphaned.
            self.routes.pop(session_id, None)
            raise WorkerCrashedError(
                f"shard {route.shard} crashed; resume to migrate "
                f"session {session_id}"
            )
        if state.draining or state.stopped:
            self.routes.pop(session_id, None)
            raise ShardDrainingError(
                f"shard {route.shard} is draining; resume to migrate "
                f"session {session_id}"
            )
        try:
            reply = await self._exchange(state, line)
        except WorkerCrashedError:
            self.routes.pop(session_id, None)
            raise
        if frame.get("type") == protocol.CLOSE_SESSION:
            self.routes.pop(session_id, None)
        return await self._send_client_raw(reply)
