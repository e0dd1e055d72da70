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
* **Admission** — a shard already at its session limit is shed at the
  frontend with the same :class:`SessionLimitError` the worker would
  raise; per-push admission (:class:`ServeOverloadError`) relays
  through from the worker's scheduler untouched.
* **Drain** — :meth:`drain_shard` removes the shard from the ring
  (new sessions re-hash), answers the shard's remaining sessions with
  typed :class:`ShardDrainingError` frames (their clients resume onto
  surviving shards via the checkpoint path), and SIGTERMs the worker
  once it empties.
* **Supervision** — a crashed worker is restarted under the same
  shard name (same ring points); sessions orphaned by the crash draw
  typed :class:`WorkerCrashedError` frames, which the resilient
  client treats as a reconnect-and-resume signal.
* **Exact telemetry** — every shard answers the
  ``telemetry_snapshot`` frame with its process registry in PR-3
  merge form; the fleet's own ``telemetry_snapshot`` reply carries
  the per-shard parts *and* their fold, so fleet-level aggregates are
  provably the sum of the per-shard registries.

Session ids are namespaced ``<shard>:<worker sid>`` toward the client
(worker counters are per-process, so raw ids could collide across
shards); the frontend translates the ``session`` field both ways.
Bulk payloads — packed sample/column arrays — are opaque JSON strings
to the relay, so the served-vs-offline bit-exactness contract holds
through the extra hop.
"""

from __future__ import annotations

import asyncio
import dataclasses
import itertools
import time
from dataclasses import dataclass, field
from typing import Any

from repro.errors import (
    ProtocolError,
    ReproError,
    ServeOverloadError,
    ServeTimeoutError,
    SessionLimitError,
    ShardDrainingError,
    WorkerCrashedError,
)
from repro.fleet.ring import DEFAULT_REPLICAS, HashRing
from repro.fleet.worker import WorkerHandle, WorkerSpec
from repro.serve import protocol
from repro.serve.client import AsyncServeClient
from repro.serve.server import ServeConfig
from repro.telemetry.context import get_telemetry
from repro.telemetry.metrics import MetricsRegistry

__all__ = ["FleetConfig", "FleetServer", "FleetStats", "merge_snapshots"]


@dataclass(frozen=True)
class FleetConfig:
    """Deployment knobs of the routing frontend.

    Attributes:
        workers: shard count; shard names are ``w0..w{N-1}`` and stay
            stable across restarts (the ring hashes names, not pids).
        serve: the per-worker :class:`ServeConfig` template.  The
            frontend forces ``port=0`` (ephemeral loopback) and
            ``idle_timeout_s=None`` on workers — pooled frontend↔worker
            connections sit idle legitimately, and the client-facing
            idle deadline lives here (``client_idle_timeout_s``).
        record_dir: shared capture store all shards record into (the
            store's advisory locking keeps concurrent writers safe).
        telemetry_dir: when set, each worker runs an enabled telemetry
            session in ``<dir>/shard-<name>`` and the frontend merges
            every shard's final snapshot into its own registry at
            shutdown — ``repro telemetry-report <dir>`` then reports
            exact fleet totals.
    """

    host: str = "127.0.0.1"
    port: int = 0
    workers: int = 2
    serve: ServeConfig = field(default_factory=ServeConfig)
    replicas: int = DEFAULT_REPLICAS
    supervisor_interval_s: float = 0.25
    drain_timeout_s: float = 15.0
    client_idle_timeout_s: float | None = 30.0
    write_timeout_s: float | None = 10.0
    backend_timeout_s: float = 30.0
    record_dir: str | None = None
    telemetry_dir: str | None = None
    dsp_backend: str | None = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("a fleet needs at least one worker")
        if self.supervisor_interval_s <= 0:
            raise ValueError("supervisor_interval_s must be positive")


@dataclass
class FleetStats:
    """Always-on routing-layer accounting."""

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
    backend_sid: str
    routing_key: str


class _ShardState:
    """The frontend's book-keeping for one shard."""

    def __init__(self, spec: WorkerSpec, handle: WorkerHandle):
        self.spec = spec
        self.handle = handle
        self.generation = 0
        self.draining = False
        self.stopped = False
        self.restarts = 0
        #: Latest supervisor-fetched ``server_stats`` reply.
        self.stats_cache: dict[str, Any] = {}
        #: Latest telemetry snapshot of the *current* incarnation.
        self.metrics_cache: dict[str, Any] = {}
        #: Final snapshots of retired incarnations (drained or crashed)
        #: — their served work must not vanish from fleet totals.
        self.retired_metrics: list[dict[str, Any]] = []

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def routable(self) -> bool:
        return not self.draining and not self.stopped and self.handle.alive

    def merged_metrics(self) -> dict[str, Any]:
        """This shard's exact totals across all its incarnations."""
        return merge_snapshots([*self.retired_metrics, self.metrics_cache])

    def snapshot(self) -> dict[str, Any]:
        stats = self.stats_cache
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
            "active_sessions": stats.get("active_sessions", 0),
            "queue_depth": stats.get("queue_depth", 0),
            "columns_served": stats.get("server", {}).get("columns_served", 0),
            "requests": stats.get("server", {}).get("requests", 0),
            "dsp_backend": stats.get("dsp_backend"),
        }


def merge_snapshots(parts: list[dict[str, Any]]) -> dict[str, Any]:
    """Fold metric snapshots with PR-3 exact merge semantics."""
    registry = MetricsRegistry()
    for part in parts:
        if part:
            registry.merge(part)
    return registry.snapshot()


def _aggregate(parts: list[dict[str, Any]]) -> dict[str, Any]:
    """Sum per-shard stats dicts into one fleet view.

    Integer counters add exactly; float readouts (latency percentiles,
    batch occupancy) take the worst shard; strings stay when uniform
    and degrade to ``"mixed"`` when shards disagree.
    """
    out: dict[str, Any] = {}
    for part in parts:
        for key, value in part.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                if key not in out:
                    out[key] = value
                elif out[key] != value:
                    out[key] = "mixed"
            elif isinstance(value, float):
                out[key] = max(float(out.get(key, 0.0)), value)
            else:
                out[key] = int(out.get(key, 0)) + value
    return out


class FleetServer:
    """Route many client sessions across N shard worker processes."""

    def __init__(self, config: FleetConfig | None = None, hub: Any = None):
        self.config = config if config is not None else FleetConfig()
        self.hub = hub
        self.stats = FleetStats()
        self._shards: dict[str, _ShardState] = {}
        self._ring = HashRing(replicas=self.config.replicas)
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
            self.config.serve,
            host="127.0.0.1",
            port=0,
            idle_timeout_s=None,
            record_dir=self.config.record_dir,
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
            host=self.config.host,
            port=self.config.port,
            limit=self.config.serve.max_frame_bytes,
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
        for task in list(self._drainers):
            task.cancel()
            try:
                await task
            except asyncio.CancelledError:
                pass
        for writer in list(self._connections):
            writer.close()
        self._connections.clear()
        # Final exact snapshots before the workers go away; with the
        # frontend's own telemetry enabled, fold the fleet totals in so
        # `telemetry-report` over this run reports the sum of shards.
        for state in self._shards.values():
            if state.handle.alive:
                await self._refresh_shard(state)
        telemetry = get_telemetry()
        if telemetry.enabled:
            for state in self._shards.values():
                merged = state.merged_metrics()
                if merged:
                    telemetry.metrics.merge(merged)
        for state in self._shards.values():
            await state.handle.stop()
            state.stopped = True

    # ------------------------------------------------------------------
    # Supervision, drain, restart
    # ------------------------------------------------------------------

    async def _fetch(self, state: _ShardState, what: str) -> dict[str, Any] | None:
        """One stats/telemetry probe of a shard (fresh connection)."""
        probe = AsyncServeClient("127.0.0.1", state.handle.port)
        try:
            await asyncio.wait_for(
                probe.connect(), timeout=self.config.backend_timeout_s
            )
            if what == "stats":
                reply = await asyncio.wait_for(
                    probe.server_stats(), timeout=self.config.backend_timeout_s
                )
            else:
                reply = await asyncio.wait_for(
                    probe.telemetry_snapshot(),
                    timeout=self.config.backend_timeout_s,
                )
            return reply
        except (
            ConnectionError,
            OSError,
            asyncio.TimeoutError,
            asyncio.IncompleteReadError,
            ReproError,
        ):
            return None
        finally:
            await probe.aclose()

    async def _refresh_shard(self, state: _ShardState) -> None:
        stats = await self._fetch(state, "stats")
        if stats is not None:
            state.stats_cache = stats
        snapshot = await self._fetch(state, "telemetry")
        if snapshot is not None:
            state.metrics_cache = snapshot.get("metrics", {})

    async def _supervise(self) -> None:
        """Restart crashed shards; keep per-shard caches fresh."""
        # Shutdown cancels this task, but on Python 3.11 a cancel that
        # lands as a probe's ``wait_for`` completes is swallowed; the
        # stop flag still ends the loop, so shutdown never waits forever.
        while not self._stopped.is_set():
            await asyncio.sleep(self.config.supervisor_interval_s)
            for state in list(self._shards.values()):
                if state.stopped or state.draining:
                    continue
                if not state.handle.alive:
                    await self._restart_shard(state)
                    continue
                await self._refresh_shard(state)
            if self.hub is not None:
                self.hub.publish("fleet.shards", shards=self.shard_snapshots())

    async def _restart_shard(self, state: _ShardState) -> None:
        """Bring a crashed shard back under the same name/ring points."""
        self.stats.worker_crashes += 1
        self._ring.remove(state.name)
        # The dead incarnation's last known snapshot is the best record
        # of its served work; keep it in the shard's running total.
        if state.metrics_cache:
            state.retired_metrics.append(state.metrics_cache)
            state.metrics_cache = {}
        state.generation += 1
        state.stats_cache = {}
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
        while time.monotonic() < deadline:
            stats = await self._fetch(state, "stats")
            if stats is not None:
                state.stats_cache = stats
                if stats.get("active_sessions", 1) == 0:
                    break
            if not state.handle.alive:
                break
            await asyncio.sleep(0.05)
        snapshot = await self._fetch(state, "telemetry")
        if snapshot is not None:
            state.metrics_cache = snapshot.get("metrics", {})
        if state.metrics_cache:
            state.retired_metrics.append(state.metrics_cache)
            state.metrics_cache = {}
        await state.handle.stop()
        state.stopped = True
        state.stats_cache = {}

    # ------------------------------------------------------------------
    # Observability views
    # ------------------------------------------------------------------

    def shard_snapshots(self) -> list[dict[str, Any]]:
        """Every shard's routing-layer view (the ``/api/shards`` feed)."""
        return [
            self._shards[name].snapshot() for name in sorted(self._shards)
        ]

    def metric_snapshots(self) -> dict[str, dict[str, Any]]:
        """Cached per-shard metric snapshots (exact merge form)."""
        return {
            name: state.merged_metrics()
            for name, state in sorted(self._shards.items())
        }

    def _stats_reply(self) -> dict[str, Any]:
        shards = [state.stats_cache for state in self._shards.values()]
        merged = _aggregate([snap for snap in shards if snap])
        server = _aggregate(
            [snap.get("server", {}) for snap in shards if snap]
        )
        scheduler = _aggregate(
            [snap.get("scheduler", {}) for snap in shards if snap]
        )
        return {
            "type": protocol.SERVER_STATS_REPLY,
            "active_sessions": merged.get("active_sessions", 0),
            "queue_depth": merged.get("queue_depth", 0),
            "dsp_backend": merged.get("dsp_backend", "unknown"),
            "server": server,
            "scheduler": scheduler,
            "fleet": self.stats.snapshot(),
            "shards": self.shard_snapshots(),
        }

    async def _telemetry_reply(self) -> dict[str, Any]:
        """Per-shard exact snapshots and their fold, self-certifying."""
        for state in self._shards.values():
            if state.handle.alive and not state.stopped:
                snapshot = await self._fetch(state, "telemetry")
                if snapshot is not None:
                    state.metrics_cache = snapshot.get("metrics", {})
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
        """The routable shard owning ``routing_key``, admission-checked."""
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
            fallback = HashRing(routable, replicas=self.config.replicas)
            state = self._shards[fallback.lookup(routing_key)]
        limit = state.spec.serve.max_sessions
        if state.stats_cache.get("active_sessions", 0) >= limit:
            self.stats.shed_sessions += 1
            raise SessionLimitError(
                f"shard {state.name} is at its limit of {limit} sessions"
            )
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

    async def _read_client(self) -> bytes:
        if self.fleet.config.client_idle_timeout_s is None:
            return await self.reader.readline()
        return await asyncio.wait_for(
            self.reader.readline(),
            timeout=self.fleet.config.client_idle_timeout_s,
        )

    async def _send_client(self, frame: dict[str, Any]) -> bool:
        return await self._send_client_raw(protocol.encode_frame(frame))

    async def _send_client_raw(self, data: bytes) -> bool:
        try:
            self.writer.write(data)
            if self.fleet.config.write_timeout_s is None:
                await self.writer.drain()
            else:
                await asyncio.wait_for(
                    self.writer.drain(), timeout=self.fleet.config.write_timeout_s
                )
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
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(
                "127.0.0.1",
                state.handle.port,
                limit=self.fleet.config.serve.max_frame_bytes,
            ),
            timeout=self.fleet.config.backend_timeout_s,
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

    async def _exchange(
        self, state: _ShardState, frame: dict[str, Any]
    ) -> bytes:
        """One request/reply round trip with the shard, raw reply bytes.

        Raises:
            WorkerCrashedError: the backend connection broke mid-cycle.
        """
        key = (state.name, state.generation)
        try:
            reader, writer = await self._backend(state)
            writer.write(protocol.encode_frame(frame))
            await writer.drain()
            line = await asyncio.wait_for(
                reader.readline(), timeout=self.fleet.config.backend_timeout_s
            )
        except (ConnectionError, OSError, asyncio.TimeoutError) as exc:
            self._drop_backend(key)
            raise WorkerCrashedError(
                f"shard {state.name} did not answer: {type(exc).__name__}"
            ) from None
        if not line:
            self._drop_backend(key)
            raise WorkerCrashedError(
                f"shard {state.name} closed the connection mid-request"
            )
        return line

    # -- the loop ------------------------------------------------------

    async def run(self) -> None:
        fleet = self.fleet
        while True:
            try:
                line = await self._read_client()
            except asyncio.TimeoutError:
                fleet.stats.relay_errors += 1
                await self._send_client(
                    protocol.error_frame(
                        ServeTimeoutError(
                            "no complete frame within the "
                            f"{fleet.config.client_idle_timeout_s}s idle deadline"
                        )
                    )
                )
                return
            except (asyncio.LimitOverrunError, ValueError):
                fleet.stats.relay_errors += 1
                await self._send_client(
                    protocol.error_frame(
                        ProtocolError("frame exceeds the size limit")
                    )
                )
                return
            except (ConnectionError, OSError):
                return
            if not line:
                return
            if line.strip() == b"":
                continue
            try:
                frame = protocol.decode_frame(
                    line, fleet.config.serve.max_frame_bytes
                )
            except ProtocolError as exc:
                fleet.stats.relay_errors += 1
                if not await self._send_client(protocol.error_frame(exc)):
                    return
                continue
            fleet.stats.requests_relayed += 1
            if not await self._handle_frame(frame):
                return

    async def _handle_frame(self, frame: dict[str, Any]) -> bool:
        """Answer one client frame; ``False`` ends the connection."""
        fleet = self.fleet
        kind = frame.get("type")
        session_id = frame.get("session")
        seq = frame.get("seq")
        try:
            if kind == protocol.PING:
                return await self._send_client({"type": protocol.PONG})
            if kind == protocol.SERVER_STATS:
                for state in fleet._shards.values():
                    if state.handle.alive and not state.stopped:
                        stats = await fleet._fetch(state, "stats")
                        if stats is not None:
                            state.stats_cache = stats
                return await self._send_client(fleet._stats_reply())
            if kind == protocol.TELEMETRY_SNAPSHOT:
                return await self._send_client(await fleet._telemetry_reply())
            if kind == protocol.OPEN_SESSION:
                return await self._open_session(frame)
            if kind in (protocol.PUSH_BLOCKS, protocol.CLOSE_SESSION):
                return await self._relay_session_frame(frame)
            raise ProtocolError(f"unknown frame type {kind!r}")
        except ReproError as exc:
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

    async def _open_session(self, frame: dict[str, Any]) -> bool:
        fleet = self.fleet
        if fleet.draining:
            raise ServeOverloadError("fleet is shutting down")
        routing_key = frame.get("routing_key")
        if routing_key is not None and not isinstance(routing_key, str):
            raise ProtocolError("routing_key must be a string")
        if routing_key is None:
            routing_key = f"rk-{next(fleet._key_counter)}"
        state = fleet._route_key(routing_key)
        forward = dict(frame)
        forward.pop("routing_key", None)
        line = await self._exchange(state, forward)
        reply = protocol.decode_frame(line)
        if reply.get("type") != protocol.SESSION_OPENED:
            # Typed worker rejection (session limit, bad resume, ...):
            # relay the exact error frame.
            return await self._send_client_raw(line)
        backend_sid = str(reply.get("session"))
        fleet_sid = f"{state.name}:{backend_sid}"
        self.routes[fleet_sid] = _SessionRoute(
            shard=state.name,
            generation=state.generation,
            backend_sid=backend_sid,
            routing_key=routing_key,
        )
        fleet.stats.sessions_routed += 1
        if reply.get("resumed"):
            fleet.stats.sessions_resumed += 1
        reply["session"] = fleet_sid
        reply["routing_key"] = routing_key
        reply["shard"] = state.name
        return await self._send_client(reply)

    async def _relay_session_frame(self, frame: dict[str, Any]) -> bool:
        fleet = self.fleet
        session_id = protocol.require_field(frame, "session")
        seq = frame.get("seq")
        route = self.routes.get(session_id)
        if route is None:
            raise ProtocolError(
                f"no session {session_id!r} is open on this connection"
            )
        state = fleet._shards.get(route.shard)
        if state is None or state.generation != route.generation:
            # The owning incarnation is gone: this session is orphaned.
            self.routes.pop(session_id, None)
            fleet.stats.crash_notices += 1
            raise WorkerCrashedError(
                f"shard {route.shard} crashed; resume to migrate "
                f"session {session_id}"
            )
        if state.draining or state.stopped:
            self.routes.pop(session_id, None)
            fleet.stats.drain_notices += 1
            raise ShardDrainingError(
                f"shard {route.shard} is draining; resume to migrate "
                f"session {session_id}"
            )
        forward = dict(frame)
        forward["session"] = route.backend_sid
        try:
            line = await self._exchange(state, forward)
        except WorkerCrashedError:
            self.routes.pop(session_id, None)
            fleet.stats.crash_notices += 1
            raise
        if frame.get("type") == protocol.CLOSE_SESSION:
            self.routes.pop(session_id, None)
        # Replies carry the worker's own session id; translate it back
        # before relaying.  Packed arrays are opaque strings to this
        # round trip, so column payloads stay byte-identical.
        reply = protocol.decode_frame(line)
        if "session" in reply:
            reply["session"] = session_id
        return await self._send_client(reply)
