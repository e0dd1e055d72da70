"""The operator gateway: HTTP routes + ``/ws/live`` over a TelemetryHub.

One asyncio listener serves two kinds of consumers:

* **Scrapers** — ``/healthz``, ``/readyz`` (drain-aware: 503 once the
  attached server began shutting down), ``/metrics`` in Prometheus text
  exposition (the process-global telemetry registry, the server's
  always-on counters from ``SensingServer.metrics_snapshot()``, and
  the hub's own accounting),
  ``/api/sessions[/{id}]``, and ``/api/captures``.
* **Live subscribers** — ``/ws/live`` upgrades to a WebSocket fed by a
  hub :class:`~repro.observe.hub.Subscription`: spectrogram columns
  (packed base64, byte-identical to the serving wire format), health
  transitions, detections, shed/watchdog/disconnect events, periodic
  ``server.stats`` and ``metrics.delta`` frames.  A consumer that
  cannot keep up is shed by the hub and its transport aborted — the
  abort is what frees a sender parked in ``drain()`` against a stalled
  peer, so slow dashboards cost the serve path nothing.

The same gateway also fronts a recorded run (``repro observe
--telemetry DIR``): a :class:`~repro.observe.replay.TelemetryReplay`
takes the server's place and ``/ws/live`` streams the recorded events.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass
from typing import Any

from repro.dsp.backend import active_backend_name
from repro.errors import ProtocolError
from repro.observe.dashboard import DASHBOARD_HTML
from repro.observe.http import (
    MAX_WS_FRAME_BYTES,
    WS_CLOSE,
    WS_PING,
    WS_PONG,
    encode_ws_frame,
    http_response,
    json_response,
    read_request,
    read_ws_frame,
    websocket_handshake_response,
)
from repro.observe.hub import Subscription, TelemetryHub
from repro.observe.prometheus import render_prometheus
from repro.telemetry.context import get_telemetry


@dataclass(frozen=True)
class ObserveConfig:
    """Deployment knobs of the observe gateway.

    Attributes:
        interval_s: period of the gateway's one housekeeping task —
            each beat publishes a ``metrics.delta`` (when the registry
            changed) and, with a server attached and subscribers
            present, a ``server.stats`` event.
        replay_rate: recorded events streamed per second in replay
            mode; ``0`` streams the whole log unpaced.

    A subscriber's queue bound and shed budget are the hub's
    :data:`~repro.observe.hub.MAX_QUEUE` and
    :data:`~repro.observe.hub.SHED_AFTER_DROPS`; an inbound frame
    (HTTP request line or WebSocket frame) may not exceed
    :data:`~repro.observe.http.MAX_WS_FRAME_BYTES`.
    """

    host: str = "127.0.0.1"
    port: int = 0
    interval_s: float = 0.5
    replay_rate: float = 500.0

    def __post_init__(self) -> None:
        if self.interval_s <= 0:
            raise ValueError("interval_s must be positive")
        if self.replay_rate < 0:
            raise ValueError("replay_rate cannot be negative")


def _fleet_metric_snapshots(fleet: Any) -> dict[str, dict[str, Any]]:
    """Fleet-level snapshots: merged shard metrics + labeled families.

    The merged section is the fleet's ``metrics_snapshot()``, the exact
    fold of every shard incarnation, so the fleet's ``server.*`` and
    ``scheduler.*`` counters and histograms are the sum over shards,
    telemetry on or off.  It holds no gauges; the
    ``repro_fleet_shard_*`` families carry each shard's own levels,
    one labeled sample per shard.
    """
    snaps = fleet.metrics_snapshot()
    for name, value in fleet.stats.snapshot().items():
        snaps[f"fleet.{name}"] = {"type": "counter", "value": float(value)}
    shards = fleet.shard_snapshots()
    gauges = {
        "fleet.shard_up": lambda s: 1.0 if s["state"] == "up" else 0.0,
        "fleet.shard_active_sessions": lambda s: float(s["active_sessions"]),
        "fleet.shard_queue_depth": lambda s: float(s["queue_depth"]),
        "fleet.shard_restarts": lambda s: float(s["restarts"]),
    }
    for name, value_of in gauges.items():
        snaps[name] = {
            "type": "gauge",
            "samples": [
                {"labels": {"shard": shard["shard"]}, "value": value_of(shard)}
                for shard in shards
            ],
        }
    # The same per-shard totals the fold sums, so the two always agree.
    snaps["fleet.shard_columns_served"] = {
        "type": "counter",
        "samples": [
            {
                "labels": {"shard": name},
                "value": snap.get("server.columns_served", {}).get("value", 0.0),
            }
            for name, snap in fleet.metric_snapshots().items()
        ],
    }
    return snaps


class ObserveGateway:
    """Serve the operator surface for a live server or a recorded run."""

    def __init__(
        self,
        hub: TelemetryHub,
        server: Any = None,
        capture_store: Any = None,
        replay: Any = None,
        config: ObserveConfig | None = None,
        fleet: Any = None,
    ):
        if sum(x is not None for x in (server, replay, fleet)) > 1:
            raise ValueError("attach one of: a live server, a fleet, a replay")
        self.hub = hub
        self.server = server
        #: Optional :class:`repro.fleet.frontend.FleetServer` — adds
        #: ``/api/shards``, per-shard labeled gauges, the merged fleet
        #: telemetry section, and drain-aware ``/readyz``.  Routes read
        #: only supervisor-refreshed caches (``_route`` is synchronous).
        self.fleet = fleet
        self.capture_store = capture_store
        self.replay = replay
        self.config = config if config is not None else ObserveConfig()
        #: Gateway-level accounting, exported under ``repro_observe_*``.
        self.http_requests = 0
        self.http_errors = 0
        self.ws_connections = 0
        self._listener: asyncio.AbstractServer | None = None
        self._periodic_task: asyncio.Task | None = None
        self._ws_writers: set[asyncio.StreamWriter] = set()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def port(self) -> int:
        if self._listener is None or not self._listener.sockets:
            raise RuntimeError("gateway is not started")
        return self._listener.sockets[0].getsockname()[1]

    @property
    def mode(self) -> str:
        if self.server is not None:
            return "serve"
        if self.fleet is not None:
            return "fleet"
        if self.replay is not None:
            return "replay"
        return "hub"

    async def start(self) -> int:
        if self._listener is not None:
            raise RuntimeError("gateway is already started")
        self._listener = await asyncio.start_server(
            self._handle_connection,
            host=self.config.host,
            port=self.config.port,
            limit=MAX_WS_FRAME_BYTES,
        )
        self._periodic_task = asyncio.create_task(
            self._periodic_loop(), name="observe-periodic"
        )
        return self.port

    async def shutdown(self) -> None:
        if self._listener is not None:
            self._listener.close()
            await self._listener.wait_closed()
            self._listener = None
        if self._periodic_task is not None:
            self._periodic_task.cancel()
            try:
                await self._periodic_task
            except asyncio.CancelledError:
                pass
            self._periodic_task = None
        for writer in list(self._ws_writers):
            writer.close()
        self._ws_writers.clear()

    async def _periodic_loop(self) -> None:
        while True:
            await asyncio.sleep(self.config.interval_s)
            self.hub.metrics_delta()
            service = self.server if self.server is not None else self.fleet
            if service is not None and self.hub.has_subscribers:
                reply = service._stats_reply()
                keys = ("active_sessions", "queue_depth", "server", "scheduler", "fleet")
                self.hub.publish(
                    "server.stats",
                    draining=service.draining,
                    hub=self.hub.stats.snapshot(),
                    **{key: reply[key] for key in keys if key in reply},
                )

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                request = await read_request(reader)
            except (ProtocolError, asyncio.IncompleteReadError):
                self.http_errors += 1
                writer.write(http_response(400, json.dumps({"error": "bad request"})))
                await writer.drain()
                return
            if request is None:
                return
            self.http_requests += 1
            if request.path == "/ws/live":
                await self._ws_live(request, reader, writer)
                return
            try:
                response = self._route(request)
            except Exception as exc:  # noqa: BLE001 - a route bug must answer 500
                self.http_errors += 1
                response = json_response(500, {"error": f"internal error: {exc}"})
            writer.write(response)
            await writer.drain()
        except (ConnectionError, OSError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover - teardown races
                pass

    # ------------------------------------------------------------------
    # HTTP routes
    # ------------------------------------------------------------------

    def _route(self, request: Any) -> bytes:
        if request.method != "GET":
            return json_response(405, {"error": f"method {request.method} not allowed"})
        path = request.path
        if path == "/":
            return http_response(200, DASHBOARD_HTML, content_type="text/html")
        if path == "/healthz":
            return self._healthz()
        if path == "/readyz":
            return self._readyz()
        if path == "/metrics":
            return http_response(
                200, self.render_metrics(), content_type="text/plain; version=0.0.4"
            )
        if path == "/api/shards":
            return self._shards()
        if path == "/api/sessions":
            return json_response(200, {"sessions": self._session_list()})
        if path.startswith("/api/sessions/"):
            return self._session_detail(path[len("/api/sessions/") :])
        if path == "/api/captures":
            return self._captures()
        return json_response(404, {"error": f"no route for {path}"})

    def _healthz(self) -> bytes:
        return json_response(
            200,
            {
                "status": "ok",
                "mode": self.mode,
                "subscribers": self.hub.subscriber_count,
                "dsp_backend": active_backend_name(),
            },
        )

    def _readyz(self) -> bytes:
        if self.server is not None and self.server.draining:
            return json_response(503, {"ready": False, "reason": "draining"})
        if self.fleet is not None:
            if self.fleet.draining:
                return json_response(503, {"ready": False, "reason": "draining"})
            shards = self.fleet.shard_snapshots()
            routable = [s for s in shards if s["state"] == "up"]
            if not routable:
                return json_response(
                    503, {"ready": False, "reason": "no routable shards"}
                )
            return json_response(
                200,
                {
                    "ready": True,
                    "mode": self.mode,
                    "shards_up": len(routable),
                    "shards_total": len(shards),
                    "active_sessions": sum(
                        s["active_sessions"] for s in shards
                    ),
                },
            )
        body: dict[str, Any] = {"ready": True, "mode": self.mode}
        if self.server is not None:
            body["active_sessions"] = len(self.server.sessions)
            body["queue_depth"] = self.server.scheduler.queue_depth
        return json_response(200, body)

    def _shards(self) -> bytes:
        """Per-shard load views (the fleet operator's headroom page)."""
        if self.fleet is None:
            return json_response(200, {"shards": [], "fleet": None})
        return json_response(
            200,
            {
                "shards": self.fleet.shard_snapshots(),
                "fleet": self.fleet.stats.snapshot(),
            },
        )

    def render_metrics(self) -> str:
        """The full ``/metrics`` exposition text.

        The telemetry section renders the *live* process-global
        registry — the same object ``Telemetry.flush()`` snapshots
        into ``metrics.json`` — so gateway aggregates equal the
        offline ``telemetry-report`` aggregates by construction, and
        monotone instruments scrape monotone.  In replay mode the
        recorded ``metrics.json`` takes that section's place.  A live
        server adds its ``metrics_snapshot()``; a fleet adds its merged
        shard counters and per-shard families.
        """
        merged: dict[str, dict[str, Any]] = {}
        if self.replay is not None:
            merged.update(self.replay.metrics)
        else:
            merged.update(get_telemetry().metrics.snapshot())
        if self.server is not None:
            merged.update(self.server.metrics_snapshot())
        if self.fleet is not None:
            merged.update(_fleet_metric_snapshots(self.fleet))
        for name, value in self.hub.stats.snapshot().items():
            merged[f"observe.{name}"] = {"type": "counter", "value": float(value)}
        merged["observe.subscribers"] = {
            "type": "gauge",
            "value": float(self.hub.subscriber_count),
        }
        merged["observe.http_requests"] = {
            "type": "counter",
            "value": float(self.http_requests),
        }
        merged["observe.http_errors"] = {
            "type": "counter",
            "value": float(self.http_errors),
        }
        merged["observe.ws_connections"] = {
            "type": "counter",
            "value": float(self.ws_connections),
        }
        # Info-style sample: the value is always 1, the identity rides
        # the label — the Prometheus idiom for build/config facts.
        merged["dsp.backend_info"] = {
            "type": "gauge",
            "value": 1.0,
            "labels": {"backend": active_backend_name()},
        }
        return render_prometheus(merged)

    def _session_list(self) -> list[dict[str, Any]]:
        if self.server is not None:
            return self.server.session_snapshots()
        if self.replay is not None:
            return self.replay.session_summaries()
        return []

    def _session_detail(self, session_id: str) -> bytes:
        for snap in self._session_list():
            if snap.get("session") == session_id:
                return json_response(200, snap)
        return json_response(404, {"error": f"no session {session_id!r}"})

    def _captures(self) -> bytes:
        store = self.capture_store
        if store is None and self.server is not None:
            store = self.server.capture_store
        if store is None:
            return json_response(200, {"captures": [], "total_bytes": 0})
        captures = [
            {
                "capture_id": info.capture_id,
                "created_ts": info.created_ts,
                "num_bytes": info.num_bytes,
                "sealed": info.sealed,
                "source": info.source,
            }
            for info in store.list_captures()
        ]
        return json_response(
            200, {"captures": captures, "total_bytes": store.total_bytes()}
        )

    # ------------------------------------------------------------------
    # /ws/live
    # ------------------------------------------------------------------

    async def _ws_live(
        self,
        request: Any,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        if not request.wants_websocket:
            writer.write(
                http_response(426, json.dumps({"error": "upgrade to websocket"}))
            )
            await writer.drain()
            return
        writer.write(
            websocket_handshake_response(request.headers["sec-websocket-key"])
        )
        await writer.drain()
        self.ws_connections += 1
        self._ws_writers.add(writer)
        transport = writer.transport
        subscription = self.hub.subscribe(on_shed=transport.abort)
        closed = asyncio.Event()
        reader_task = asyncio.create_task(
            self._ws_reader(reader, writer, closed), name="observe-ws-reader"
        )
        try:
            await self._ws_send(
                writer,
                {
                    "kind": "hello",
                    "mode": self.mode,
                    "interval_s": self.config.interval_s,
                    "dsp_backend": active_backend_name(),
                },
            )
            if self.replay is not None:
                await self._ws_stream_replay(writer, closed)
            else:
                await self._ws_stream_live(subscription, writer, closed)
        except (ConnectionError, OSError, asyncio.IncompleteReadError):
            pass
        finally:
            subscription.close()
            reader_task.cancel()
            try:
                await reader_task
            except (asyncio.CancelledError, Exception):  # noqa: BLE001 - teardown
                pass
            self._ws_writers.discard(writer)

    async def _ws_send(self, writer: asyncio.StreamWriter, event: dict[str, Any]) -> None:
        writer.write(encode_ws_frame(json.dumps(event)))
        await writer.drain()

    async def _ws_stream_live(
        self,
        subscription: Subscription,
        writer: asyncio.StreamWriter,
        closed: asyncio.Event,
    ) -> None:
        closed_wait = asyncio.create_task(closed.wait())
        try:
            while not subscription.shed and not closed.is_set():
                get = asyncio.create_task(subscription.get())
                done, _ = await asyncio.wait(
                    {get, closed_wait}, return_when=asyncio.FIRST_COMPLETED
                )
                if get not in done:
                    get.cancel()
                    break
                await self._ws_send(writer, get.result())
        finally:
            closed_wait.cancel()

    async def _ws_stream_replay(
        self, writer: asyncio.StreamWriter, closed: asyncio.Event
    ) -> None:
        rate = self.config.replay_rate
        pace_every = 32
        for index, event in enumerate(self.replay.events):
            if closed.is_set():
                return
            await self._ws_send(writer, event)
            if rate > 0 and (index + 1) % pace_every == 0:
                await asyncio.sleep(pace_every / rate)
        await self._ws_send(
            writer, {"kind": "replay.end", "events": len(self.replay.events)}
        )
        writer.write(encode_ws_frame(b"", opcode=WS_CLOSE))
        await writer.drain()

    async def _ws_reader(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        closed: asyncio.Event,
    ) -> None:
        """Drain client frames: answer pings, notice the close."""
        try:
            while True:
                opcode, payload = await read_ws_frame(reader)
                if opcode == WS_CLOSE:
                    break
                if opcode == WS_PING:
                    writer.write(encode_ws_frame(payload, opcode=WS_PONG))
                    await writer.drain()
        except (
            ProtocolError,
            ConnectionError,
            OSError,
            asyncio.IncompleteReadError,
        ):
            pass
        finally:
            closed.set()
