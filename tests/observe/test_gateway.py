"""The observe gateway's HTTP routes and ``/ws/live`` stream."""

import asyncio
import json
from contextlib import asynccontextmanager

import numpy as np

from repro.observe import (
    ObserveConfig,
    ObserveGateway,
    TelemetryHub,
    load_telemetry_replay,
)
from repro.observe.wsclient import AsyncWebSocketClient
from repro.serve import AsyncServeClient, SensingServer, ServeConfig
from repro.telemetry import Telemetry

from tests.helpers import FAST


async def http_get(port: int, path: str) -> tuple[int, dict[str, str], bytes]:
    """One raw GET against localhost; returns (status, headers, body)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(
        f"GET {path} HTTP/1.1\r\nHost: localhost\r\n\r\n".encode("ascii")
    )
    await writer.drain()
    status_line = await reader.readline()
    status = int(status_line.split()[1])
    headers: dict[str, str] = {}
    while True:
        line = await reader.readline()
        stripped = line.strip()
        if not stripped:
            break
        name, _, value = stripped.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    body = await reader.read()
    writer.close()
    await writer.wait_closed()
    return status, headers, body


async def http_get_json(port: int, path: str):
    status, _, body = await http_get(port, path)
    return status, json.loads(body)


@asynccontextmanager
async def running_gateway(server=None, replay=None, **config_kwargs):
    hub = TelemetryHub()
    config = ObserveConfig(port=0, **config_kwargs)
    gateway = ObserveGateway(hub, server=server, replay=replay, config=config)
    await gateway.start()
    try:
        yield gateway
    finally:
        await gateway.shutdown()


@asynccontextmanager
async def running_stack(serve_config=None, **config_kwargs):
    """A live server with an attached gateway sharing one hub."""
    hub = TelemetryHub()
    server = SensingServer(serve_config or ServeConfig(), hub=hub)
    await server.start()
    gateway = ObserveGateway(
        hub, server=server, config=ObserveConfig(port=0, **config_kwargs)
    )
    await gateway.start()
    try:
        yield server, gateway
    finally:
        await gateway.shutdown()
        await server.shutdown()


def _noise(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


class TestRoutes:
    def test_dashboard_and_health_endpoints(self):
        async def run():
            async with running_gateway() as gateway:
                status, headers, body = await http_get(gateway.port, "/")
                assert status == 200
                assert "text/html" in headers["content-type"]
                assert b"/ws/live" in body  # the dashboard connects itself
                status, payload = await http_get_json(gateway.port, "/healthz")
                assert status == 200
                assert payload["status"] == "ok"
                assert payload["mode"] == "hub"
                assert payload["dsp_backend"] == "numpy-float64"
                status, payload = await http_get_json(gateway.port, "/readyz")
                assert status == 200
                assert payload["ready"] is True

        asyncio.run(run())

    def test_unknown_route_404_and_post_405(self):
        async def run():
            async with running_gateway() as gateway:
                status, payload = await http_get_json(gateway.port, "/nope")
                assert status == 404
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", gateway.port
                )
                writer.write(b"POST /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
                await writer.drain()
                status_line = await reader.readline()
                assert b"405" in status_line
                writer.close()
                await writer.wait_closed()

        asyncio.run(run())

    def test_malformed_request_answers_400(self):
        async def run():
            async with running_gateway() as gateway:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", gateway.port
                )
                writer.write(b"NONSENSE\r\n\r\n")
                await writer.drain()
                status_line = await reader.readline()
                assert b"400" in status_line
                writer.close()
                await writer.wait_closed()
                assert gateway.http_errors == 1

        asyncio.run(run())

    def test_ws_path_without_upgrade_answers_426(self):
        async def run():
            async with running_gateway() as gateway:
                status, _, _ = await http_get(gateway.port, "/ws/live")
                assert status == 426

        asyncio.run(run())

    def test_captures_empty_without_store(self):
        async def run():
            async with running_gateway() as gateway:
                status, payload = await http_get_json(gateway.port, "/api/captures")
                assert status == 200
                assert payload == {"captures": [], "total_bytes": 0}

        asyncio.run(run())


class TestLiveServer:
    def test_sessions_api_reflects_live_sessions(self, rng):
        async def run():
            async with running_stack() as (server, gateway):
                client = AsyncServeClient("127.0.0.1", server.port)
                await client.connect()
                session = await client.open_session(config=FAST)
                await client.push(_noise(rng, 200))
                status, payload = await http_get_json(gateway.port, "/api/sessions")
                assert status == 200
                (snap,) = payload["sessions"]
                assert snap["session"] == session
                assert snap["health"] == "healthy"
                assert snap["columns_out"] == 9
                assert snap["samples_in"] == 200
                assert snap["dsp_backend"] == "numpy-float64"
                status, detail = await http_get_json(
                    gateway.port, f"/api/sessions/{session}"
                )
                assert status == 200
                assert detail == snap
                status, _ = await http_get_json(gateway.port, "/api/sessions/zzz")
                assert status == 404
                await client.aclose()

        asyncio.run(run())

    def test_readyz_degrades_to_503_when_draining(self):
        async def run():
            async with running_stack() as (server, gateway):
                status, _ = await http_get_json(gateway.port, "/readyz")
                assert status == 200
                await server.shutdown()
                status, payload = await http_get_json(gateway.port, "/readyz")
                assert status == 503
                assert payload == {"ready": False, "reason": "draining"}

        asyncio.run(run())

    def test_ws_live_streams_session_lifecycle(self, rng):
        async def run():
            async with running_stack(interval_s=10.0) as (server, gateway):
                ws = AsyncWebSocketClient("127.0.0.1", gateway.port)
                await ws.connect()
                hello = await ws.recv(timeout=5.0)
                assert hello["kind"] == "hello"
                assert hello["mode"] == "serve"
                assert hello["dsp_backend"] == "numpy-float64"

                client = AsyncServeClient("127.0.0.1", server.port)
                await client.connect()
                session = await client.open_session(config=FAST)
                opened = await ws.recv(timeout=5.0)
                assert opened["kind"] == "session.opened"
                assert opened["session"] == session
                reply = await client.push(_noise(rng, 200))
                assert len(reply.columns) == 9
                columns = await ws.recv(timeout=5.0)
                assert columns["kind"] == "columns"
                assert columns["session"] == session
                assert len(columns["columns"]) == 9
                await client.close_session()
                while True:
                    event = await ws.recv(timeout=5.0)
                    if event["kind"] == "session.closed":
                        break
                assert event["session"] == session
                assert event["columns_out"] == 9
                await ws.close()
                await client.aclose()

        asyncio.run(run())


class TestReplayMode:
    def _recorded_run(self, tmp_path):
        telemetry = Telemetry(enabled=True, out_dir=tmp_path)
        telemetry.events.emit(
            "health.transition", session="s1", source="healthy", target="degraded",
            reason="nan burst",
        )
        telemetry.events.emit(
            "stream.detection", session="s1", time_s=2.0, angle_deg=30.0,
            strength_db=6.0,
        )
        telemetry.metrics.counter("music.windows").inc(7)
        telemetry.flush()
        return load_telemetry_replay(tmp_path)

    def test_replay_routes_and_stream(self, tmp_path):
        async def run():
            replay = self._recorded_run(tmp_path)
            async with running_gateway(replay=replay, replay_rate=0.0) as gateway:
                status, payload = await http_get_json(gateway.port, "/healthz")
                assert payload["mode"] == "replay"
                status, payload = await http_get_json(gateway.port, "/api/sessions")
                (summary,) = payload["sessions"]
                assert summary["session"] == "s1"
                assert summary["health"] == "degraded"
                assert summary["detections"] == 1
                status, _, body = await http_get(gateway.port, "/metrics")
                assert b"repro_music_windows 7" in body

                ws = AsyncWebSocketClient("127.0.0.1", gateway.port)
                await ws.connect()
                kinds = []
                while True:
                    event = await ws.recv(timeout=5.0)
                    if event is None:
                        break
                    kinds.append(event["kind"])
                assert kinds[0] == "hello"
                assert "health" in kinds  # normalized from health.transition
                assert "detection" in kinds
                assert kinds[-1] == "replay.end"
                await ws.close()

        asyncio.run(run())

    def test_rejects_server_and_replay_together(self, tmp_path):
        replay = self._recorded_run(tmp_path)
        try:
            ObserveGateway(TelemetryHub(), server=object(), replay=replay)
        except ValueError as exc:
            assert "attach one of" in str(exc)
        else:  # pragma: no cover
            raise AssertionError("expected ValueError")

    def test_rejects_server_and_fleet_together(self):
        try:
            ObserveGateway(TelemetryHub(), server=object(), fleet=object())
        except ValueError as exc:
            assert "attach one of" in str(exc)
        else:  # pragma: no cover
            raise AssertionError("expected ValueError")
