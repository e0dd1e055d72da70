"""The acceptance smoke: end-to-end observability under live load.

Three properties the PR hangs on, each proven against a real server
with a real gateway on ephemeral ports:

* ``/ws/live`` delivers spectrogram columns **bit-exactly** — the
  packed payload a subscriber decodes equals the one the serving path
  returned (``np.array_equal``, not approx).
* Observation survives chaos: with the seeded chaos harness tearing
  connections mid-load, the gateway keeps streaming and the serve
  path's own bit-exactness gate stays green.
* A slow WebSocket consumer is shed by the hub without touching the
  serve path: every push keeps succeeding and a healthy subscriber
  keeps its feed.
"""

import asyncio
import socket

import numpy as np

from repro.observe import hub as hub_module
from repro.observe.wsclient import AsyncWebSocketClient, collect_live
from repro.serve import AsyncServeClient, run_load
from repro.serve.protocol import column_from_wire

from tests.observe.test_gateway import FAST, _noise, running_stack


class TestLiveColumnsBitExact:
    def test_ws_columns_equal_served_columns_across_sessions(self, rng):
        async def run():
            async with running_stack(interval_s=0.2) as (server, gateway):
                collector = asyncio.create_task(
                    collect_live("127.0.0.1", gateway.port, seconds=20.0,
                                 min_columns=94)
                )
                await asyncio.sleep(0.2)
                served: dict[str, list] = {}

                async def drive(pushes):
                    client = AsyncServeClient("127.0.0.1", server.port)
                    await client.connect()
                    session = await client.open_session(config=FAST)
                    wire_columns = served.setdefault(session, [])
                    for seq in range(1, pushes + 1):
                        frame = client.push_frame(_noise(rng, 200), seq)
                        reply = await client.request(frame)
                        wire_columns.extend(reply["columns"])
                    await client.close_session()
                    await client.aclose()

                # Two concurrent sessions: 47 columns each.
                await asyncio.gather(drive(4), drive(4))
                summary = await collector
                assert summary["columns"] >= 94
                for session, wire_columns in served.items():
                    ws_columns = [
                        payload
                        for event in summary["column_events"]
                        if event["session"] == session
                        for payload in event["columns"]
                    ]
                    assert len(ws_columns) == len(wire_columns) == 47
                    for ws_payload, served_payload in zip(ws_columns, wire_columns):
                        ws_column = column_from_wire(ws_payload)
                        served_column = column_from_wire(served_payload)
                        assert ws_column.index == served_column.index
                        assert np.array_equal(ws_column.power, served_column.power)

        asyncio.run(run())


class TestChaosUnderObservation:
    def test_gateway_streams_through_chaos_load(self):
        async def run():
            async with running_stack(interval_s=0.2) as (server, gateway):
                collector = asyncio.create_task(
                    collect_live("127.0.0.1", gateway.port, seconds=60.0)
                )
                await asyncio.sleep(0.2)
                report = await run_load(
                    "127.0.0.1",
                    server.port,
                    sessions=3,
                    pushes=8,
                    block_size=120,
                    chaos_seed=7,
                    chaos_rate_scale=1.5,
                    config=FAST,
                )
                # The serve-side gate: chaos never corrupted a column.
                assert report.diverged_columns == 0
                assert report.all_defined
                assert report.total("chaos_events_applied") > 0
                collector.cancel()
                try:
                    summary = await collector
                except asyncio.CancelledError:  # pragma: no cover - timing
                    summary = None
                if summary is not None:
                    assert summary["columns"] > 0
                    assert summary["kinds"].get("session.opened", 0) >= 3
                    # Chaos tears connections; the gateway narrates it.
                    assert summary["kinds"].get("serve.disconnect", 0) > 0

        asyncio.run(run())


class TestSlowConsumerShed:
    def test_stalled_subscriber_is_shed_and_serving_continues(self, rng, monkeypatch):
        monkeypatch.setattr(hub_module, "MAX_QUEUE", 4)
        monkeypatch.setattr(hub_module, "SHED_AFTER_DROPS", 8)

        async def run():
            async with running_stack(interval_s=0.1) as (server, gateway):
                # A healthy consumer that keeps draining its feed.
                healthy = asyncio.create_task(
                    collect_live("127.0.0.1", gateway.port, seconds=30.0,
                                 min_columns=60)
                )
                # A stalled consumer: completes the upgrade, then never
                # reads.  A tiny receive buffer closes the TCP window
                # almost immediately, so the gateway's sender backs up,
                # its hub queue overflows, and the hub sheds it.
                stalled = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
                stalled.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 2048)
                stalled.connect(("127.0.0.1", gateway.port))
                stalled.sendall(
                    b"GET /ws/live HTTP/1.1\r\n"
                    b"Host: localhost\r\n"
                    b"Upgrade: websocket\r\n"
                    b"Connection: Upgrade\r\n"
                    b"Sec-WebSocket-Key: dGhlIHNhbXBsZSBub25jZQ==\r\n"
                    b"Sec-WebSocket-Version: 13\r\n"
                    b"\r\n"
                )
                await asyncio.sleep(0.2)

                client = AsyncServeClient("127.0.0.1", server.port)
                await client.connect()
                await client.open_session(config=FAST)
                pushes = 0
                for _ in range(80):
                    reply = await client.push(_noise(rng, 400))
                    assert reply.columns  # serving never skipped a beat
                    pushes += 1
                    if gateway.hub.stats.subscribers_shed:
                        break
                    await asyncio.sleep(0)
                assert gateway.hub.stats.subscribers_shed == 1
                assert gateway.hub.stats.events_dropped >= 8
                await client.close_session()
                await client.aclose()
                stalled.close()

                summary = await healthy
                assert summary["columns"] >= 60  # the fast feed never stalled
                assert client.stats.errors == 0
                assert pushes >= 1

        asyncio.run(run())
