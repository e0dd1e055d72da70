"""The asyncio front end: session lifecycle, faults, shedding, limits.

Each test runs a real server on an ephemeral port inside
``asyncio.run`` (the suite carries no async plugin) and speaks to it
through the programmatic client.
"""

import asyncio
import json
from contextlib import asynccontextmanager

import numpy as np
import pytest

from repro.errors import (
    DeviceFailedError,
    ProtocolError,
    ReproError,
    ServeOverloadError,
    SessionLimitError,
    SessionResumeError,
)
from repro.serve import (
    AsyncServeClient,
    SchedulerConfig,
    SensingServer,
    ServeConfig,
)
from repro.serve import protocol
from repro.telemetry import Telemetry
from repro.telemetry.context import reset_telemetry, set_telemetry
from repro.telemetry.session import METRICS_FILE

from tests.helpers import FAST


@asynccontextmanager
async def running_server(config=None):
    server = SensingServer(config or ServeConfig())
    await server.start()
    try:
        yield server
    finally:
        await server.shutdown()


async def _client(server):
    client = AsyncServeClient("127.0.0.1", server.port)
    await client.connect()
    return client


def _noise(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


class TestLifecycle:
    def test_ping_and_stats(self):
        async def run():
            async with running_server() as server:
                client = await _client(server)
                assert (await client.ping())["type"] == protocol.PONG
                stats = await client.server_stats()
                assert stats["active_sessions"] == 0
                assert stats["dsp_backend"] == "numpy-float64"
                assert stats["scheduler"]["dsp_backend"] == "numpy-float64"
                # The ping plus the stats request itself.
                assert stats["server"]["requests"] == 2
                await client.aclose()

        asyncio.run(run())

    def test_stats_reply_is_a_view_of_the_live_counters(self, rng):
        """Every key of ``server_stats``, read field by field off the stats."""

        def by_field(server):
            stats, scheduler = server.stats, server.scheduler.stats
            counters = (
                "requests", "errors", "sessions_opened", "sessions_closed",
                "sessions_failed", "sessions_resumed", "columns_served",
                "disconnects", "read_timeouts", "write_timeouts",
                "malformed_frames", "duplicate_pushes", "sequence_errors",
            )
            return {
                "type": protocol.SERVER_STATS_REPLY,
                "active_sessions": len(server.sessions),
                "queue_depth": server.scheduler.queue_depth,
                "dsp_backend": "numpy-float64",
                "server": {
                    **{name: getattr(stats, name) for name in counters},
                    "request_p50_ms": stats.request_latency_ms.percentile(0.5),
                    "request_p99_ms": stats.request_latency_ms.percentile(0.99),
                },
                "scheduler": {
                    "ticks": scheduler.ticks,
                    "windows": scheduler.windows,
                    "shed_windows": scheduler.shed_windows,
                    "max_queue_depth": scheduler.max_queue_depth,
                    "watchdog_activations": scheduler.watchdog_activations,
                    "serial_windows": scheduler.serial_windows,
                    "mean_batch_windows": scheduler.mean_batch_windows,
                    "batch_p50": scheduler.occupancy.percentile(0.5),
                    "batch_p99": scheduler.occupancy.percentile(0.99),
                    "dsp_backend": "numpy-float64",
                },
            }

        def types(reply):
            return {
                key: {k: type(v) for k, v in value.items()}
                if isinstance(value, dict)
                else type(value)
                for key, value in reply.items()
            }

        async def run():
            async with running_server() as server:
                client = await _client(server)
                await client.open_session(config=FAST)
                for _ in range(3):
                    await client.push(_noise(rng, 200))
                await client.ping()
                wire = await client.server_stats()
                # The stats request itself is counted before its reply.
                expected_wire = by_field(server)
                await client.aclose()
                return wire, expected_wire, server._stats_reply(), by_field(server)

        wire, expected_wire, reply, expected = asyncio.run(run())
        assert reply == expected
        assert types(reply) == types(expected)
        assert expected["server"]["columns_served"] > 0
        assert expected["scheduler"]["ticks"] > 0
        assert isinstance(expected["server"]["requests"], int)
        # Over the wire too, but the stats request's own latency lands
        # after its reply was built.
        for view in (wire, expected_wire):
            view["server"].pop("request_p50_ms")
            view["server"].pop("request_p99_ms")
        assert wire == expected_wire
        assert types(wire) == types(expected_wire)

    def test_open_push_close(self, rng):
        async def run():
            async with running_server() as server:
                client = await _client(server)
                session = await client.open_session(config=FAST)
                assert session == "s1"
                reply = await client.push(_noise(rng, 200))
                # 200 samples, window 64, hop 16 -> 9 columns.
                assert len(reply.columns) == 9
                assert [c.index for c in reply.columns] == list(range(9))
                closed = await client.close_session()
                assert closed["columns_out"] == 9
                assert closed["samples_in"] == 200
                assert closed["health"] == "healthy"
                assert server.stats.sessions_closed == 1
                await client.aclose()

        asyncio.run(run())

    def test_sessions_are_connection_scoped(self, rng):
        async def run():
            async with running_server() as server:
                a = await _client(server)
                b = await _client(server)
                session = await a.open_session(config=FAST)
                b.session_id = session  # impersonate on the wrong socket
                with pytest.raises(ProtocolError, match="no session"):
                    await b.push(_noise(rng, 64))
                await a.aclose()
                await b.aclose()

        asyncio.run(run())

    def test_disconnect_reaps_sessions(self):
        async def run():
            async with running_server() as server:
                client = await _client(server)
                await client.open_session(config=FAST)
                assert len(server.sessions) == 1
                await client.aclose()
                for _ in range(50):
                    if not server.sessions:
                        break
                    await asyncio.sleep(0.01)
                assert not server.sessions

        asyncio.run(run())

    def test_session_limit(self):
        async def run():
            async with running_server(ServeConfig(max_sessions=1)) as server:
                a = await _client(server)
                b = await _client(server)
                await a.open_session(config=FAST)
                with pytest.raises(SessionLimitError):
                    await b.open_session(config=FAST)
                # Closing frees the slot.
                await a.close_session()
                await b.open_session(config=FAST)
                await a.aclose()
                await b.aclose()

        asyncio.run(run())


class TestProtocolErrors:
    def test_unknown_frame_type(self):
        async def run():
            async with running_server() as server:
                client = await _client(server)
                with pytest.raises(ProtocolError, match="unknown frame type"):
                    await client.request({"type": "teleport"})
                await client.aclose()

        asyncio.run(run())

    def test_rejected_request_is_an_event_with_telemetry_on(self, tmp_path):
        """Telemetry on, a rejected request still answers typed."""

        async def run():
            async with running_server() as server:
                client = await _client(server)
                with pytest.raises(ProtocolError, match="unknown frame type"):
                    await client.request({"type": "teleport"})
                pong = await client.ping()
                await client.aclose()
                return pong

        telemetry = set_telemetry(Telemetry(enabled=True, out_dir=tmp_path))
        try:
            pong = asyncio.run(run())
        finally:
            reset_telemetry()
        assert pong["type"] == protocol.PONG
        [event] = telemetry.events.of_kind("serve.request_rejected")
        assert event["request"] == "teleport"
        assert event["error"] == "ProtocolError"

    def test_malformed_json_answers_and_connection_survives(self):
        """A corrupt line draws a typed error but does not hang up:
        the reader recovers at the next newline."""

        async def run():
            async with running_server() as server:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                writer.write(b"this is not json\n")
                await writer.drain()
                frame = protocol.decode_frame(await reader.readline())
                assert frame["type"] == protocol.ERROR
                assert frame["error"] == "ProtocolError"
                writer.write(protocol.encode_frame({"type": protocol.PING}))
                await writer.drain()
                pong = protocol.decode_frame(await reader.readline())
                assert pong["type"] == protocol.PONG
                writer.close()

        asyncio.run(run())

    def test_failing_probe_answers_an_error_and_connection_survives(self, monkeypatch):
        """A ``telemetry_snapshot`` is not a request, but a bug in its
        reply still becomes an error frame, not a dropped connection."""

        def broken(self):
            raise RuntimeError("boom")

        monkeypatch.setattr(SensingServer, "_telemetry_snapshot_reply", broken)

        async def run():
            async with running_server() as server:
                client = await _client(server)
                with pytest.raises(ReproError, match="internal error: boom"):
                    await client.telemetry_snapshot()
                stats = await client.server_stats()
                await client.aclose()
                return stats

        stats = asyncio.run(run())
        assert stats["server"]["errors"] == 1
        # Only the stats request itself: the probe stays uncounted.
        assert stats["server"]["requests"] == 1

    @pytest.mark.parametrize(
        "start_time_s",
        [float("nan"), float("inf"), float("-inf")],
        ids=["NaN", "Infinity", "-Infinity"],
    )
    def test_non_finite_start_time_refused_on_open_and_resume(self, rng, start_time_s):
        """JSON's NaN and Infinity decode as floats, but every column's
        ``time_s`` would read nan or inf: an open frame carrying one is
        refused, and so is a resume checkpoint whose tracker does."""

        async def run():
            async with running_server() as server:
                client = await _client(server)
                with pytest.raises(ProtocolError, match="start_time_s"):
                    await client.open_session(config=FAST, start_time_s=start_time_s)
                await client.open_session(config=FAST, resumable=True)
                reply = await client.push(_noise(rng, 64))
                assert reply.columns
                await client.aclose()
                checkpoint = reply.checkpoint
                checkpoint["tracker"]["start_time_s"] = start_time_s
                client = await _client(server)
                with pytest.raises(SessionResumeError, match="start_time_s"):
                    await client.open_session(config=FAST, resume=checkpoint)
                checkpoint["tracker"]["start_time_s"] = 0.0
                await client.open_session(config=FAST, resume=checkpoint)
                await client.aclose()

        asyncio.run(run())

    def test_bad_session_config_rejected(self):
        async def run():
            async with running_server() as server:
                client = await _client(server)
                with pytest.raises(ProtocolError, match="unknown config field"):
                    await client.open_session(config={"wavelength_m": 0.1})
                with pytest.raises(ProtocolError, match="must be a number"):
                    await client.open_session(config={"window_size": "big"})
                with pytest.raises(ProtocolError, match="invalid session config"):
                    await client.open_session(config={"window_size": 16, "hop": 32})
                # The connection survived all three rejections.
                await client.open_session(config=FAST)
                await client.aclose()

        asyncio.run(run())

    def test_oversize_push_rejected_without_desync(self, rng):
        async def run():
            async with running_server() as server:
                client = await _client(server)
                await client.open_session(config=FAST)
                too_big = protocol.MAX_PUSH_SAMPLES + 1
                with pytest.raises(ProtocolError, match="per-request limit"):
                    await client.push(_noise(rng, too_big))
                # Alignment intact: the rejected block left nothing behind.
                reply = await client.push(_noise(rng, 64))
                assert len(reply.columns) == 1
                assert reply.columns[0].start_sample == 0
                await client.aclose()

        asyncio.run(run())


class TestOverloadAndFaults:
    def test_overload_sheds_whole_pushes(self, rng):
        config = ServeConfig(
            scheduler=SchedulerConfig(max_batch_windows=1, queue_capacity=1)
        )

        async def run():
            async with running_server(config) as server:
                client = await _client(server)
                await client.open_session(config=FAST)
                # 4 windows in one push cannot fit a queue of capacity 1.
                with pytest.raises(ServeOverloadError, match="retry later"):
                    await client.push(_noise(rng, 112))
                assert server.scheduler.stats.shed_windows == 4
                # A smaller push still goes through, on the original
                # alignment: the shed block never touched the tracker.
                reply = await client.push(_noise(rng, 64))
                assert len(reply.columns) == 1
                assert reply.columns[0].start_sample == 0
                closed = await client.close_session()
                assert closed["shed_requests"] == 1
                await client.aclose()

        asyncio.run(run())

    def test_failing_session_dies_alone(self, rng):
        async def run():
            async with running_server() as server:
                sick = await _client(server)
                healthy = await _client(server)
                await sick.open_session(config=FAST)
                await healthy.open_session(config=FAST)
                nan_block = np.full(64, complex(np.nan, np.nan))
                # Push garbage until the health machine gives up.
                with pytest.raises((DeviceFailedError, ReproError)):
                    for _ in range(50):
                        await sick.push(nan_block)
                assert server.stats.sessions_failed == 1
                # The failed session is gone...
                with pytest.raises(ProtocolError, match="no session"):
                    await sick.push(_noise(rng, 64))
                # ...while its neighbour never noticed.
                reply = await healthy.push(_noise(rng, 64))
                assert len(reply.columns) == 1
                await sick.aclose()
                await healthy.aclose()

        asyncio.run(run())

    def test_degraded_session_reports_health_events(self, rng):
        async def run():
            async with running_server() as server:
                client = await _client(server)
                await client.open_session(config=FAST)
                corrupted = _noise(rng, 64)
                corrupted[10:20] = complex(np.nan, np.nan)
                reply = await client.push(corrupted)
                states = [event["state"] for event in reply.health]
                assert "degraded" in states
                await client.aclose()

        asyncio.run(run())


class TestPerConfigCaches:
    @pytest.mark.parametrize("backend", ["numpy-float64", "numpy-float32"])
    def test_distinct_session_configs_stay_within_the_bound(self, rng, backend):
        """Clients choose five config fields, so every table cached per
        config, window size or subarray size is bounded: more distinct
        configs than the bound, one window each, leave each cache at
        most full."""
        from repro.dsp import backend as dsp_backend
        from repro.dsp import spectrum, steering, windows
        from repro.dsp.backend import get_backend, use_backend

        per_config = (
            dsp_backend._steering_for,
            windows._subarray_index,
            spectrum._noise_masks,
        )
        for cache in per_config:
            cache.cache_clear()
        steering.clear_cache()
        num_configs = steering.MAX_CACHE_ENTRIES + 6

        async def run():
            async with running_server() as server:
                for k in range(num_configs):
                    # Twice as many subarrays as elements: full rank, so
                    # MUSIC accepts the window and every table is built.
                    subarray = 4 + k
                    size = 3 * subarray - 1
                    client = await _client(server)
                    await client.open_session(
                        config={"window_size": size, "hop": size, "subarray_size": subarray}
                    )
                    reply = await client.push(_noise(rng, size))
                    assert len(reply.columns) == 1
                    await client.close_session()
                    await client.aclose()

        with use_backend(backend):
            asyncio.run(run())
        if backend == "numpy-float64":
            for cache in per_config:
                info = cache.cache_info()
                assert info.misses >= num_configs
                assert info.currsize == steering.MAX_CACHE_ENTRIES
        assert steering.cache_info().entries <= steering.MAX_CACHE_ENTRIES
        assert len(get_backend("numpy-float32")._steering_memo) <= 16


class TestShutdown:
    def test_graceful_drain_answers_inflight_pushes(self, rng):
        async def run():
            server = SensingServer(ServeConfig())
            await server.start()
            client = await _client(server)
            await client.open_session(config=FAST)
            push = asyncio.create_task(client.push(_noise(rng, 640)))
            # Wait until the server has actually admitted the push's 37
            # windows — the drain guarantee covers admitted work.
            scheduler = server.scheduler
            for _ in range(500):
                if scheduler.stats.windows + scheduler.queue_depth >= 37:
                    break
                await asyncio.sleep(0.002)
            await server.shutdown()
            reply = await push
            assert len(reply.columns) == 37
            await client.aclose()

        asyncio.run(run())

    def test_shutdown_is_idempotent(self):
        async def run():
            server = SensingServer(ServeConfig())
            await server.start()
            await server.shutdown()
            await server.shutdown()
            assert not server.scheduler.running

        asyncio.run(run())

    def test_enabled_telemetry_flushes_the_serve_counters(self, tmp_path, rng):
        async def run():
            server = SensingServer(ServeConfig())
            await server.start()
            client = await _client(server)
            await client.open_session(config=FAST)
            received = 0
            for _ in range(3):
                received += len((await client.push(_noise(rng, 200))).columns)
            await client.close_session()
            await client.aclose()
            await server.shutdown()
            await server.shutdown()  # idempotent: the counts merge once
            return received

        telemetry = set_telemetry(Telemetry(enabled=True, out_dir=tmp_path))
        try:
            received = asyncio.run(run())
            telemetry.flush()
        finally:
            reset_telemetry()
        metrics = json.loads((tmp_path / METRICS_FILE).read_text(encoding="utf-8"))
        assert received > 0
        assert metrics["server.columns_served"]["value"] == received
        assert metrics["server.sessions_closed"]["value"] == 1
        assert [name for name in metrics if name.startswith("serve.")] == []
