"""The routing frontend: protocol fidelity, placement, admission, stats.

Each test boots a real fleet — forked shard workers behind the asyncio
frontend — on ephemeral ports inside ``asyncio.run`` (the suite
carries no async plugin), and speaks the ordinary serve client/load
machinery at it.  Columns served through the frontend are held to
offline ``compute_spectrogram`` by ``run_load``'s verifier here and by
the differential harness (``tests/test_differential.py``).
"""

import asyncio
import json
from collections import Counter
from contextlib import asynccontextmanager

import numpy as np
import pytest

from repro.capture.store import CaptureStore
from repro.errors import ProtocolError, SessionLimitError
from repro.fleet import FleetConfig, FleetServer, HashRing, frontend
from repro.fleet.frontend import merge_snapshots
from repro.observe import ObserveGateway, TelemetryHub
from repro.observe.prometheus import parse_exposition
from repro.serve import AsyncServeClient, ServeConfig, run_load
from repro.serve import protocol
from repro.telemetry import configure, deactivate
from repro.telemetry.metrics import MetricsRegistry

from tests.helpers import FAST, synthetic_trace


@asynccontextmanager
async def running_fleet(workers=2, serve=None, supervisor_interval_s=0.1, **kwargs):
    """A started fleet whose supervisor ticks every ``supervisor_interval_s``."""
    saved = frontend.SUPERVISOR_INTERVAL_S
    frontend.SUPERVISOR_INTERVAL_S = supervisor_interval_s
    try:
        config = FleetConfig(
            workers=workers, serve=serve or ServeConfig(), **kwargs
        )
        fleet = FleetServer(config)
        await fleet.start()
        try:
            yield fleet
        finally:
            await fleet.shutdown()
    finally:
        frontend.SUPERVISOR_INTERVAL_S = saved


async def _client(fleet):
    client = AsyncServeClient("127.0.0.1", fleet.port)
    await client.connect()
    return client


def _keys_per_shard(fleet, count=1):
    """Routing keys grouped by the shard the fleet's own ring picks."""
    ring = HashRing([f"w{i}" for i in range(fleet.config.workers)])
    keys: dict[str, list[str]] = {name: [] for name in ring.shards}
    i = 0
    while any(len(bucket) < count for bucket in keys.values()):
        key = f"key-{i}"
        keys[ring.lookup(key)].append(key)
        i += 1
    return keys


class TestRouting:
    def test_ping_and_aggregated_stats(self):
        async def run():
            async with running_fleet(workers=2) as fleet:
                client = await _client(fleet)
                assert (await client.ping())["type"] == protocol.PONG
                stats = await client.server_stats()
                assert stats["active_sessions"] == 0
                assert stats["fleet"]["sessions_routed"] == 0
                assert [s["shard"] for s in stats["shards"]] == ["w0", "w1"]
                assert all(s["state"] == "up" for s in stats["shards"])
                await client.aclose()

        asyncio.run(run())

    def test_routing_key_picks_the_ring_shard(self):
        async def run():
            async with running_fleet(workers=2) as fleet:
                keys = _keys_per_shard(fleet)
                for shard, (key, *_rest) in keys.items():
                    client = await _client(fleet)
                    await client.open_session(config=FAST, routing_key=key)
                    assert str(client.session_id).startswith(f"{shard}:")
                    assert client.routing_key == key
                    await client.aclose()

        asyncio.run(run())

    def test_worker_session_limit_relays_typed(self):
        async def run():
            serve = ServeConfig(max_sessions=1)
            async with running_fleet(workers=2, serve=serve) as fleet:
                keys = _keys_per_shard(fleet, count=2)
                first_key, second_key = next(iter(keys.values()))[:2]
                first = await _client(fleet)
                await first.open_session(config=FAST, routing_key=first_key)
                second = await _client(fleet)
                # Same shard, limit 1: the worker's typed rejection must
                # come through the relay as the same taxonomy class.
                with pytest.raises(SessionLimitError):
                    await second.open_session(
                        config=FAST, routing_key=second_key
                    )
                assert fleet.stats.shed_sessions == 1
                await first.aclose()
                await second.aclose()

        asyncio.run(run())

    def test_a_stale_probe_never_sheds_a_session_the_worker_admits(self):
        async def run():
            # No supervisor tick during the test: the cache holds
            # exactly the probe taken below.
            async with running_fleet(
                workers=1, serve=ServeConfig(max_sessions=1), supervisor_interval_s=60.0
            ) as fleet:
                first = await _client(fleet)
                await first.open_session(config=FAST)
                await fleet._probe_live()
                shard = fleet._shards["w0"]
                assert shard.current("server.active_sessions") == 1
                await first.aclose()
                # The worker drops the session when the connection goes.
                direct = AsyncServeClient("127.0.0.1", shard.handle.port)
                await direct.connect()
                for _ in range(200):
                    if (await direct.server_stats())["active_sessions"] == 0:
                        break
                    await asyncio.sleep(0.01)
                else:  # pragma: no cover - the worker never dropped it
                    raise AssertionError("worker kept the closed session")
                await direct.aclose()
                assert shard.current("server.active_sessions") == 1  # still stale
                second = await _client(fleet)
                assert (await second.open_session(config=FAST)).startswith("w0:")
                assert fleet.stats.shed_sessions == 0
                await second.aclose()

        asyncio.run(run())

    def test_unknown_session_is_a_protocol_error(self):
        async def run():
            async with running_fleet(workers=1) as fleet:
                client = await _client(fleet)
                client.session_id = "w0:s999"
                with pytest.raises(ProtocolError):
                    await client.push(np.ones(64, dtype=complex))
                await client.aclose()

        asyncio.run(run())

    def test_fleet_load_zero_divergence(self):
        async def run():
            async with running_fleet(workers=2) as fleet:
                return await run_load(
                    "127.0.0.1",
                    fleet.port,
                    sessions=6,
                    pushes=6,
                    block_size=200,
                    config=FAST,
                )

        report = asyncio.run(run())
        assert report.diverged_columns == 0
        assert report.incomplete_sessions == 0
        assert report.all_defined
        assert report.columns > 0
        served_per_shard = [
            s["columns_served"] for s in report.server_stats["shards"]
        ]
        assert sum(served_per_shard) == report.columns


async def _raw_connection(fleet):
    """A client speaking the wire with ``json`` alone, not ``protocol``."""
    reader, writer = await asyncio.open_connection("127.0.0.1", fleet.port)

    async def ask(frame):
        writer.write(json.dumps(frame).encode() + b"\n")
        await writer.drain()
        return json.loads(await reader.readline())

    return reader, writer, ask


class TestByteRelay:
    def test_session_traffic_is_forwarded_not_reencoded(self, rng, monkeypatch):
        """Each push or close costs the frontend one decode, no encode."""
        trace = synthetic_trace(rng, num_samples=480)

        async def run():
            # No supervisor probe runs during the test, so every
            # protocol call counted below is the relay's own.
            async with running_fleet(
                workers=2, supervisor_interval_s=3600.0
            ) as fleet:
                _, writer, ask = await _raw_connection(fleet)
                opened = await ask({"type": protocol.OPEN_SESSION, "config": FAST})
                sid = opened["session"]
                frames = [
                    {
                        "type": protocol.PUSH_BLOCKS,
                        "session": sid,
                        "seq": seq,
                        "samples": protocol.encode_samples(trace[i : i + 96]),
                    }
                    for seq, i in enumerate(range(0, len(trace), 96), start=1)
                ]
                frames.append({"type": protocol.CLOSE_SESSION, "session": sid})
                calls = Counter()
                for name in ("encode_frame", "decode_frame"):

                    def counting(*args, _real=getattr(protocol, name), _name=name):
                        calls[_name] += 1
                        return _real(*args)

                    monkeypatch.setattr(protocol, name, counting)
                replies = [await ask(frame) for frame in frames]
                counts = dict(calls)
                writer.close()
                return opened, replies, counts

        opened, replies, counts = asyncio.run(run())
        assert opened["session"].startswith(f"{opened['shard']}:s")
        assert [r["type"] for r in replies] == [
            protocol.SPECTROGRAM_COLUMNS
        ] * 5 + [protocol.SESSION_CLOSED]
        assert all(r["session"] == opened["session"] for r in replies)
        assert counts == {"decode_frame": len(replies)}

    def test_last_line_without_newline_reaches_the_shard_whole(self):
        """A frame cut off by EOF is answered now, not after a timeout."""

        async def run():
            async with running_fleet(workers=1) as fleet:
                reader, writer, ask = await _raw_connection(fleet)
                opened = await ask({"type": protocol.OPEN_SESSION, "config": FAST})
                close = {"type": protocol.CLOSE_SESSION, "session": opened["session"]}
                writer.write(json.dumps(close).encode())
                writer.write_eof()
                line = await asyncio.wait_for(reader.readline(), timeout=10.0)
                writer.close()
                return opened, json.loads(line)

        opened, closed = asyncio.run(run())
        assert closed["type"] == protocol.SESSION_CLOSED
        assert closed["session"] == opened["session"]

    def test_recordings_carry_the_ids_clients_were_given(self, tmp_path, rng):
        """Shards sharing one capture store tag captures with fleet ids."""
        trace = synthetic_trace(rng, num_samples=256)

        async def run():
            async with running_fleet(
                workers=2, serve=ServeConfig(record_dir=str(tmp_path))
            ) as fleet:
                given = []
                for key, *_rest in _keys_per_shard(fleet).values():
                    client = await _client(fleet)
                    given.append(
                        await client.open_session(config=FAST, routing_key=key)
                    )
                    await client.push(trace)
                    await client.close_session()
                    await client.aclose()
                return given

        given = asyncio.run(run())
        store = CaptureStore(tmp_path)
        tagged = [
            store.open(info.capture_id).header.extra["session"]
            for info in store.list_captures(audit=False)
        ]
        assert sorted(tagged) == sorted(given)
        assert len(set(given)) == 2


class TestTelemetryMerge:
    def test_fleet_snapshot_equals_fold_of_shard_parts(self, tmp_path):
        """The exactness contract: merged == fold(shards + frontend)."""

        async def run():
            async with running_fleet(
                workers=2, telemetry_dir=str(tmp_path)
            ) as fleet:
                await run_load(
                    "127.0.0.1",
                    fleet.port,
                    sessions=4,
                    pushes=4,
                    block_size=200,
                    config=FAST,
                )
                client = await _client(fleet)
                reply = await client.telemetry_snapshot()
                await client.aclose()
                return reply

        reply = asyncio.run(run())
        assert reply["enabled"] is True
        parts = list(reply["shards"].values()) + [reply["frontend"]]
        assert reply["metrics"] == merge_snapshots(parts)
        # Real work happened on both shards, and the fleet total is
        # exactly the per-shard sum (counter merge is exact addition).
        merged_columns = reply["metrics"]["server.columns_served"]["value"]
        shard_columns = [
            part["server.columns_served"]["value"]
            for part in reply["shards"].values()
            if "server.columns_served" in part
        ]
        assert merged_columns == sum(shard_columns)
        assert merged_columns > 0
        assert len(shard_columns) == 2

    def test_merge_snapshots_is_registry_fold(self):
        a = MetricsRegistry()
        a.counter("x").inc(3)
        a.gauge("g").set(1.5)
        b = MetricsRegistry()
        b.counter("x").inc(4)
        b.histogram("h").observe(2.0)
        merged = merge_snapshots([a.snapshot(), {}, b.snapshot()])
        assert merged["x"]["value"] == 7
        assert merged["g"]["value"] == 1.5
        assert merged["h"]["count"] == 1

    def test_fleet_telemetry_dir_gets_totals_and_no_shard_gauge(self, tmp_path):
        """Shutdown merges the gauge-free fold into the frontend registry."""

        async def run():
            async with running_fleet(
                workers=2, telemetry_dir=str(tmp_path)
            ) as fleet:
                await run_load(
                    "127.0.0.1",
                    fleet.port,
                    sessions=4,
                    pushes=4,
                    block_size=200,
                    config=FAST,
                )

        telemetry = configure(out_dir=tmp_path / "frontend")
        try:
            asyncio.run(run())
            merged = telemetry.metrics.snapshot()
        finally:
            deactivate()
        for gauge in (
            "server.active_sessions",
            "scheduler.queue_depth",
            "scheduler.max_queue_depth",
        ):
            assert gauge not in merged
        shard_columns = [
            json.loads((tmp_path / f"shard-w{i}" / "metrics.json").read_text())[
                "server.columns_served"
            ]["value"]
            for i in range(2)
        ]
        assert all(columns > 0 for columns in shard_columns)
        assert merged["server.columns_served"]["value"] == sum(shard_columns)


class TestStatsView:
    def test_fleet_stats_reply_is_the_exact_fold(self):
        """Totals add, occupancy is windows / ticks, high-water is a max."""

        async def run():
            async with running_fleet(workers=2) as fleet:
                report = await run_load(
                    "127.0.0.1",
                    fleet.port,
                    sessions=12,
                    pushes=6,
                    block_size=200,
                    config=FAST,
                )
                client = await _client(fleet)
                stats = await client.server_stats()
                snapshot = await client.telemetry_snapshot()
                await client.aclose()
                shards = []
                for name in ("w0", "w1"):
                    # Each shard's own view, straight from the worker.
                    probe = AsyncServeClient(
                        "127.0.0.1", fleet._shards[name].handle.port
                    )
                    await probe.connect()
                    shards.append(await probe.server_stats())
                    await probe.aclose()
                metrics = parse_exposition(
                    ObserveGateway(TelemetryHub(), fleet=fleet).render_metrics()
                )
                return report, stats, snapshot, shards, metrics

        report, stats, snapshot, shards, metrics = asyncio.run(run())
        scheduler = stats["scheduler"]
        assert scheduler["ticks"] == sum(s["scheduler"]["ticks"] for s in shards)
        assert scheduler["windows"] == sum(s["scheduler"]["windows"] for s in shards)
        assert scheduler["mean_batch_windows"] == scheduler["windows"] / scheduler["ticks"]
        assert scheduler["max_queue_depth"] == max(
            s["scheduler"]["max_queue_depth"] for s in shards
        )
        columns = stats["server"]["columns_served"]
        assert columns == report.columns > 0
        assert columns == snapshot["metrics"]["server.columns_served"]["value"]
        assert columns == metrics["repro_server_columns_served"]
        assert "repro_server_active_sessions" not in metrics
        assert stats["active_sessions"] == 0
        assert stats["dsp_backend"] == scheduler["dsp_backend"] == "numpy-float64"

    def test_one_supervisor_tick_probes_each_live_shard_once(self, monkeypatch):
        """At most one ``telemetry_snapshot`` per live shard per tick, nothing else.

        A probe runs on its own, so when it lands depends on timing; but
        a tick starts none for a shard whose last probe is in flight.
        """
        sent, overlapping = [], []
        in_flight = Counter()
        request = AsyncServeClient.request

        async def recording(self, frame):
            sent.append((frame["type"], self.port))
            in_flight[self.port] += 1
            if in_flight[self.port] > 1:
                overlapping.append(self.port)
            try:
                return await request(self, frame)
            finally:
                in_flight[self.port] -= 1

        monkeypatch.setattr(AsyncServeClient, "request", recording)
        tick = ("tick", None)

        class TickHub:
            """The supervisor publishes ``fleet.shards`` once per tick."""

            def publish(self, kind, **fields):
                if kind == "fleet.shards":
                    sent.append(tick)

        async def run():
            async with running_fleet(workers=2, supervisor_interval_s=0.05) as fleet:
                fleet.hub = TickHub()
                deadline = asyncio.get_running_loop().time() + 20.0
                while sent.count(tick) < 4:
                    assert asyncio.get_running_loop().time() < deadline
                    await asyncio.sleep(0.05)
                ports = {state.handle.port for state in fleet._shards.values()}
                return list(sent), ports

        events, ports = asyncio.run(run())
        ticks = [i for i, event in enumerate(events) if event == tick]
        for start, end in zip(ticks, ticks[1:]):
            probes = events[start + 1 : end]
            assert {kind for kind, _ in probes} <= {protocol.TELEMETRY_SNAPSHOT}
            assert len({port for _, port in probes}) == len(probes)
        assert {port for _, port in events[ticks[0] :] if port is not None} == ports
        assert overlapping == []


def test_worker_stats_visible_through_single_worker_fleet(rng):
    """A 1-worker fleet behaves like a plain server behind a proxy."""

    async def run():
        async with running_fleet(workers=1) as fleet:
            client = await _client(fleet)
            await client.open_session(config=FAST)
            trace = synthetic_trace(rng, num_samples=256)
            await client.push(trace)
            stats = await client.server_stats()
            await client.close_session()
            await client.aclose()
            return stats

    stats = asyncio.run(run())
    assert stats["server"]["columns_served"] > 0
    # The open and the push; supervisor probes are not requests.
    assert stats["server"]["requests"] == 2
    assert stats["shards"][0]["shard"] == "w0"
