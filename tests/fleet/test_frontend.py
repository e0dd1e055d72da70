"""The routing frontend: protocol fidelity, placement, admission.

Each test boots a real fleet — forked shard workers behind the asyncio
frontend — on ephemeral ports inside ``asyncio.run`` (the suite
carries no async plugin), and speaks the ordinary serve client/load
machinery at it.  The load-bearing assertion throughout is the
equivalence gate: columns served *through* the frontend are
``np.array_equal`` to offline ``compute_spectrogram``.
"""

import asyncio
import json
from collections import Counter
from contextlib import asynccontextmanager

import numpy as np
import pytest

from repro.capture.store import CaptureStore
from repro.core.tracking import compute_spectrogram
from repro.errors import ProtocolError, SessionLimitError
from repro.fleet import FleetConfig, FleetServer, HashRing
from repro.fleet.frontend import _aggregate, merge_snapshots
from repro.serve import AsyncServeClient, SensingServer, ServeConfig, run_load
from repro.serve import protocol
from repro.telemetry.metrics import MetricsRegistry

from tests.helpers import FAST, synthetic_trace


@asynccontextmanager
async def running_fleet(workers=2, serve=None, **kwargs):
    kwargs.setdefault("supervisor_interval_s", 0.1)
    config = FleetConfig(
        workers=workers, serve=serve or ServeConfig(), **kwargs
    )
    fleet = FleetServer(config)
    await fleet.start()
    try:
        yield fleet
    finally:
        await fleet.shutdown()


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

    def test_streamed_columns_match_offline_bit_for_bit(
        self, rng, fast_tracking_config
    ):
        trace = synthetic_trace(rng, num_samples=480)
        offline = compute_spectrogram(trace, fast_tracking_config)

        async def run():
            async with running_fleet(workers=2) as fleet:
                client = await _client(fleet)
                await client.open_session(config=FAST)
                # Shards mint fleet session ids, <shard>:s<n>, and the
                # minted routing key is echoed for resumes.
                shard, _, local_sid = str(client.session_id).partition(":")
                assert shard in ("w0", "w1")
                assert local_sid.startswith("s")
                assert client.routing_key is not None
                columns = []
                for offset in range(0, len(trace), 96):
                    pushed = await client.push(trace[offset : offset + 96])
                    columns.extend(pushed.columns)
                closed = await client.close_session()
                await client.aclose()
                return columns, closed

        columns, closed = asyncio.run(run())
        assert len(columns) == offline.power.shape[0]
        assert np.array_equal(
            np.stack([c.power for c in columns]), offline.power
        )
        assert closed["columns_out"] == len(columns)

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
                await first.aclose()
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


class TestAggregate:
    def test_sums_ints_maxes_floats_mixes_strings(self):
        merged = _aggregate(
            [
                {"requests": 3, "p99": 1.5, "dsp_backend": "numpy-float64"},
                {"requests": 4, "p99": 2.5, "dsp_backend": "numpy-float64"},
                {"requests": 1, "p99": 0.5, "dsp_backend": "numpy-float32"},
            ]
        )
        assert merged["requests"] == 8
        assert merged["p99"] == 2.5
        assert merged["dsp_backend"] == "mixed"

    def test_bools_are_not_summed(self):
        merged = _aggregate([{"flag": True}, {"flag": True}])
        assert merged["flag"] is True


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
    assert stats["shards"][0]["shard"] == "w0"


def test_direct_server_and_fleet_columns_identical(rng, fast_tracking_config):
    """The frontend hop adds nothing: same bytes as a direct session."""
    trace = synthetic_trace(rng, num_samples=320)

    async def direct():
        server = SensingServer(ServeConfig())
        await server.start()
        try:
            client = AsyncServeClient("127.0.0.1", server.port)
            await client.connect()
            session_id = await client.open_session(config=FAST)
            reply = await client.push(trace)
            await client.aclose()
            return session_id, reply.columns
        finally:
            await server.shutdown()

    async def fleeted():
        async with running_fleet(workers=2) as fleet:
            client = await _client(fleet)
            session_id = await client.open_session(config=FAST)
            reply = await client.push(trace)
            await client.aclose()
            return session_id, reply.columns

    direct_sid, direct_cols = asyncio.run(direct())
    fleet_sid, fleet_cols = asyncio.run(fleeted())
    # A bare server mints s<n>; a fleet shard prefixes its name.
    assert direct_sid == "s1"
    assert fleet_sid in ("w0:s1", "w1:s1")
    assert len(direct_cols) == len(fleet_cols)
    for a, b in zip(direct_cols, fleet_cols):
        assert np.array_equal(a.power, b.power)
        assert a.time_s == b.time_s
        assert a.estimator == b.estimator
