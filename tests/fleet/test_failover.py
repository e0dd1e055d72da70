"""Drain, crash, and migration: the fleet's failure contract.

The resilient client treats the typed :class:`FleetError` frames —
``ShardDrainingError`` on a drain, ``WorkerCrashedError`` on a worker
death — as migration signals: drop the connection, reconnect with the
same ``routing_key``, resume from the checkpoint.  The acceptance gate
is that columns served *across* a migration stay ``np.array_equal``
to the offline compute of the same trace.
"""

import asyncio

import numpy as np
import pytest

from repro.core.tracking import compute_spectrogram
from repro.errors import ShardDrainingError, WorkerCrashedError
from repro.serve import AsyncServeClient
from repro.serve.resilient import BackoffPolicy, ResilientServeClient
from repro.serve.session import config_from_wire

from tests.fleet.test_frontend import FAST, running_fleet
from tests.helpers import synthetic_trace


def _key_on(fleet, shard):
    """A routing key the fleet's current ring assigns to ``shard``."""
    for i in range(10_000):
        key = f"pin-{i}"
        if fleet._ring.lookup(key) == shard:
            return key
    raise AssertionError(f"no key hashed to {shard}")  # pragma: no cover


async def _wait_for(predicate, timeout_s=20.0, interval_s=0.05):
    deadline = asyncio.get_running_loop().time() + timeout_s
    while asyncio.get_running_loop().time() < deadline:
        if predicate():
            return
        await asyncio.sleep(interval_s)
    raise AssertionError("condition not reached in time")


def _stream_through(rng, disrupt, pushes=10, block_size=200):
    """Stream a resilient session pinned to w0; ``disrupt(fleet)`` before push 4.

    Every served column must equal offline compute of the whole trace;
    returns the client and the fleet's stats.
    """
    trace = synthetic_trace(rng, pushes * block_size)
    expected = compute_spectrogram(trace, config_from_wire(FAST)).power

    async def run():
        async with running_fleet(workers=2) as fleet:
            client = ResilientServeClient(
                "127.0.0.1",
                fleet.port,
                session_config=FAST,
                backoff=BackoffPolicy(max_attempts=12),
                routing_key=_key_on(fleet, "w0"),
            )
            await client.start()
            for push in range(pushes):
                if push == 4:
                    await disrupt(fleet)
                await client.push(trace[push * block_size : (push + 1) * block_size])
            await client.close_session()
            await client.aclose()
            # A killed w0 restarts: wait, so shutdown reaps a live worker.
            await _wait_for(
                lambda: fleet._shards["w0"].handle.alive or fleet._shards["w0"].draining,
                timeout_s=30.0,
            )
            return client, fleet.stats.snapshot()

    client, stats = asyncio.run(run())
    served = client.served_columns()
    assert len(served) == len(expected)
    assert np.array_equal(np.stack([c.power for c in served]), expected)
    return client, stats


class TestDrain:
    def test_drain_reroutes_new_sessions_and_types_old_ones(self):
        async def run():
            async with running_fleet(workers=2) as fleet:
                victim_key = _key_on(fleet, "w0")
                client = AsyncServeClient("127.0.0.1", fleet.port)
                await client.connect()
                await client.open_session(config=FAST, routing_key=victim_key)
                assert str(client.session_id).startswith("w0:")

                await fleet.drain_shard("w0")
                # Existing sessions draw the typed drain frame...
                with pytest.raises(ShardDrainingError):
                    await client.push(np.ones(64, dtype=complex))
                await client.aclose()
                # ...and the same key now re-hashes to the survivor.
                fresh = AsyncServeClient("127.0.0.1", fleet.port)
                await fresh.connect()
                await fresh.open_session(config=FAST, routing_key=victim_key)
                assert str(fresh.session_id).startswith("w1:")
                await fresh.aclose()

                # The drained worker is eventually stopped and reported.
                await _wait_for(
                    lambda: fleet._shards["w0"].stopped, timeout_s=20.0
                )
                states = {
                    s["shard"]: s["state"] for s in fleet.shard_snapshots()
                }
                assert states == {"w0": "drained", "w1": "up"}
                assert fleet.stats.shards_drained == 1
                assert fleet.stats.drain_notices == 1

        asyncio.run(run())

    def test_resilient_session_migrates_across_drain_bit_exactly(self, rng):
        client, stats = _stream_through(rng, lambda fleet: fleet.drain_shard("w0"))
        assert client.stats.fleet_migrations >= 1
        assert stats["drain_notices"] >= 1
        assert stats["sessions_resumed"] >= 1


class TestCrash:
    def test_killed_worker_restarts_and_orphans_get_typed_frames(self):
        async def run():
            async with running_fleet(workers=2) as fleet:
                key = _key_on(fleet, "w0")
                client = AsyncServeClient("127.0.0.1", fleet.port)
                await client.connect()
                await client.open_session(config=FAST, routing_key=key)

                fleet._shards["w0"].handle.kill()
                # The supervisor notices, restarts the shard under the
                # same name, and bumps its incarnation.
                await _wait_for(
                    lambda: fleet._shards["w0"].generation == 1
                    and fleet._shards["w0"].handle.alive,
                    timeout_s=30.0,
                )
                # The restarted worker owns none of the old sessions:
                # the orphan draws a typed crash frame, not a hang.
                with pytest.raises(WorkerCrashedError):
                    await client.push(np.ones(64, dtype=complex))
                await client.aclose()
                assert fleet.stats.worker_crashes == 1
                assert fleet.stats.worker_restarts == 1
                assert fleet._shards["w0"].restarts == 1
                states = {
                    s["shard"]: s["state"] for s in fleet.shard_snapshots()
                }
                assert states == {"w0": "up", "w1": "up"}

        asyncio.run(run())

    def test_resilient_session_survives_worker_kill_bit_exactly(self, rng):
        async def kill(fleet):
            fleet._shards["w0"].handle.kill()

        client, stats = _stream_through(rng, kill)
        assert client.stats.fleet_migrations + client.stats.reconnects >= 1
        assert stats["worker_restarts"] >= 1
