"""Drain, crash, and migration: the fleet's failure contract.

The resilient client treats the typed :class:`FleetError` frames —
``ShardDrainingError`` on a drain, ``WorkerCrashedError`` on a worker
death — as migration signals: drop the connection, reconnect with the
same ``routing_key``, resume from the checkpoint.  The acceptance gate
is that columns served *across* a migration stay ``np.array_equal``
to the offline compute of the same trace.
"""

import asyncio
import os
import signal

import numpy as np
import pytest

from repro.core.tracking import compute_spectrogram
from repro.errors import ShardDrainingError, WorkerCrashedError
from repro.observe import ObserveGateway, TelemetryHub
from repro.observe.prometheus import parse_exposition
from repro.serve import AsyncServeClient, run_load
from repro.serve.resilient import ResilientServeClient
from repro.serve.session import config_from_wire

from tests.fleet.test_frontend import running_fleet
from tests.helpers import FAST, synthetic_trace


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
                # The drain frame is a notice, counted once; no relay fault.
                assert fleet.stats.drain_notices == 1
                assert fleet.stats.relay_errors == 0

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
                # The crash frame is a notice, counted once; no relay fault.
                assert fleet.stats.crash_notices == 1
                assert fleet.stats.relay_errors == 0
                assert fleet._shards["w0"].restarts == 1
                states = {
                    s["shard"]: s["state"] for s in fleet.shard_snapshots()
                }
                assert states == {"w0": "up", "w1": "up"}

        asyncio.run(run())

    def test_a_wedged_shard_does_not_delay_a_crash_restart(self):
        """w0 stopped (alive but silent), w1 killed: w1 is back in seconds.

        A probe of the stopped w0 waits up to ``BACKEND_TIMEOUT_S``
        (30 s); the supervisor must not wait with it.
        """

        async def run():
            async with running_fleet(workers=2) as fleet:
                w0, w1 = fleet._shards["w0"], fleet._shards["w1"]
                os.kill(w0.handle.pid, signal.SIGSTOP)
                try:
                    # A few ticks: a probe of w0 is now in flight, unanswered.
                    await asyncio.sleep(0.5)
                    w1.handle.kill()
                    await _wait_for(
                        lambda: w1.generation == 1 and w1.handle.alive,
                        timeout_s=5.0,
                    )
                    assert w0.handle.alive and w0.generation == 0
                finally:
                    os.kill(w0.handle.pid, signal.SIGCONT)
                assert fleet.stats.worker_restarts == 1

        asyncio.run(run())

    def test_served_totals_count_every_incarnation(self):
        """Telemetry off: served totals exist and survive a SIGKILL.

        ``/metrics`` and the ``server_stats`` reply read one fold, so
        neither falls when a shard restarts.
        """

        def scrape(fleet):
            samples = parse_exposition(
                ObserveGateway(TelemetryHub(), fleet=fleet).render_metrics()
            )
            shards = {
                key: value
                for key, value in samples.items()
                if key.startswith("repro_fleet_shard_columns_served{")
            }
            return samples, shards

        async def served(fleet):
            client = AsyncServeClient("127.0.0.1", fleet.port)
            await client.connect()
            stats = await client.server_stats()
            await client.aclose()
            return stats["server"]["columns_served"]

        async def run():
            async with running_fleet(workers=2) as fleet:
                report = await run_load(
                    "127.0.0.1", fleet.port, sessions=4, pushes=4,
                    block_size=200, config=FAST,
                )
                await _wait_for(
                    lambda: scrape(fleet)[0].get("repro_server_columns_served")
                    == report.columns
                )
                before = scrape(fleet)
                served_before = await served(fleet)
                fleet._shards["w0"].handle.kill()
                # Restarted, and the new incarnation probed at least once.
                await _wait_for(
                    lambda: fleet._shards["w0"].generation == 1
                    and fleet._shards["w0"].probes[-1],
                    timeout_s=30.0,
                )
                served_after = await served(fleet)
                return report, before, scrape(fleet), (served_before, served_after)

        report, before, after, served_totals = asyncio.run(run())
        assert served_totals == (report.columns, report.columns)
        w0 = 'repro_fleet_shard_columns_served{shard="w0"}'
        for samples, shards in (before, after):
            assert samples["repro_server_columns_served"] == report.columns > 0
            assert sum(shards.values()) == report.columns
            assert "repro_server_active_sessions" not in samples
        assert before[1][w0] > 0
        assert after[1][w0] == before[1][w0]

    def test_resilient_session_survives_worker_kill_bit_exactly(self, rng):
        async def kill(fleet):
            fleet._shards["w0"].handle.kill()

        client, stats = _stream_through(rng, kill)
        assert client.stats.fleet_migrations + client.stats.reconnects >= 1
        assert stats["worker_restarts"] >= 1
