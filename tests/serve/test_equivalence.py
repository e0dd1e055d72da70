"""Served-vs-offline equivalence: the serving acceptance criterion.

The same seeded capture streamed through N concurrent sessions must
come back ``np.array_equal`` to the offline ``compute_spectrogram``
for *every* session — through JSON serialization, cross-session
micro-batching, and whatever batch companions the other sessions
contribute.  This is the PR-4 batch-stability contract surviving the
wire.
"""

import asyncio

import numpy as np

from repro.core.tracking import compute_spectrogram
from repro.faults.injector import FaultEvent, FaultKind
from repro.serve import AsyncServeClient, SensingServer, ServeConfig

from tests.helpers import FAST, synthetic_trace


async def _stream_session(port, trace, block_size, config=FAST):
    """One session's full life: open, stream the trace, close."""
    client = AsyncServeClient("127.0.0.1", port)
    await client.connect()
    try:
        await client.open_session(config=config)
        columns = []
        for offset in range(0, len(trace), block_size):
            reply = await client.push(trace[offset : offset + block_size])
            columns.extend(reply.columns)
        await client.close_session()
        return columns
    finally:
        await client.aclose()


def _serve_concurrently(trace, sessions, block_sizes):
    """Stream ``trace`` through N concurrent sessions; return columns."""

    async def run():
        server = SensingServer(ServeConfig())
        port = await server.start()
        try:
            return await asyncio.gather(
                *[
                    _stream_session(port, trace, block_sizes[i % len(block_sizes)])
                    for i in range(sessions)
                ]
            ), server
        finally:
            await server.shutdown()

    return asyncio.run(run())


class TestServedEquivalence:
    def test_concurrent_sessions_match_offline_bit_for_bit(
        self, rng, fast_tracking_config
    ):
        trace = synthetic_trace(rng, num_samples=480)
        offline = compute_spectrogram(trace, fast_tracking_config)
        # Different block sizes per session: window completion points
        # interleave, so batches genuinely mix sessions.
        per_session, server = _serve_concurrently(
            trace, sessions=6, block_sizes=[48, 80, 160]
        )
        for columns in per_session:
            assert len(columns) == offline.power.shape[0]
            served = np.stack([c.power for c in columns])
            assert np.array_equal(served, offline.power)
            assert np.array_equal(
                np.array([c.time_s for c in columns]), offline.times_s
            )
            assert np.array_equal(
                np.array([c.num_sources for c in columns]),
                offline.source_counts,
            )
            assert [c.estimator for c in columns] == list(offline.estimators)
        # The equivalence must have been exercised *through* batching:
        # windows per tick above one means sessions actually shared.
        assert server.scheduler.stats.mean_batch_windows > 1.0

    def test_fault_injected_trace_matches_offline(self, rng, fast_tracking_config):
        # Same NaN burst as the tracker golden test: both paths see the
        # corrupted windows and must fall back identically; the serving
        # layer adds JSON transport of non-finite samples on top.
        trace = synthetic_trace(rng)
        event = FaultEvent(
            kind=FaultKind.NAN_BURST, start_s=0.4, duration_s=0.1, magnitude=1.0
        )
        period = fast_tracking_config.sample_period_s
        lo = int(event.start_s / period)
        hi = lo + int(event.duration_s / period)
        trace[lo:hi] = complex(np.nan, np.nan)

        offline = compute_spectrogram(trace, fast_tracking_config)
        per_session, _ = _serve_concurrently(trace, sessions=3, block_sizes=[64])
        for columns in per_session:
            served = np.stack([c.power for c in columns])
            assert np.array_equal(served, offline.power)
            assert [c.estimator for c in columns] == list(offline.estimators)

    def test_mixed_estimator_sessions_stay_isolated(self, rng, fast_tracking_config):
        """MUSIC and beamforming tenants never contaminate each other."""
        from repro.core.tracking import compute_beamformed_frame

        trace = synthetic_trace(rng, num_samples=320)
        offline = compute_spectrogram(trace, fast_tracking_config)

        async def run():
            server = SensingServer(ServeConfig())
            port = await server.start()
            try:
                music = AsyncServeClient("127.0.0.1", port)
                beam = AsyncServeClient("127.0.0.1", port)
                await music.connect()
                await beam.connect()
                await music.open_session(config=FAST, use_music=True)
                await beam.open_session(config=FAST, use_music=False)
                music_cols, beam_cols = [], []
                for offset in range(0, len(trace), 80):
                    block = trace[offset : offset + 80]
                    m_reply, b_reply = await asyncio.gather(
                        music.push(block), beam.push(block)
                    )
                    music_cols.extend(m_reply.columns)
                    beam_cols.extend(b_reply.columns)
                await music.aclose()
                await beam.aclose()
                return music_cols, beam_cols
            finally:
                await server.shutdown()

        music_cols, beam_cols = asyncio.run(run())
        assert np.array_equal(
            np.stack([c.power for c in music_cols]), offline.power
        )
        window = fast_tracking_config.window_size
        hop = fast_tracking_config.hop
        for column, start in zip(
            beam_cols, range(0, len(trace) - window + 1, hop)
        ):
            frame = compute_beamformed_frame(
                trace[start : start + window], fast_tracking_config
            )
            assert column.estimator == "beamforming"
            assert np.array_equal(column.power, frame.power)
