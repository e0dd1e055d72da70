"""Checkpoint/resume: killed-and-resumed == uninterrupted, bit for bit.

The resume acceptance criterion from the failure model: a session
killed mid-stream and resumed from its last reply's checkpoint serves
columns ``np.array_equal`` to an uninterrupted run — including through
a NaN burst (beamforming-fallback windows) and the health-machine
state the burst leaves behind.
"""

import asyncio

import numpy as np
import pytest

from repro.core.monitoring import DeviceHealth
from repro.core.tracking import TrackingConfig, compute_spectrogram
from repro.errors import ProtocolError, SequenceError, SessionResumeError
from repro.runtime.tracker import StreamingTracker, TrackerCheckpoint
from repro.serve import AsyncServeClient, SensingServer, ServeConfig
from repro.serve.session import ServeSession, config_from_wire

from tests.helpers import FAST, synthetic_trace

CONFIG = TrackingConfig(**FAST)


def _trace_with_nan_burst(rng, num_samples=640):
    """A moving-reflector trace with one block-sized NaN burst."""
    trace = synthetic_trace(rng, num_samples)
    # One push-block of NaNs: degrades health, forces the beamforming
    # fallback in the windows it touches, but recovers (one bad block
    # never reaches RECALIBRATING under the default policy).
    trace[320:400] = complex(np.nan, np.nan)
    return trace


class TestTrackerCheckpoint:
    def test_checkpoint_restore_roundtrip_is_bit_exact(self, rng):
        trace = _trace_with_nan_burst(rng)
        block = 88
        split = 4  # checkpoint after 4 blocks, mid-stream
        full = StreamingTracker(CONFIG, use_music=True)
        resumed_src = StreamingTracker(CONFIG, use_music=True)

        full_windows = []
        for i in range(split):
            chunk = trace[i * block : (i + 1) * block]
            full.ingest(chunk)
            full_windows.extend(full.poll_ready_windows())
            resumed_src.ingest(chunk)
            resumed_src.poll_ready_windows()

        checkpoint = resumed_src.checkpoint()
        assert isinstance(checkpoint, TrackerCheckpoint)
        resumed = StreamingTracker(CONFIG, use_music=True)
        resumed.restore(checkpoint)

        resumed_windows = []
        for offset in range(split * block, len(trace), block):
            chunk = trace[offset : offset + block]
            full.ingest(chunk)
            full_windows.extend(full.poll_ready_windows())
            resumed.ingest(chunk)
            resumed_windows.extend(resumed.poll_ready_windows())

        assert resumed_windows
        tail = full_windows[-len(resumed_windows) :]
        for a, b in zip(tail, resumed_windows):
            assert a.index == b.index
            assert a.start_sample == b.start_sample
            assert a.time_s == b.time_s
            assert np.array_equal(a.samples, b.samples, equal_nan=True)

    def test_restore_rejects_used_tracker_and_bad_shapes(self, rng):
        tracker = StreamingTracker(CONFIG)
        tracker.ingest(rng.standard_normal(32) + 0j)
        checkpoint = tracker.checkpoint()
        with pytest.raises(ValueError, match="fresh"):
            tracker.restore(checkpoint)
        other = StreamingTracker(CONFIG, use_music=False)
        with pytest.raises(ValueError, match="estimator family"):
            other.restore(checkpoint)


class TestSessionResume:
    def test_resume_rejects_malformed_checkpoints(self):
        config = config_from_wire(FAST)
        with pytest.raises(SessionResumeError):
            ServeSession.resume("s1", config, checkpoint="nope")
        with pytest.raises(SessionResumeError):
            ServeSession.resume("s1", config, checkpoint={"tracker": 42})

    def test_resume_rejects_failed_health_state(self):
        config = config_from_wire(FAST)
        session = ServeSession("s0", config, resumable=True)
        session.condition.machine.fail("dead radio")
        checkpoint = session.checkpoint()
        with pytest.raises(SessionResumeError, match="FAILED"):
            ServeSession.resume("s1", config, checkpoint=checkpoint)

    def test_seq_semantics(self):
        config = config_from_wire(FAST)
        session = ServeSession("s1", config)
        assert session.check_seq(1) is True
        session.advance_seq(1)
        assert session.check_seq(1) is False  # duplicate
        assert session.check_seq(2) is True
        with pytest.raises(SequenceError):
            session.check_seq(3)
        with pytest.raises(ProtocolError):
            session.check_seq("two")
        with pytest.raises(ProtocolError):
            session.check_seq(0)


class TestServedResumeEquivalence:
    def _offline(self, trace):
        return compute_spectrogram(trace, CONFIG)

    def test_killed_and_resumed_equals_uninterrupted(self, rng):
        """The acceptance criterion, through a real server.

        The stream crosses a NaN burst, so the resumed half must also
        carry the health-machine state (DEGRADED at the kill point)
        and the beamforming-fallback windows across the wire.
        """
        trace = _trace_with_nan_burst(rng)
        block = 80
        blocks = [
            trace[offset : offset + block]
            for offset in range(0, len(trace), block)
        ]
        kill_after = 5  # mid-burst: checkpoint carries degraded health

        async def run():
            server = SensingServer(ServeConfig())
            await server.start()
            try:
                # Uninterrupted reference run.
                ref = AsyncServeClient("127.0.0.1", server.port)
                await ref.connect()
                await ref.open_session(config=FAST, resumable=True)
                ref_columns, ref_estimators = [], []
                for chunk in blocks:
                    reply = await ref.push(chunk)
                    ref_columns.extend(reply.columns)
                await ref.close_session()
                await ref.aclose()

                # Interrupted run: stream, kill, resume, stream on.
                first = AsyncServeClient("127.0.0.1", server.port)
                await first.connect()
                await first.open_session(config=FAST, resumable=True)
                columns = []
                checkpoint = None
                for chunk in blocks[:kill_after]:
                    reply = await first.push(chunk)
                    columns.extend(reply.columns)
                    checkpoint = reply.checkpoint
                assert checkpoint is not None
                # Hard kill: no close_session, just a dead socket.
                first._writer.transport.abort()
                await first.aclose()

                second = AsyncServeClient("127.0.0.1", server.port)
                await second.connect()
                await second.open_session(config=FAST, resume=checkpoint)
                for chunk in blocks[kill_after:]:
                    reply = await second.push(chunk)
                    columns.extend(reply.columns)
                report = await second.close_session()
                await second.aclose()
                return ref_columns, columns, report
            finally:
                await server.shutdown()

        ref_columns, columns, report = asyncio.run(run())
        offline = self._offline(trace)

        assert len(columns) == len(ref_columns) == offline.power.shape[0]
        assert np.array_equal(
            np.stack([c.power for c in columns]),
            np.stack([c.power for c in ref_columns]),
        )
        assert np.array_equal(
            np.stack([c.power for c in columns]), offline.power
        )
        # The NaN burst must have exercised the beamforming fallback.
        estimators = [c.estimator for c in columns]
        assert "beamforming" in estimators
        assert estimators == list(offline.estimators)
        assert [c.index for c in columns] == list(range(len(columns)))
        # The resumed session still knows its full history.
        assert report["samples_in"] == len(trace)

    def test_resumed_session_acks_replayed_seq_as_duplicate(self, rng):
        """A push applied before the kill is not re-applied after it."""
        trace = _trace_with_nan_burst(rng, num_samples=320)

        async def run():
            server = SensingServer(ServeConfig())
            await server.start()
            try:
                first = AsyncServeClient("127.0.0.1", server.port)
                await first.connect()
                await first.open_session(config=FAST, resumable=True)
                reply = await first.push(trace[:160])
                checkpoint = reply.checkpoint
                first._writer.transport.abort()
                await first.aclose()

                second = AsyncServeClient("127.0.0.1", server.port)
                await second.connect()
                await second.open_session(config=FAST, resume=checkpoint)
                # Blind re-send of seq 1 (already in the checkpoint).
                frame = second.push_frame(trace[:160], seq=1)
                dup = second.decode_push_reply(await second.request(frame))
                fresh = await second.push(trace[160:])
                await second.aclose()
                return reply, dup, fresh
            finally:
                await server.shutdown()

        reply, dup, fresh = asyncio.run(run())
        assert dup.duplicate and not dup.columns
        assert not fresh.duplicate
        offline = self._offline(trace)
        served = [c.power for c in reply.columns] + [
            c.power for c in fresh.columns
        ]
        assert np.array_equal(np.stack(served), offline.power)

    def test_health_state_survives_resume(self):
        config = config_from_wire(FAST)
        session = ServeSession("s1", config, resumable=True)
        session.condition.machine.record_bad("nan burst")
        assert session.health is DeviceHealth.DEGRADED
        resumed = ServeSession.resume("s2", config, session.checkpoint())
        assert resumed.health is DeviceHealth.DEGRADED
        assert resumed.resumable
