"""Checkpoint/resume: validation, seq semantics, resumed health.

The resume acceptance criterion from the failure model (a session
killed mid-stream and resumed from its last reply's checkpoint serves
columns ``np.array_equal`` to an uninterrupted run, through a NaN
burst) is a pinned scenario of the differential harness
(``tests/test_differential.py``); these tests hold what it does not
reach: malformed and FAILED checkpoints, seq rules, and the
health-machine state a resume carries.
"""

import dataclasses

import pytest

from repro.core.monitoring import DeviceHealth
from repro.core.tracking import TrackingConfig
from repro.errors import ProtocolError, SequenceError, SessionResumeError
from repro.runtime.tracker import StreamingTracker, TrackerCheckpoint
from repro.serve.session import ServeSession, config_from_wire

from tests.helpers import FAST, synthetic_trace

CONFIG = TrackingConfig(**FAST)
#: Samples a session ingests before its checkpoint is taken.
PUSHED = 100


class TestTrackerCheckpoint:
    def test_restore_rejects_used_tracker_and_bad_shapes(self, rng):
        tracker = StreamingTracker(CONFIG)
        tracker.ingest(rng.standard_normal(32) + 0j)
        checkpoint = tracker.checkpoint()
        with pytest.raises(ValueError, match="fresh"):
            tracker.restore(checkpoint)
        other = StreamingTracker(CONFIG, use_music=False)
        with pytest.raises(ValueError, match="estimator family"):
            other.restore(checkpoint)

    def test_restore_refuses_a_carry_of_a_whole_window(self, rng):
        # Between pushes every complete window was drained, so a real
        # carry is shorter than a window.
        window = CONFIG.window_size
        checkpoint = TrackerCheckpoint(
            buffered=synthetic_trace(rng, window),
            next_start=0,
            column_index=0,
            samples_seen=window,
            start_time_s=0.0,
            use_music=True,
        )
        with pytest.raises(ValueError, match="whole window"):
            StreamingTracker(CONFIG).restore(checkpoint)
        # A shorter carry must still run from next_start to samples_seen.
        short = dataclasses.replace(checkpoint, buffered=checkpoint.buffered[1:])
        with pytest.raises(ValueError, match="inconsistent"):
            StreamingTracker(CONFIG).restore(short)
        StreamingTracker(CONFIG).restore(dataclasses.replace(short, next_start=1))


class TestSessionResume:
    def test_resume_rejects_malformed_checkpoints(self):
        config = config_from_wire(FAST)
        with pytest.raises(SessionResumeError):
            ServeSession.resume("s1", config, checkpoint="nope")
        with pytest.raises(SessionResumeError):
            ServeSession.resume("s1", config, checkpoint={"tracker": 42})

    @pytest.mark.parametrize(
        "part, field, value",
        [
            ("tracker", "next_start", True),
            ("tracker", "column_index", "5"),
            ("tracker", "samples_seen", PUSHED + 0.9),
            ("tracker", "use_music", "false"),
            ("tracker", "start_time_s", True),
            ("health", "good_streak", "3"),
            ("health", "bad_streak", True),
            (None, "last_seq", -9),
        ],
    )
    def test_resume_refuses_a_mistyped_field(self, rng, part, field, value):
        # Every field must arrive as its JSON type: a bare ``int()``,
        # ``bool()`` or ``float()`` would read true as 1, "5" as 5,
        # 100.9 as 100 and "false" as True.
        config = config_from_wire(FAST)
        session = ServeSession("s0", config, resumable=True)
        session.ingest(synthetic_trace(rng, PUSHED))
        session.advance_seq(1)
        checkpoint = session.checkpoint()
        assert checkpoint["tracker"]["samples_seen"] == PUSHED
        (checkpoint if part is None else checkpoint[part])[field] = value
        with pytest.raises(SessionResumeError, match=field):
            ServeSession.resume("s1", config, checkpoint)

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
    def test_health_state_survives_resume(self):
        config = config_from_wire(FAST)
        session = ServeSession("s1", config, resumable=True)
        session.condition.machine.record_bad("nan burst")
        assert session.health is DeviceHealth.DEGRADED
        resumed = ServeSession.resume("s2", config, session.checkpoint())
        assert resumed.health is DeviceHealth.DEGRADED
        assert resumed.resumable
