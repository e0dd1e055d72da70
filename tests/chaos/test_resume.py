"""Checkpoint/resume: validation, seq semantics, resumed health.

The resume acceptance criterion from the failure model (a session
killed mid-stream and resumed from its last reply's checkpoint serves
columns ``np.array_equal`` to an uninterrupted run, through a NaN
burst) is a pinned scenario of the differential harness
(``tests/test_differential.py``); these tests hold what it does not
reach: malformed and FAILED checkpoints, seq rules, and the
health-machine state a resume carries.
"""

import pytest

from repro.core.monitoring import DeviceHealth
from repro.core.tracking import TrackingConfig
from repro.errors import ProtocolError, SequenceError, SessionResumeError
from repro.runtime.tracker import StreamingTracker
from repro.serve.session import ServeSession, config_from_wire

from tests.helpers import FAST

CONFIG = TrackingConfig(**FAST)


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
    def test_health_state_survives_resume(self):
        config = config_from_wire(FAST)
        session = ServeSession("s1", config, resumable=True)
        session.condition.machine.record_bad("nan burst")
        assert session.health is DeviceHealth.DEGRADED
        resumed = ServeSession.resume("s2", config, session.checkpoint())
        assert resumed.health is DeviceHealth.DEGRADED
        assert resumed.resumable
