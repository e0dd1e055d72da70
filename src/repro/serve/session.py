"""Per-client session state for the sensing service.

Each connected client session owns the full single-tenant streaming
stack in miniature: a PR-2 :class:`~repro.runtime.tracker.
StreamingTracker` (window alignment + column bookkeeping), a PR-1
health machine driven block by block through the runtime's
:class:`~repro.runtime.pipeline.ConditionStage`, and a per-session
:class:`~repro.runtime.pipeline.DetectStage`.  Faults therefore
degrade *per session*: a client streaming NaN bursts walks its own
machine to DEGRADED (and eventually FAILED, closing only that
session) while every other session stays HEALTHY.

What a session does **not** own is the estimator: completed windows
are handed to the cross-session micro-batching scheduler
(:mod:`repro.serve.scheduler`), and the frames come back through
:meth:`ServeSession.resolve`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.core.monitoring import DeviceHealth
from repro.core.tracking import TrackingConfig
from repro.errors import (
    DeviceFailedError,
    ProtocolError,
    SequenceError,
    SessionResumeError,
)
from repro.runtime.pipeline import (
    ConditionStage,
    DetectStage,
    DetectionEvent,
    HealthEvent,
)
from repro.hardware.streaming import SampleBlock
from repro.runtime.tracker import (
    PendingWindow,
    SpectrogramColumn,
    StreamingTracker,
)
from repro.core.tracking import SpectrogramFrame
from repro.serve import protocol

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.capture.recorder import CaptureRecorder

#: TrackingConfig fields a client may override in ``open_session``.
#: Geometry-level knobs only — wavelength/speed/grid stay server-side
#: policy, like a real deployment's calibrated constants.
CONFIGURABLE_FIELDS = (
    "window_size",
    "hop",
    "subarray_size",
    "max_sources",
    "condition_limit",
)


def config_from_wire(overrides: dict[str, Any] | None) -> TrackingConfig:
    """Build a session's :class:`TrackingConfig` from wire overrides.

    Raises:
        ProtocolError: unknown field, wrong type, or a combination the
            config itself rejects.
    """
    overrides = overrides or {}
    if not isinstance(overrides, dict):
        raise ProtocolError("config must be a JSON object")
    unknown = sorted(set(overrides) - set(CONFIGURABLE_FIELDS))
    if unknown:
        raise ProtocolError(
            f"unknown config field(s) {', '.join(unknown)}; "
            f"configurable: {', '.join(CONFIGURABLE_FIELDS)}"
        )
    kwargs: dict[str, Any] = {}
    for name, value in overrides.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ProtocolError(f"config field {name!r} must be a number")
        kwargs[name] = float(value) if name == "condition_limit" else int(value)
    try:
        return TrackingConfig(**kwargs)
    except ValueError as exc:
        raise ProtocolError(f"invalid session config: {exc}") from None


@dataclass
class SessionStats:
    """Per-session accounting the close frame reports."""

    pushes: int = 0
    samples_in: int = 0
    columns_out: int = 0
    detections: int = 0
    shed_requests: int = 0

    def snapshot(self) -> dict[str, int]:
        """The counters by name, in field order."""
        return {name: getattr(self, name) for name in STATS_FIELDS}


#: :class:`SessionStats`' field names, in declaration order.
STATS_FIELDS = tuple(f.name for f in fields(SessionStats))


@dataclass
class IngestResult:
    """What one accepted push produced (before estimation)."""

    pending: list[PendingWindow]
    health_events: list[HealthEvent] = field(default_factory=list)


class ServeSession:
    """One client's sensing state inside the multi-session server."""

    def __init__(
        self,
        session_id: str,
        config: TrackingConfig,
        use_music: bool = True,
        start_time_s: float = 0.0,
        resumable: bool = False,
    ):
        self.id = session_id
        self.config = config
        self.use_music = use_music
        self.resumable = resumable
        self.tracker = StreamingTracker(
            config, start_time_s=start_time_s, use_music=use_music
        )
        self.condition = ConditionStage()
        self.detector = DetectStage(theta_grid_deg=config.theta_grid_deg)
        self.stats = SessionStats()
        self.closed = False
        #: Highest ``seq`` applied to the tracker (0 before any push).
        self.last_seq = 0
        #: Optional capture tap (``repro serve --record DIR``): when
        #: set, every block the tracker ingests, every health event,
        #: and every resolved column is recorded through it — exactly
        #: what this session saw, nothing the admission layer refused.
        self.recorder: CaptureRecorder | None = None

    # ------------------------------------------------------------------
    # Idempotent sequencing
    # ------------------------------------------------------------------

    def check_seq(self, seq: Any) -> bool:
        """Classify a push's sequence number before any buffering.

        Returns ``True`` for the next in-order seq (apply the push and
        call :meth:`advance_seq` once it lands), ``False`` for a
        duplicate (already applied — acknowledge idempotently, touch
        nothing).

        Raises:
            ProtocolError: ``seq`` is not a positive integer.
            SequenceError: ``seq`` skips ahead of the next expected
                number — the push is refused whole, tracker untouched.
        """
        if isinstance(seq, bool) or not isinstance(seq, int) or seq < 1:
            raise ProtocolError("seq must be a positive integer")
        if seq <= self.last_seq:
            return False
        if seq > self.last_seq + 1:
            raise SequenceError(
                f"push seq {seq} skips ahead of expected {self.last_seq + 1}; "
                "re-send pushes in order"
            )
        return True

    def advance_seq(self, seq: int) -> None:
        self.last_seq = seq

    # ------------------------------------------------------------------
    # Checkpoint / resume
    # ------------------------------------------------------------------

    def checkpoint(self) -> dict[str, Any]:
        """The session's resume checkpoint as a wire-ready dict.

        Deterministic: a session restored from it (same config, same
        subsequent pushes) serves columns ``np.array_equal`` to this
        one's.  Taken between pushes — the push handler attaches it to
        each reply *after* resolving that push's windows.
        """
        return {
            "tracker": protocol.tracker_checkpoint_to_wire(self.tracker.checkpoint()),
            "health": self.condition.machine.snapshot_state(),
            "bad_blocks": self.condition.bad_block_count,
            "stats": self.stats.snapshot(),
            "last_seq": self.last_seq,
        }

    @classmethod
    def resume(
        cls,
        session_id: str,
        config: TrackingConfig,
        checkpoint: dict[str, Any],
        use_music: bool = True,
        start_time_s: float = 0.0,
    ) -> "ServeSession":
        """Rebuild a session from a client-presented checkpoint.

        Raises:
            SessionResumeError: the checkpoint is malformed or
                inconsistent with the presented config.
        """
        if not isinstance(checkpoint, dict):
            raise SessionResumeError("resume checkpoint must be a JSON object")
        session = cls(
            session_id=session_id,
            config=config,
            use_music=use_music,
            start_time_s=start_time_s,
            resumable=True,
        )
        try:
            tracker_cp = protocol.tracker_checkpoint_from_wire(
                checkpoint.get("tracker")
            )
            session.tracker.restore(tracker_cp)
            session.condition.machine.restore_state(checkpoint.get("health", {}))
            session.condition.bad_block_count = protocol.counter_from_wire(
                checkpoint.get("bad_blocks", 0), "bad_blocks"
            )
            stats = checkpoint.get("stats", {})
            if not isinstance(stats, dict):
                raise ValueError("stats must be a JSON object")
            for name in STATS_FIELDS:
                value = protocol.counter_from_wire(stats.get(name, 0), name)
                setattr(session.stats, name, value)
            session.last_seq = protocol.counter_from_wire(
                checkpoint.get("last_seq", 0), "last_seq"
            )
        except (ProtocolError, TypeError, ValueError) as exc:
            raise SessionResumeError(f"cannot resume session: {exc}") from None
        if session.health is DeviceHealth.FAILED:
            raise SessionResumeError(
                "checkpoint health state is FAILED; the session cannot resume"
            )
        return session

    # ------------------------------------------------------------------
    # Health
    # ------------------------------------------------------------------

    @property
    def health(self) -> DeviceHealth:
        return self.condition.machine.state

    def _screen(self, samples: np.ndarray) -> list[HealthEvent]:
        """Drive the session's health machine with this block.

        A served session has no radio to re-run Algorithm 1 on, so a
        machine that asks for RECALIBRATING cannot be obliged: each
        *bad* block that lands in that state counts as a failed
        recalibration, and the failure budget
        (:data:`~repro.core.monitoring.MAX_RECALIBRATION_FAILURES`) walks
        the session to FAILED instead of parking a faulty stream forever.
        Clean blocks are not failures — a transient burst leaves the
        session degraded but alive.

        Raises:
            DeviceFailedError: the machine just reached FAILED — the
                session is dead (the server closes it), but only this
                session.
        """
        block = SampleBlock(samples=samples, start_index=self.tracker.samples_seen)
        condition = self.condition
        bad_before = condition.bad_block_count
        events = condition.process(block)
        if (
            self.health is DeviceHealth.RECALIBRATING
            and condition.bad_block_count > bad_before
        ):
            before = len(condition.machine.transitions)
            condition.machine.recalibration_failed(
                f"session {self.id} has no radio to recalibrate"
            )
            events += condition.events_since(before, block.start_index)
        if self.health is DeviceHealth.FAILED:
            raise DeviceFailedError(
                f"session {self.id} health machine reached FAILED"
            )
        return events

    # ------------------------------------------------------------------
    # Ingest / resolve
    # ------------------------------------------------------------------

    def validate_push(self, samples: np.ndarray) -> int:
        """Pre-admission checks; returns the windows this push completes.

        Nothing is buffered yet — the scheduler's admission decision
        happens between this and :meth:`ingest`, so a shed push leaves
        the session's window alignment untouched.

        Raises:
            ProtocolError: empty, oversized, or misshapen payload.
        """
        if samples.ndim != 1:
            raise ProtocolError("samples must be one-dimensional")
        if len(samples) == 0:
            raise ProtocolError("push_blocks carried no samples")
        if len(samples) > protocol.MAX_PUSH_SAMPLES:
            raise ProtocolError(
                f"push of {len(samples)} samples exceeds the per-request "
                f"limit of {protocol.MAX_PUSH_SAMPLES}"
            )
        return self.tracker.expected_windows(len(samples))

    def ingest(self, samples: np.ndarray) -> IngestResult:
        """Screen + buffer an admitted block; drain its ready windows."""
        health_events = self._screen(samples)
        if self.recorder is not None:
            # Record at the tracker boundary: the block passed
            # screening (one that killed the session raised above and
            # never reached the tracker), and ``samples_seen`` is its
            # delivered-stream start index — a shed or duplicate push
            # never gets here, so the capture holds exactly the blocks
            # the tracker consumed, in order.
            self.recorder.record_block(samples, self.tracker.samples_seen)
            for event in health_events:
                self.recorder.record_health(event)
        self.tracker.ingest(samples)
        pending = self.tracker.poll_ready_windows()
        self.stats.pushes += 1
        self.stats.samples_in += len(samples)
        return IngestResult(pending=pending, health_events=health_events)

    def resolve(
        self, pending: PendingWindow, frame: SpectrogramFrame
    ) -> tuple[SpectrogramColumn, DetectionEvent | None]:
        """Complete one scheduled window: column + optional detection."""
        column = self.tracker.resolve(pending, frame)
        detection = self.detector.process(column)
        self.stats.columns_out += 1
        if detection is not None:
            self.stats.detections += 1
        if self.recorder is not None:
            self.recorder.record_column(column)
            if detection is not None:
                self.recorder.record_detection(detection)
        return column, detection

    def snapshot(self) -> dict[str, Any]:
        """The session as the observe gateway's ``/api/sessions`` reports it.

        Read-only operator view: health-machine state, idempotent-seq
        progress, throughput accounting, and the degradation counters
        (screened-bad blocks, shed pushes) an operator triages a
        session with.
        """
        return {
            "session": self.id,
            "health": self.health.value,
            "closed": self.closed,
            "resumable": self.resumable,
            "use_music": self.use_music,
            "window_size": self.config.window_size,
            "hop": self.config.hop,
            "last_seq": self.last_seq,
            **self.stats.snapshot(),
            "bad_blocks": self.condition.bad_block_count,
            "recording": self.recorder is not None,
            "dsp_backend": self.tracker.dsp_backend,
        }

    def close(self) -> dict[str, Any]:
        """Mark the session closed; return the ``session_closed`` body."""
        self.closed = True
        return {
            "session": self.id,
            **self.stats.snapshot(),
            "health": self.health.value,
        }
