"""The streaming stage graph: source -> condition -> track -> detect -> sink.

This is the online counterpart of ``WiViDevice.image``: instead of
"capture 25 s, then process", sample blocks flow through a short chain
of stages and spectrogram columns, detections, and health events come
out the other end with bounded latency.  Each stage charges its work to
:class:`repro.telemetry.metrics.RuntimeMetrics`, and the condition stage
drives the PR-1 health machine
(:class:`repro.core.monitoring.HealthStateMachine`) block by block, so
an injected fault becomes a visible HEALTHY -> DEGRADED transition
*while the stream runs* rather than a post-mortem.

Events are delivered two ways: :meth:`StreamingPipeline.process` is a
generator yielding them as they happen (the CLI's live display), and
:meth:`StreamingPipeline.run` drains the stream into a
:class:`StreamResult`.  A pipeline given a ``recorder`` also records
the run as it goes (:mod:`repro.capture.recorder`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.core.monitoring import DeviceHealth, HealthStateMachine, screen_block
from repro.core.tracking import MotionSpectrogram
from repro.hardware.streaming import RxStreamer, SampleBlock
from repro.telemetry.metrics import RuntimeMetrics, StageTimer
from repro.runtime.tracker import SpectrogramColumn, StreamingTracker
from repro.telemetry.context import get_telemetry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.capture.recorder import CaptureRecorder

# ----------------------------------------------------------------------
# Events
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ColumnEvent:
    """A spectrogram column completed."""

    column: SpectrogramColumn


@dataclass(frozen=True)
class DetectionEvent:
    """A moving target outshone the DC stripe in one column."""

    column_index: int
    time_s: float
    angle_deg: float
    strength_db: float


@dataclass(frozen=True)
class HealthEvent:
    """The health machine changed state mid-stream."""

    block_index: int
    state: DeviceHealth
    reason: str


@dataclass(frozen=True)
class GapEvent:
    """The receive stream dropped samples just before ``block_index``.

    The tracker is reset when a gap lands — phase continuity does not
    survive missing samples, so windows restart cleanly after the gap.
    """

    block_index: int
    dropped_samples: int


StreamEvent = ColumnEvent | DetectionEvent | HealthEvent | GapEvent


# ----------------------------------------------------------------------
# Condition stage
# ----------------------------------------------------------------------


class ConditionStage:
    """Screens each block and drives the health machine.

    A block whose damage or saturation exceeds the recovery thresholds
    of :mod:`repro.core.monitoring` is a *bad* block: the machine
    degrades (with its hysteresis), and the state transition surfaces
    as a :class:`HealthEvent`.  Blocks pass through unrepaired — the
    golden-equivalence contract wants the tracker to see exactly what
    the radio delivered, and the MUSIC degeneracy guard already handles
    corrupt windows frame by frame.
    """

    def __init__(self):
        self.machine = HealthStateMachine()
        self.bad_block_count = 0

    def process(self, block: SampleBlock) -> list[HealthEvent]:
        """Screen one block; report the health transitions it caused."""
        health = screen_block(block.samples)
        before = len(self.machine.transitions)
        if health.beyond_repair:
            self.bad_block_count += 1
            self.machine.record_bad(
                f"bad block (nan={health.nan_fraction:.3f}, "
                f"zero={health.zero_fraction:.3f}, "
                f"sat={health.saturation_fraction:.3f})"
            )
        elif health.damaged_fraction > 0:
            self.bad_block_count += 1
            self.machine.record_bad(
                f"damaged block (nan={health.nan_fraction:.3f}, "
                f"zero={health.zero_fraction:.3f})"
            )
        else:
            self.machine.record_good()
        return self.events_since(before, block.start_index)

    def events_since(self, before: int, block_index: int) -> list[HealthEvent]:
        """The machine's transitions from number ``before`` on, as
        events of the block starting at ``block_index``."""
        return [
            HealthEvent(
                block_index=block_index,
                state=transition.target,
                reason=transition.reason,
            )
            for transition in self.machine.transitions[before:]
        ]


# ----------------------------------------------------------------------
# Detect stage
# ----------------------------------------------------------------------


#: Half-width of the DC stripe around 0° that detection ignores.
DC_GUARD_DEG = 10.0
#: A detection fires when the strongest off-DC peak stands more than
#: this far above the DC stripe.
DETECT_THRESHOLD_DB = 0.0


class DetectStage:
    """Flags columns whose off-DC peak outshines the DC stripe.

    A detection fires when the strongest peak outside the
    :data:`DC_GUARD_DEG` stripe stands more than
    :data:`DETECT_THRESHOLD_DB` above the stripe's own (cf.
    :func:`repro.core.detection.peak_to_dc_ratio_db`, per column).
    """

    def __init__(self, theta_grid_deg: np.ndarray):
        self.theta_grid_deg = np.asarray(theta_grid_deg)
        self._off_dc = np.abs(self.theta_grid_deg) >= DC_GUARD_DEG
        if not np.any(self._off_dc) or np.all(self._off_dc):
            raise ValueError("DC guard leaves an empty region")

    def process(self, column: SpectrogramColumn) -> DetectionEvent | None:
        db = 20.0 * np.log10(np.maximum(column.power, np.finfo(float).tiny))
        off = self._off_dc
        peak_off = float(db[off].max())
        peak_dc = float(db[~off].max())
        strength = peak_off - peak_dc
        if strength <= DETECT_THRESHOLD_DB:
            return None
        masked = np.where(off, db, -np.inf)
        angle = float(self.theta_grid_deg[int(np.argmax(masked))])
        return DetectionEvent(
            column_index=column.index,
            time_s=column.time_s,
            angle_deg=angle,
            strength_db=strength,
        )


# ----------------------------------------------------------------------
# The pipeline
# ----------------------------------------------------------------------


@dataclass
class StreamResult:
    """Everything a drained stream produced."""

    columns: list[SpectrogramColumn] = field(default_factory=list)
    detections: list[DetectionEvent] = field(default_factory=list)
    health_events: list[HealthEvent] = field(default_factory=list)
    gaps: list[GapEvent] = field(default_factory=list)
    metrics: RuntimeMetrics = field(default_factory=RuntimeMetrics)

    def spectrogram(self, tracker: StreamingTracker) -> MotionSpectrogram:
        """The offline-shaped image assembled from the emitted columns."""
        return StreamingTracker.assemble(self.columns, tracker.config)


class StreamingPipeline:
    """Wires source -> condition -> track -> detect -> sink.

    Args:
        source: the receive stream the pipeline reads blocks from.
        tracker: the incremental spectrogram stage.
        condition: block screening + health machine (optional; built
            with defaults when omitted).
        detector: per-column motion detection (None disables it).
        sink: callback invoked with every event, in stream order (the
            CLI's live printer; metrics charge its time to "sink").
        recorder: optional capture tap (``repro record``): every gap,
            block, health event, column and detection is recorded
            through it where the stage graph sees it, with the verbs a
            serve session calls, so the capture holds exactly the
            blocks the tracker consumed, in stream order.
    """

    def __init__(
        self,
        source: RxStreamer,
        tracker: StreamingTracker,
        condition: ConditionStage | None = None,
        detector: DetectStage | None = None,
        sink=None,
        recorder: CaptureRecorder | None = None,
    ):
        self.source = source
        self.tracker = tracker
        self.condition = condition if condition is not None else ConditionStage()
        self.detector = detector
        self.sink = sink
        self.recorder = recorder
        self.metrics = RuntimeMetrics()
        # Share the tracker's own metrics object under its stage name.
        self.metrics.stages["track"] = tracker.metrics

    @property
    def health(self) -> DeviceHealth:
        """The machine's current state (visible mid-stream)."""
        return self.condition.machine.state

    def _deliver(self, event: StreamEvent) -> StreamEvent:
        telemetry = get_telemetry()
        if telemetry.enabled:
            if isinstance(event, DetectionEvent):
                telemetry.metrics.counter("stream.detections").inc()
                telemetry.events.emit(
                    "stream.detection",
                    column_index=event.column_index,
                    time_s=event.time_s,
                    angle_deg=event.angle_deg,
                    strength_db=event.strength_db,
                )
            elif isinstance(event, GapEvent):
                telemetry.metrics.counter("stream.gap_samples").inc(
                    event.dropped_samples
                )
                telemetry.events.emit(
                    "stream.gap",
                    block_index=event.block_index,
                    dropped_samples=event.dropped_samples,
                )
        if self.sink is not None:
            with StageTimer(self.metrics.stage("sink"), items_in=1):
                self.sink(event)
        return event

    def process(self):
        """Generator over stream events, in order, until the stream
        runs dry.

        While the stream is open, re-invoking the generator after more
        pushes continues it (state lives in the stages, not in the
        generator).
        """
        recorder = self.recorder
        while True:
            with StageTimer(self.metrics.stage("source")) as source_timer:
                block = self.source.recv()
                source_timer.items_out = 0 if block is None else len(block)
            if block is None:
                return
            if block.dropped_before:
                gap = GapEvent(block.start_index, block.dropped_before)
                self.tracker.reset()
                if recorder is not None:
                    recorder.record_gap(gap)
                yield self._deliver(gap)
            with StageTimer(
                self.metrics.stage("condition"), items_in=len(block)
            ) as timer:
                health_events = self.condition.process(block)
                timer.items_out = len(block)
            if recorder is not None:
                recorder.record_block(block.samples, block.start_index)
                for event in health_events:
                    recorder.record_health(event)
            for event in health_events:
                yield self._deliver(event)
            columns = self.tracker.push(block.samples)
            for column in columns:
                if recorder is not None:
                    recorder.record_column(column)
                yield self._deliver(ColumnEvent(column))
                if self.detector is not None:
                    with StageTimer(
                        self.metrics.stage("detect"), items_in=1
                    ) as timer:
                        detection = self.detector.process(column)
                        timer.items_out = 0 if detection is None else 1
                    if detection is not None:
                        if recorder is not None:
                            recorder.record_detection(detection)
                        yield self._deliver(detection)

    def run(self) -> StreamResult:
        """Drain the stream and collect everything it produced."""
        result = StreamResult(metrics=self.metrics)
        for event in self.process():
            if isinstance(event, ColumnEvent):
                result.columns.append(event.column)
            elif isinstance(event, DetectionEvent):
                result.detections.append(event)
            elif isinstance(event, HealthEvent):
                result.health_events.append(event)
            elif isinstance(event, GapEvent):
                result.gaps.append(event)
        return result
