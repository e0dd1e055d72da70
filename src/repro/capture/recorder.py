"""The recording tap: capture exactly what the tracker saw.

:class:`CaptureRecorder` holds the typed verbs over one capture's
writer.  Both block paths call them at the same points:
:class:`~repro.runtime.pipeline.StreamingPipeline` (``repro record``)
and :class:`~repro.serve.session.ServeSession` (``repro serve --record
DIR``) each hold an optional recorder.  Each block is recorded at the
tracker boundary, after screening and before the tracker, and each
health event, column and detection as it fires, so manifest events
land in stream order.

A capture therefore holds the delivered sample stream, not the offered
one.  Upstream drops are not samples to re-deliver but :class:`gap
events <repro.runtime.pipeline.GapEvent>` to re-enact: the pipeline
records the drop each block carries from the receive stream, and
replay resets the tracker before that block's chunk, as the live
pipeline did.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

import numpy as np

from repro.capture.format import CaptureWriter
from repro.runtime.pipeline import DetectionEvent, GapEvent, HealthEvent
from repro.runtime.tracker import SpectrogramColumn
from repro.encoding import floats_to_bytes, pack_floats

import zlib

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.schedule import FaultSchedule

# Manifest event kinds written by the recorder (and consumed by the
# replayer / determinism gate).
EVENT_GAP = "gap"
EVENT_HEALTH = "health"
EVENT_COLUMN = "column"
EVENT_DETECTION = "detection"
EVENT_FAULT_SCHEDULE = "fault_schedule"


class CaptureRecorder:
    """Typed verbs over a :class:`~repro.capture.format.CaptureWriter`.

    One recorder per capture; every verb appends a chunk or manifest
    line immediately (streaming, bounded memory).  The recorder is a
    context manager with the writer's semantics: seal on clean exit,
    leave truncated on error.
    """

    def __init__(self, writer: CaptureWriter):
        self.writer = writer

    # ------------------------------------------------------------------
    # Sample stream
    # ------------------------------------------------------------------

    def record_block(self, samples: np.ndarray, start_index: int) -> None:
        """One delivered sample block, exactly as the tracker saw it."""
        self.writer.append_chunk(samples, start_index)

    def record_gap(self, gap: GapEvent) -> None:
        """Samples vanished upstream just before ``gap.block_index``.

        Replay re-enacts this as a tracker reset before pushing the
        chunk whose ``start_index`` equals ``block_index``.
        """
        self.writer.append_event(
            EVENT_GAP,
            block_index=int(gap.block_index),
            dropped_samples=int(gap.dropped_samples),
        )

    # ------------------------------------------------------------------
    # Outcomes (the determinism gate's reference data)
    # ------------------------------------------------------------------

    def record_column(self, column: SpectrogramColumn) -> None:
        """One emitted spectrogram column, bit-exact.

        The power vector is stored packed with its own CRC32, so the
        replay comparison (``np.array_equal``) runs against exactly the
        floats the original run produced — and a corrupted manifest
        line is caught before it silently weakens the gate.
        """
        power = np.asarray(column.power, dtype=float)
        self.writer.append_event(
            EVENT_COLUMN,
            index=int(column.index),
            start_sample=int(column.start_sample),
            time_s=float(column.time_s),
            power=pack_floats(power),
            power_crc32=zlib.crc32(floats_to_bytes(power)),
            num_sources=int(column.num_sources),
            estimator=str(column.estimator),
        )

    def record_detection(self, detection: DetectionEvent) -> None:
        self.writer.append_event(
            EVENT_DETECTION,
            column_index=int(detection.column_index),
            time_s=float(detection.time_s),
            angle_deg=float(detection.angle_deg),
            strength_db=float(detection.strength_db),
        )

    def record_health(self, event: HealthEvent) -> None:
        self.writer.append_event(
            EVENT_HEALTH,
            block_index=int(event.block_index),
            state=event.state,
            reason=event.reason,
        )

    # ------------------------------------------------------------------
    # Provenance
    # ------------------------------------------------------------------

    def record_fault_schedule(self, schedule: FaultSchedule) -> None:
        """The injected fault schedule."""
        payload = {
            "seed": schedule.seed,
            "duration_s": schedule.duration_s,
            "events": [
                {
                    "kind": event.kind,
                    "start_s": event.start_s,
                    "duration_s": event.duration_s,
                    "magnitude": event.magnitude,
                }
                for event in schedule.events
            ],
        }
        self.writer.append_event(EVENT_FAULT_SCHEDULE, schedule=payload)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def seal(self, **totals: Any) -> None:
        self.writer.seal(**totals)

    def abort(self) -> None:
        self.writer.abort()

    def __enter__(self) -> "CaptureRecorder":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.writer.__exit__(exc_type, exc, tb)
