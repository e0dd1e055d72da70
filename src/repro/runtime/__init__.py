"""repro.runtime — the online streaming sensing engine.

The offline pipeline answers "what happened in this 25 s trace"; this
package answers it *while the trace is still arriving*: incremental
sliding-window spectrogram estimation over the sample blocks the
receive stream (:mod:`repro.hardware.streaming`) delivers, keeping
less than one window between pushes and matching the batch pipeline
bit for bit (:mod:`~repro.runtime.tracker`), a stage graph with
per-stage latency/throughput metrics and mid-stream health visibility
(:mod:`~repro.runtime.pipeline`), and a parallel campaign executor
with seed-stable, order-independent results
(:mod:`~repro.runtime.parallel`).

The CLI front end is ``python -m repro stream``.
"""

from repro.core.monitoring import BlockHealth, screen_block
from repro.hardware.streaming import SampleBlock
from repro.telemetry.metrics import RuntimeMetrics, StageMetrics, StageTimer
from repro.runtime.parallel import (
    ParallelCampaignReport,
    merge_condition_metrics,
    run_campaign_parallel,
)
from repro.runtime.pipeline import (
    ColumnEvent,
    ConditionStage,
    DetectStage,
    DetectionEvent,
    GapEvent,
    HealthEvent,
    StreamingPipeline,
    StreamResult,
)
from repro.runtime.tracker import (
    PendingWindow,
    SpectrogramColumn,
    StreamingTracker,
    TrackerCheckpoint,
)

__all__ = [
    "BlockHealth",
    "ColumnEvent",
    "ConditionStage",
    "DetectStage",
    "DetectionEvent",
    "GapEvent",
    "HealthEvent",
    "ParallelCampaignReport",
    "PendingWindow",
    "RuntimeMetrics",
    "SampleBlock",
    "SpectrogramColumn",
    "StageMetrics",
    "StageTimer",
    "StreamResult",
    "StreamingPipeline",
    "StreamingTracker",
    "TrackerCheckpoint",
    "merge_condition_metrics",
    "run_campaign_parallel",
    "screen_block",
]
