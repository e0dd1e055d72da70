"""Shared fixtures for the capture record/replay test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.capture import CaptureRecorder, CaptureStore
from repro.core.tracking import TrackingConfig
from repro.hardware.streaming import RxStreamer
from repro.runtime import (
    DetectStage,
    GapEvent,
    StreamingPipeline,
    StreamingTracker,
)
from repro.telemetry.context import reset_telemetry

from tests.helpers import FAST, synthetic_trace


@pytest.fixture(autouse=True)
def _clean_telemetry():
    reset_telemetry()
    yield
    reset_telemetry()


@pytest.fixture
def fast_config() -> TrackingConfig:
    return TrackingConfig(**FAST)


@pytest.fixture
def store(tmp_path) -> CaptureStore:
    return CaptureStore(tmp_path / "store")


@pytest.fixture
def make_trace(rng):
    """A callable building deterministic traces of any length."""

    def _make(num_samples: int = 480) -> np.ndarray:
        return synthetic_trace(rng, num_samples)

    return _make


@pytest.fixture
def record(store):
    """A callable recording a trace through the tapped pipeline."""

    def _record(samples, config, **kwargs):
        return record_pipeline(store, samples, config, **kwargs)

    return _record


def record_pipeline(
    store: CaptureStore,
    samples: np.ndarray,
    config: TrackingConfig,
    block_size: int = 50,
    pushes_per_read: int = 1,
    source: str = "stream",
):
    """Record ``samples`` through a full streaming pipeline's recorder.

    The samples reach the pipeline in ``block_size`` buffers through a
    2-deep :class:`RxStreamer` that is read after every
    ``pushes_per_read`` pushes; more than 2 overruns the stream, and
    each overrun is a recorded gap.  Returns ``(capture_id, gaps)``,
    the :class:`GapEvent` list the pipeline raised.
    """
    streamer = RxStreamer(max_buffers=2)
    writer = store.create(
        source=source,
        config=config,
        sample_rate_hz=1.0 / config.sample_period_s,
    )
    recorder = CaptureRecorder(writer)
    pipeline = StreamingPipeline(
        streamer,
        StreamingTracker(config),
        detector=DetectStage(config.theta_grid_deg),
        recorder=recorder,
    )
    events = []
    with recorder:
        for k, offset in enumerate(range(0, len(samples), block_size), start=1):
            streamer.push(samples[offset : offset + block_size])
            if k % pushes_per_read == 0:
                events.extend(pipeline.process())
        events.extend(pipeline.process())
    return writer.header.capture_id, [e for e in events if isinstance(e, GapEvent)]
