"""Shared fixtures for the capture record/replay test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.capture import CaptureRecorder, CaptureStore, RecordingBlockSource
from repro.core.tracking import TrackingConfig
from repro.runtime import BlockSource, DetectStage, StreamingPipeline, StreamingTracker
from repro.telemetry.context import reset_telemetry

from tests.helpers import synthetic_trace

#: A light config so record/replay tests emit several columns from a
#: few hundred samples.
FAST = {"window_size": 64, "hop": 16, "subarray_size": 24}


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
    chunk_size: int | None = None,
    ring_capacity: int | None = None,
    source: str = "stream",
):
    """Record ``samples`` through a full, tapped streaming pipeline.

    ``chunk_size`` sets the upstream delivery granularity; push chunks
    larger than ``ring_capacity`` to force drops (recorded gaps).
    Returns ``(capture_id, StreamResult)``.
    """
    chunk_size = chunk_size if chunk_size is not None else block_size
    chunks = [
        samples[offset : offset + chunk_size]
        for offset in range(0, len(samples), chunk_size)
    ]
    writer = store.create(
        source=source,
        config=config,
        sample_rate_hz=1.0 / config.sample_period_s,
    )
    recorder = CaptureRecorder(writer)
    tracker = StreamingTracker(config)
    tap = RecordingBlockSource(
        BlockSource(iter(chunks), block_size, ring_capacity=ring_capacity),
        recorder,
    )
    pipeline = StreamingPipeline(tap, tracker, detector=DetectStage())
    with recorder:
        result = pipeline.run()
        for column in result.columns:
            recorder.record_column(column)
        for detection in result.detections:
            recorder.record_detection(detection)
        for event in result.health_events:
            recorder.record_health(event)
    return writer.header.capture_id, result
