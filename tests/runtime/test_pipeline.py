"""Stage-graph behaviour: event ordering, mid-stream health, gaps."""

import numpy as np
import pytest

from repro.core.monitoring import DeviceHealth
from repro.core.tracking import compute_spectrogram
from repro.hardware.streaming import RxStreamer
from repro.runtime import pipeline as pipeline_module
from repro.runtime import (
    ColumnEvent,
    ConditionStage,
    DetectStage,
    DetectionEvent,
    GapEvent,
    HealthEvent,
    SpectrogramColumn,
    StreamingPipeline,
    StreamingTracker,
    screen_block,
)


def _trace(rng, num_samples=400):
    n = np.arange(num_samples)
    return (
        np.exp(1j * 0.1 * n)
        + 0.3 * (rng.standard_normal(num_samples) + 1j * rng.standard_normal(num_samples))
        + 0.5
    )


def _chunks(samples, size):
    return [samples[i : i + size] for i in range(0, len(samples), size)]


def _pipeline(samples, config, chunk=64, **kwargs):
    # A closed stream deep enough for every chunk: nothing is dropped.
    chunks = _chunks(samples, chunk)
    streamer = RxStreamer(max_buffers=len(chunks))
    for block in chunks:
        streamer.push(block)
    streamer.close()
    tracker = StreamingTracker(config)
    return StreamingPipeline(streamer, tracker, **kwargs), tracker


class TestEventFlow:
    def test_clean_stream_yields_ordered_columns(self, rng, fast_tracking_config):
        samples = _trace(rng)
        pipeline, tracker = _pipeline(samples, fast_tracking_config)
        events = list(pipeline.process())
        assert all(isinstance(e, ColumnEvent) for e in events)
        indices = [e.column.index for e in events]
        assert indices == list(range(len(events)))
        assert pipeline.health is DeviceHealth.HEALTHY

    def test_run_matches_offline_spectrogram(self, rng, fast_tracking_config):
        samples = _trace(rng)
        pipeline, tracker = _pipeline(samples, fast_tracking_config)
        result = pipeline.run()
        offline = compute_spectrogram(samples, fast_tracking_config)
        online = result.spectrogram(tracker)
        assert np.array_equal(offline.power, online.power)
        assert np.array_equal(offline.times_s, online.times_s)

    def test_sink_sees_every_event_in_order(self, rng, fast_tracking_config):
        samples = _trace(rng, num_samples=300)
        seen = []
        pipeline, _ = _pipeline(
            samples, fast_tracking_config, sink=seen.append
        )
        events = list(pipeline.process())
        assert seen == events
        sink = pipeline.metrics.stages["sink"]
        assert sink.invocations == len(events)

    def test_metrics_account_all_stages(self, rng, fast_tracking_config):
        samples = _trace(rng)
        pipeline, tracker = _pipeline(samples, fast_tracking_config)
        result = pipeline.run()
        stages = pipeline.metrics.stages
        assert {"track", "source", "condition"} <= set(stages)
        assert stages["track"] is tracker.metrics
        assert stages["condition"].items_in == len(samples)
        assert stages["source"].items_out == len(samples)
        assert stages["track"].items_out == len(result.columns)

    def test_generator_resumes_across_polls(self, rng, fast_tracking_config):
        # State lives in the stages: an exhausted generator can be
        # re-created after more data arrives and the stream continues.
        samples = _trace(rng, num_samples=256)
        streamer = RxStreamer()
        tracker = StreamingTracker(fast_tracking_config)
        pipeline = StreamingPipeline(streamer, tracker)

        streamer.push(samples[:128])
        first = list(pipeline.process())
        streamer.push(samples[128:])
        streamer.close()
        second = list(pipeline.process())

        columns = [e.column for e in first + second if isinstance(e, ColumnEvent)]
        offline = compute_spectrogram(samples, fast_tracking_config)
        online = StreamingTracker.assemble(columns, fast_tracking_config)
        assert np.array_equal(offline.power, online.power)


class TestHealthMidStream:
    def test_bad_block_degrades_then_recovers_with_hysteresis(
        self, rng, fast_tracking_config
    ):
        samples = _trace(rng, num_samples=5 * 64)
        samples[10:20] = complex(np.nan, np.nan)  # damages block 0 only
        # Recovery needs two consecutive clean blocks (RECOVER_AFTER_GOOD).
        pipeline, _ = _pipeline(
            samples, fast_tracking_config, condition=ConditionStage()
        )
        result = pipeline.run()
        states = [e.state for e in result.health_events]
        assert states == [DeviceHealth.DEGRADED, DeviceHealth.HEALTHY]
        # One clean block is not enough to recover (hysteresis): the
        # HEALTHY event must land on the second clean block or later.
        degraded_at, healthy_at = (e.block_index for e in result.health_events)
        assert healthy_at >= degraded_at + 2 * 64
        assert pipeline.health is DeviceHealth.HEALTHY
        assert pipeline.condition.bad_block_count == 1

    def test_persistent_faults_escalate_to_recalibrating(
        self, rng, fast_tracking_config
    ):
        samples = _trace(rng, num_samples=4 * 64)
        samples[:] = np.where(
            np.arange(len(samples)) % 3 == 0, complex(np.nan, np.nan), samples
        )
        # Two consecutive bad blocks escalate (RECALIBRATE_AFTER_BAD).
        pipeline, _ = _pipeline(
            samples, fast_tracking_config, condition=ConditionStage()
        )
        result = pipeline.run()
        states = [e.state for e in result.health_events]
        # A stream cannot recalibrate itself mid-flight, so the state
        # is sticky once reached — visible, not auto-resolved.
        assert states == [DeviceHealth.DEGRADED, DeviceHealth.RECALIBRATING]
        assert pipeline.health is DeviceHealth.RECALIBRATING

    def test_unrepaired_nans_fall_back_per_frame(self, rng, fast_tracking_config):
        samples = _trace(rng, num_samples=4 * 64)
        samples[70:80] = complex(np.nan, np.nan)
        pipeline, _ = _pipeline(samples, fast_tracking_config)
        result = pipeline.run()
        estimators = {c.estimator for c in result.columns}
        assert estimators == {"music", "beamforming"}


class TestGaps:
    def test_ring_overflow_surfaces_as_gap_and_resets_tracker(
        self, rng, fast_tracking_config
    ):
        # The receive stream's 2-buffer queue overruns mid-stream: four
        # blocks arrive between two reads, so the oldest two of them
        # (blocks 4 and 5, 128 samples) are evicted.
        config = fast_tracking_config
        samples = _trace(rng, num_samples=12 * 64)
        blocks = _chunks(samples, 64)
        streamer = RxStreamer(max_buffers=2)
        pipeline = StreamingPipeline(streamer, StreamingTracker(config))
        events = []
        for k, block in enumerate(blocks):
            streamer.push(block)
            if not 4 <= k < 7:
                events.extend(pipeline.process())
        assert streamer.dropped_sample_count == 128
        gaps = [e for e in events if isinstance(e, GapEvent)]
        # One gap, on the first block after the hole (delivered index
        # 256), carrying exactly the evicted samples.
        assert gaps == [GapEvent(block_index=256, dropped_samples=128)]
        columns = [e.column for e in events if isinstance(e, ColumnEvent)]
        # No window straddles the hole: the columns are offline compute
        # of the samples before it, then of the samples after it.
        before = compute_spectrogram(samples[:256], config)
        after = compute_spectrogram(samples[384:], config)
        assert np.array_equal(
            np.stack([c.power for c in columns]),
            np.concatenate([before.power, after.power]),
        )
        # The gap comes first; the next column starts at the hole.
        after_gap = events[events.index(gaps[0]) + 1]
        assert after_gap.column.start_sample == 256

    def test_no_gap_on_clean_stream(self, rng, fast_tracking_config):
        samples = _trace(rng, num_samples=256)
        pipeline, _ = _pipeline(samples, fast_tracking_config)
        assert pipeline.run().gaps == []


class TestScreenBlock:
    def test_clean_block(self, rng):
        health = screen_block(rng.standard_normal(64) + 1j * rng.standard_normal(64))
        assert health.nan_fraction == 0.0
        assert health.damaged_fraction == 0.0
        assert not health.beyond_repair

    def test_nan_and_zero_fractions(self):
        block = np.ones(10, dtype=complex)
        block[0] = complex(np.nan, np.nan)
        block[1] = 0.0
        health = screen_block(block)
        assert health.nan_fraction == pytest.approx(0.1)
        assert health.zero_fraction == pytest.approx(1 / 9)

    def test_saturation_plateau(self, rng):
        block = 0.1 * (rng.standard_normal(20) + 1j * rng.standard_normal(20))
        block[5:10] = 1.0 + 0j  # five samples pinned at the rail
        health = screen_block(block)
        # The peak sample always sits on its own rail; the plateau is
        # the four *additional* pinned samples.
        assert health.saturation_fraction == pytest.approx(0.2)

    def test_lone_peak_is_not_a_plateau(self, rng):
        block = 0.1 * (rng.standard_normal(16) + 1j * rng.standard_normal(16))
        health = screen_block(block)
        assert health.saturation_fraction == pytest.approx(0.0)

    def test_empty_block_rejected(self):
        with pytest.raises(ValueError):
            screen_block(np.array([], dtype=complex))


class TestDetectStage:
    @staticmethod
    def _column(power):
        return SpectrogramColumn(
            index=0, start_sample=0, time_s=0.1, power=np.asarray(power),
            num_sources=1, estimator="music",
        )

    def test_off_dc_peak_fires_detection(self):
        theta = np.arange(-90.0, 91.0)
        power = np.full_like(theta, 1e-3)
        power[np.abs(theta) < 3.0] = 0.1  # DC stripe
        power[theta == 40.0] = 1.0  # the mover
        event = DetectStage(theta).process(self._column(power))
        assert isinstance(event, DetectionEvent)
        assert event.angle_deg == 40.0
        assert event.strength_db == pytest.approx(20.0)

    def test_dc_only_column_stays_quiet(self):
        theta = np.arange(-90.0, 91.0)
        power = np.full_like(theta, 1e-3)
        power[np.abs(theta) < 3.0] = 1.0
        assert DetectStage(theta).process(self._column(power)) is None

    def test_threshold_suppresses_weak_peaks(self, monkeypatch):
        monkeypatch.setattr(pipeline_module, "DETECT_THRESHOLD_DB", 10.0)
        theta = np.arange(-90.0, 91.0)
        power = np.full_like(theta, 1e-3)
        power[theta == 0.0] = 0.5
        power[theta == 40.0] = 1.0  # only 6 dB above DC
        assert DetectStage(theta).process(self._column(power)) is None

    def test_degenerate_guard_rejected(self):
        theta = np.arange(-5.0, 6.0)  # every angle inside the DC guard
        with pytest.raises(ValueError, match="empty region"):
            DetectStage(theta_grid_deg=theta)
