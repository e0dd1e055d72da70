"""Golden equivalence: the streaming tracker vs the offline pipeline.

The acceptance criterion for the runtime subsystem: columns produced
online must match the offline ``MotionSpectrogram`` bit for bit on the
same trace, regardless of how the stream was chopped into blocks.
"""

import numpy as np
import pytest

from repro.core.tracking import compute_spectrogram
from repro.faults.injector import FaultEvent, FaultKind
from repro.runtime import StreamingTracker

from tests.helpers import synthetic_trace


def _push_in_blocks(tracker, samples, block_size):
    columns = []
    for offset in range(0, len(samples), block_size):
        columns.extend(tracker.push(samples[offset : offset + block_size]))
    return columns


def _assert_bit_for_bit(offline, online):
    assert np.array_equal(offline.power, online.power)
    assert np.array_equal(offline.times_s, online.times_s)
    assert np.array_equal(offline.source_counts, online.source_counts)
    assert np.array_equal(offline.estimators, online.estimators)
    assert np.array_equal(offline.theta_grid_deg, online.theta_grid_deg)
    assert offline.window_overlap == online.window_overlap


class TestGoldenEquivalence:
    def test_clean_trace_matches_offline_bit_for_bit(
        self, rng, fast_tracking_config
    ):
        samples = synthetic_trace(rng)
        tracker = StreamingTracker(fast_tracking_config)
        columns = _push_in_blocks(tracker, samples, block_size=48)
        offline = compute_spectrogram(samples, fast_tracking_config)
        assert len(columns) == offline.power.shape[0]
        online = StreamingTracker.assemble(columns, fast_tracking_config)
        _assert_bit_for_bit(offline, online)

    @pytest.mark.parametrize("block_size", [1, 7, 16, 64, 200])
    def test_equivalence_is_block_size_independent(
        self, rng, fast_tracking_config, block_size
    ):
        samples = synthetic_trace(rng, num_samples=260)
        tracker = StreamingTracker(
            fast_tracking_config, ring_capacity=max(256, 2 * block_size)
        )
        columns = _push_in_blocks(tracker, samples, block_size)
        offline = compute_spectrogram(samples, fast_tracking_config)
        online = StreamingTracker.assemble(columns, fast_tracking_config)
        _assert_bit_for_bit(offline, online)

    def test_fault_injected_trace_still_matches_offline(
        self, rng, fast_tracking_config
    ):
        # Equivalence must hold on *corrupted* data too: both paths see
        # the same NaN burst and must fall back identically.
        samples = synthetic_trace(rng)
        event = FaultEvent(
            kind=FaultKind.NAN_BURST, start_s=0.4, duration_s=0.1, magnitude=1.0
        )
        period = fast_tracking_config.sample_period_s
        lo = int(event.start_s / period)
        hi = lo + int(event.duration_s / period)
        samples[lo:hi] = complex(np.nan, np.nan)

        tracker = StreamingTracker(fast_tracking_config)
        columns = _push_in_blocks(tracker, samples, block_size=32)
        offline = compute_spectrogram(samples, fast_tracking_config)
        online = StreamingTracker.assemble(columns, fast_tracking_config)
        _assert_bit_for_bit(offline, online)

    def test_beamforming_path_matches_offline(self, rng, fast_tracking_config):
        samples = synthetic_trace(rng)
        tracker = StreamingTracker(fast_tracking_config, use_music=False)
        columns = _push_in_blocks(tracker, samples, block_size=64)
        assert all(c.estimator == "beamforming" for c in columns)
        # The offline beamforming reference: same frames, same walk.
        from repro.core.tracking import compute_beamformed_frame

        window = fast_tracking_config.window_size
        hop = fast_tracking_config.hop
        starts = range(0, len(samples) - window + 1, hop)
        for column, start in zip(columns, starts):
            frame = compute_beamformed_frame(
                samples[start : start + window], fast_tracking_config
            )
            assert np.array_equal(column.power, frame.power)

    def test_start_time_offsets_column_times(self, rng, fast_tracking_config):
        samples = synthetic_trace(rng, num_samples=200)
        offset_s = 3.5
        tracker = StreamingTracker(fast_tracking_config, start_time_s=offset_s)
        columns = _push_in_blocks(tracker, samples, block_size=64)
        offline = compute_spectrogram(
            samples, fast_tracking_config, start_time_s=offset_s
        )
        assert np.array_equal(
            offline.times_s, np.array([c.time_s for c in columns])
        )


class TestTrackerMechanics:
    def test_column_indices_and_start_samples(self, rng, fast_tracking_config):
        samples = synthetic_trace(rng, num_samples=200)
        tracker = StreamingTracker(fast_tracking_config)
        columns = _push_in_blocks(tracker, samples, block_size=50)
        hop = fast_tracking_config.hop
        assert [c.index for c in columns] == list(range(len(columns)))
        assert [c.start_sample for c in columns] == [hop * k for k in range(len(columns))]
        assert tracker.columns_emitted == len(columns)
        assert tracker.samples_seen == len(samples)

    def test_oversize_block_raises_instead_of_dropping(self, fast_tracking_config):
        tracker = StreamingTracker(fast_tracking_config, ring_capacity=128)
        with pytest.raises(ValueError, match="cannot fit"):
            tracker.push(np.zeros(129, dtype=complex))

    def test_capacity_must_hold_a_window(self, fast_tracking_config):
        with pytest.raises(ValueError, match="one full window"):
            StreamingTracker(fast_tracking_config, ring_capacity=32)

    def test_reset_restarts_windows_cleanly(self, rng, fast_tracking_config):
        samples = synthetic_trace(rng, num_samples=300)
        tracker = StreamingTracker(fast_tracking_config)
        tracker.push(samples[:100])
        tracker.reset()
        # After a gap the next window starts at the re-anchored index
        # and is computed over post-gap samples only.
        columns = tracker.push(samples[100 : 100 + fast_tracking_config.window_size])
        assert len(columns) == 1
        assert columns[0].start_sample == 100
        from repro.core.tracking import compute_spectrogram_frame

        frame = compute_spectrogram_frame(
            samples[100 : 100 + fast_tracking_config.window_size],
            fast_tracking_config,
        )
        assert np.array_equal(columns[0].power, frame.power)

    def test_metrics_account_for_work(self, rng, fast_tracking_config):
        samples = synthetic_trace(rng, num_samples=200)
        tracker = StreamingTracker(fast_tracking_config)
        columns = _push_in_blocks(tracker, samples, block_size=40)
        metrics = tracker.metrics
        assert metrics.name == "track"
        assert metrics.invocations == 5
        assert metrics.items_in == 200
        assert metrics.items_out == len(columns)
        assert metrics.busy_s > 0.0
        assert metrics.throughput_per_s > 0.0

    def test_rejects_non_1d_input(self, fast_tracking_config):
        tracker = StreamingTracker(fast_tracking_config)
        with pytest.raises(ValueError, match="one-dimensional"):
            tracker.push(np.zeros((4, 4), dtype=complex))

    def test_assemble_requires_columns(self, fast_tracking_config):
        with pytest.raises(ValueError, match="no columns"):
            StreamingTracker.assemble([], fast_tracking_config)


class TestSchedulerHooks:
    """The ingest/poll/resolve decomposition the serving layer drives."""

    def test_expected_windows_predicts_every_push(self, rng, fast_tracking_config):
        samples = synthetic_trace(rng, num_samples=330)
        tracker = StreamingTracker(fast_tracking_config)
        for block_size in [10, 64, 16, 100, 3, 137]:
            block, samples = samples[:block_size], samples[block_size:]
            predicted = tracker.expected_windows(len(block))
            assert len(tracker.push(block)) == predicted
        # And the zero-incoming form reports what is already ready.
        assert tracker.expected_windows(0) == 0

    def test_ingest_poll_resolve_equals_push(self, rng, fast_tracking_config):
        from repro.core.tracking import compute_spectrogram_frame

        samples = synthetic_trace(rng)
        pushed = StreamingTracker(fast_tracking_config)
        hooked = StreamingTracker(fast_tracking_config)
        via_push, via_hooks = [], []
        for offset in range(0, len(samples), 48):
            block = samples[offset : offset + 48]
            via_push.extend(pushed.push(block))
            # The serving decomposition: buffer, drain ready windows,
            # estimate elsewhere (here: inline), stamp the results back.
            hooked.ingest(block)
            for pending in hooked.poll_ready_windows():
                frame = compute_spectrogram_frame(
                    pending.samples, fast_tracking_config
                )
                via_hooks.append(StreamingTracker.resolve(pending, frame))
        assert len(via_hooks) == len(via_push)
        for a, b in zip(via_push, via_hooks):
            assert a.index == b.index
            assert a.start_sample == b.start_sample
            assert a.time_s == b.time_s
            assert np.array_equal(a.power, b.power)
            assert a.num_sources == b.num_sources
            assert a.estimator == b.estimator
        assert hooked.columns_emitted == pushed.columns_emitted
        assert hooked.samples_seen == pushed.samples_seen

    def test_pending_windows_are_detached_copies(self, rng, fast_tracking_config):
        # A pending window must stay valid after the ring moves on —
        # the scheduler may estimate it long after later pushes landed.
        samples = synthetic_trace(rng, num_samples=200)
        tracker = StreamingTracker(fast_tracking_config)
        tracker.ingest(samples[:100])
        pending = tracker.poll_ready_windows()
        snapshots = [p.samples.copy() for p in pending]
        tracker.ingest(samples[100:])
        tracker.poll_ready_windows()
        for p, snap in zip(pending, snapshots):
            assert np.array_equal(p.samples, snap)

    def test_ingest_validates_like_push(self, fast_tracking_config):
        tracker = StreamingTracker(fast_tracking_config, ring_capacity=128)
        with pytest.raises(ValueError, match="one-dimensional"):
            tracker.ingest(np.zeros((4, 4), dtype=complex))
        with pytest.raises(ValueError, match="cannot fit"):
            tracker.ingest(np.zeros(129, dtype=complex))
