"""The streaming tracker's mechanics and the serving layer's hooks.

That its columns match the offline ``MotionSpectrogram`` bit for bit,
however the stream is chopped into blocks, is checked with every other
serving path by the differential harness (``tests/test_differential.py``).
"""

import numpy as np
import pytest

from repro.core.tracking import TrackingConfig, compute_spectrogram
from repro.runtime import StreamingTracker
from repro.serve.protocol import MAX_PUSH_SAMPLES

from tests.helpers import synthetic_trace


def _push_in_blocks(tracker, samples, block_size):
    columns = []
    for offset in range(0, len(samples), block_size):
        columns.extend(tracker.push(samples[offset : offset + block_size]))
    return columns


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

    def test_one_push_of_the_largest_served_block_plus_a_window(self, rng):
        # Any block size works, the largest a served push may carry
        # plus a window included.
        config = TrackingConfig()
        samples = synthetic_trace(rng, num_samples=MAX_PUSH_SAMPLES + config.window_size)
        tracker = StreamingTracker(config)
        columns = tracker.push(samples)
        assert len(columns) == 656
        online = StreamingTracker.assemble(columns, config)
        assert np.array_equal(online.power, compute_spectrogram(samples, config).power)
        assert len(tracker.checkpoint().buffered) < config.window_size

    @pytest.mark.parametrize("block_size", [1, 7, 64, 1000])
    def test_hop_wider_than_a_window_skips_the_samples_between(self, rng, block_size):
        # After each window the carry is spent, and the next window
        # starts past samples that have not arrived yet.
        config = TrackingConfig(window_size=32, hop=50, subarray_size=12)
        samples = synthetic_trace(rng, num_samples=1000)
        tracker = StreamingTracker(config)
        columns = _push_in_blocks(tracker, samples, block_size)
        offline = compute_spectrogram(samples, config)
        online = StreamingTracker.assemble(columns, config)
        assert np.array_equal(online.power, offline.power)
        assert np.array_equal(online.times_s, offline.times_s)

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

    def test_pending_windows_are_detached_copies(self, rng, fast_tracking_config):
        # A pending window must stay valid after the carry moves on —
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
        tracker = StreamingTracker(fast_tracking_config)
        with pytest.raises(ValueError, match="one-dimensional"):
            tracker.ingest(np.zeros((4, 4), dtype=complex))
