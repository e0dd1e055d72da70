"""Tests for the UHD-style receive stream."""

import numpy as np
import pytest

from repro.hardware.streaming import RxStreamer


def chunk(n=8, value=1.0):
    return value * np.ones(n, dtype=complex)


def test_rx_fifo_order():
    stream = RxStreamer()
    stream.push(chunk(10, value=1.0))
    stream.push(chunk(10, value=2.0))
    first = stream.recv()
    second = stream.recv()
    assert first.samples[0] == 1.0 and first.dropped_before == 0
    assert second.samples[0] == 2.0 and second.dropped_before == 0
    assert stream.recv() is None


def test_rx_overflow_drops_oldest_and_flags():
    stream = RxStreamer(max_buffers=2)
    stream.push(chunk(value=1.0))
    stream.push(chunk(value=2.0))
    stream.push(chunk(value=3.0))  # evicts the first
    assert stream.overflow_count == 1
    survivor = stream.recv()
    assert survivor.samples[0] == 2.0
    # The hole lies before the first buffer delivered after the drop;
    # the buffer pushed when the drop happened is contiguous with it.
    assert survivor.dropped_before == 8
    after = stream.recv()
    assert after.samples[0] == 3.0 and after.dropped_before == 0


def test_rx_drop_lands_on_the_next_delivered_buffer():
    # Four buffers into a 2-deep stream before any read: the first two
    # are evicted, and the third buffer carries both of them.
    stream = RxStreamer(max_buffers=2)
    for n in (10, 20, 30, 40):
        stream.push(chunk(n))
    third, fourth = stream.recv(), stream.recv()
    assert (len(third.samples), third.dropped_before) == (30, 30)
    assert (len(fourth.samples), fourth.dropped_before) == (40, 0)


def test_rx_loss_accounting_counts_samples_not_buffers():
    stream = RxStreamer(max_buffers=2)
    stream.push(chunk(10))
    stream.push(chunk(20))
    stream.push(chunk(30))  # evicts the 10-sample buffer
    stream.push(chunk(40))  # evicts the 20-sample buffer
    assert stream.overflow_count == 2
    assert stream.dropped_sample_count == 30  # 10 + 20, not "2 buffers"
    stream.recv()
    stream.recv()
    assert stream.delivered_sample_count == 70  # 30 + 40


def test_rx_starved_read_accounting():
    stream = RxStreamer()
    assert stream.recv() is None
    assert stream.recv() is None
    assert stream.starved_read_count == 2
    stream.push(chunk(8))
    assert stream.recv() is not None
    assert stream.starved_read_count == 2  # successful reads don't count
    assert stream.delivered_sample_count == 8


def test_rx_start_index_stays_contiguous_across_a_drop():
    # Two 16-sample buffers are evicted before the consumer reads: the
    # delivered indices stay contiguous, and the first block after the
    # hole carries it.
    stream = RxStreamer(max_buffers=2)
    for start in range(0, 64, 16):
        stream.push(np.arange(start, start + 16, dtype=complex))
    first, second = stream.recv(), stream.recv()
    assert [first.start_index, second.start_index] == [0, 16]
    assert [first.dropped_before, second.dropped_before] == [32, 0]
    assert np.array_equal(first.samples, np.arange(32, 48, dtype=complex))
    assert len(first) == 16


def test_rx_close_is_not_starvation():
    stream = RxStreamer()
    assert stream.recv() is None
    assert stream.starved_read_count == 1  # open + empty = underrun
    stream.close()
    # Orderly shutdown is not starvation: reads after close charge no
    # further starved reads.
    assert stream.recv() is None
    assert stream.recv() is None
    assert stream.starved_read_count == 1


def test_rx_blocks_then_tail_after_close():
    stream = RxStreamer()
    stream.push(np.arange(0, 10, dtype=complex))
    assert len(stream.recv()) == 10
    assert stream.recv() is None  # stream still open, nothing queued
    stream.push(np.arange(10, 13, dtype=complex))
    stream.close()
    # Already-queued buffers stay receivable after close, indexed on.
    tail = stream.recv()
    assert (len(tail), tail.start_index) == (3, 10)
    assert np.array_equal(tail.samples, np.arange(10, 13, dtype=complex))
    assert stream.recv() is None


def test_rx_validation():
    stream = RxStreamer()
    with pytest.raises(ValueError):
        stream.push(np.array([], dtype=complex))
    with pytest.raises(ValueError):
        stream.push(np.zeros((2, 2), dtype=complex))
    with pytest.raises(ValueError):
        RxStreamer(max_buffers=0)


def test_streaming_channel_estimation_loop():
    # A miniature real-time loop: stream OFDM symbols through, estimate
    # the channel per buffer — the driver-level shape of Algorithm 1's
    # sounding step.
    from repro.ofdm.estimation import ls_channel_estimate
    from repro.ofdm.modulation import OfdmModem
    from repro.ofdm.preamble import training_symbol

    modem = OfdmModem()
    training = training_symbol(modem.config)
    true_channel = 0.3 * np.exp(1j * 0.9)

    stream = RxStreamer()
    waveform = modem.modulate(training) * true_channel
    for _ in range(4):
        stream.push(waveform)

    estimates = []
    while (buffer := stream.recv()) is not None:
        received = modem.demodulate(buffer.samples)
        estimates.append(np.mean(ls_channel_estimate(received, training)))
    assert len(estimates) == 4
    assert np.allclose(estimates, true_channel, atol=1e-6)
