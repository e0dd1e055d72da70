"""Ring-buffer and block-source edge cases.

The cases that break naive ring code: wraparound, a push that does not
fit, reads straddling a fault-injected NaN burst; and the block source
passing each upstream buffer through with the drop before it.
"""

import numpy as np
import pytest

from repro.hardware.streaming import RxStreamer
from repro.runtime.ring import BlockSource, SampleRingBuffer


def _arange_complex(start, count):
    return np.arange(start, start + count, dtype=float) + 0j


class TestSampleRingBuffer:
    def test_push_peek_consume_roundtrip(self):
        ring = SampleRingBuffer(8)
        ring.push(_arange_complex(0, 5))
        assert len(ring) == 5
        assert np.array_equal(ring.peek(3), _arange_complex(0, 3))
        assert len(ring) == 5  # peek does not consume
        ring.consume(2)
        assert np.array_equal(ring.peek(3), _arange_complex(2, 3))
        assert len(ring) == 3

    def test_wraparound_preserves_order(self):
        ring = SampleRingBuffer(8)
        ring.push(_arange_complex(0, 6))
        ring.consume(5)
        # Write region now wraps: 1 sample at the tail, rest at the head.
        ring.push(_arange_complex(6, 7))
        assert len(ring) == 8
        assert np.array_equal(ring.peek(8), _arange_complex(5, 8))

    def test_repeated_wraparound_with_sliding_window(self):
        # The tracker's access pattern: peek window, consume hop.
        ring = SampleRingBuffer(11)
        window, hop = 7, 3
        pushed = 0
        expected_start = 0
        for _ in range(20):
            ring.push(_arange_complex(pushed, 4))
            pushed += 4
            while len(ring) >= window:
                assert np.array_equal(
                    ring.peek(window), _arange_complex(expected_start, window)
                )
                ring.consume(hop)
                expected_start += hop

    def test_push_that_does_not_fit_is_refused(self):
        # The ring never evicts: a push larger than the free space is
        # refused whole and leaves the buffered samples untouched.
        ring = SampleRingBuffer(6)
        ring.push(_arange_complex(0, 4))
        with pytest.raises(ValueError, match="cannot fit"):
            ring.push(_arange_complex(4, 3))
        assert np.array_equal(ring.peek(4), _arange_complex(0, 4))
        ring.push(_arange_complex(4, 2))  # exactly full is fine
        assert np.array_equal(ring.peek(6), _arange_complex(0, 6))

    def test_nan_burst_survives_wraparound_reads(self):
        # A fault-injected NaN burst must come back out exactly where it
        # went in, even when the read region straddles the wrap point.
        ring = SampleRingBuffer(10)
        clean = _arange_complex(0, 7)
        ring.push(clean)
        ring.consume(6)  # wrap the write region
        burst = np.full(6, complex(np.nan, np.nan))
        ring.push(burst)
        ring.push(_arange_complex(13, 2))
        got = ring.peek(9)
        assert np.array_equal(got[:1], clean[6:])
        assert np.all(np.isnan(got[1:7].real)) and np.all(np.isnan(got[1:7].imag))
        assert np.array_equal(got[7:], _arange_complex(13, 2))

    def test_peek_and_consume_bounds(self):
        ring = SampleRingBuffer(4)
        ring.push(_arange_complex(0, 2))
        with pytest.raises(ValueError):
            ring.peek(3)
        with pytest.raises(ValueError):
            ring.consume(3)
        with pytest.raises(ValueError):
            ring.peek(-1)
        with pytest.raises(ValueError):
            SampleRingBuffer(0)

    def test_empty_push_is_a_no_op(self):
        ring = SampleRingBuffer(4)
        ring.push(np.array([], dtype=complex))
        assert len(ring) == 0 and ring.free_space == 4


class TestBlockSource:
    def test_passes_iterator_chunks_through(self):
        chunks = [_arange_complex(0, 5), _arange_complex(5, 5), _arange_complex(10, 3)]
        source = BlockSource(iter(chunks))
        blocks = [source.poll() for _ in chunks]
        assert source.poll() is None
        # One block per chunk, as delivered: nothing re-blocked, no drop.
        assert [len(b) for b in blocks] == [5, 5, 3]
        assert [b.start_index for b in blocks] == [0, 5, 10]
        assert [b.dropped_before for b in blocks] == [0, 0, 0]
        for block, chunk in zip(blocks, chunks):
            assert np.array_equal(block.samples, chunk)

    def test_empty_source_shutdown(self):
        streamer = RxStreamer()
        source = BlockSource(streamer)
        assert source.poll() is None
        assert streamer.starved_read_count == 1  # open + empty = underrun
        streamer.close()
        assert source.poll() is None
        # Orderly shutdown is not starvation: recv() after close must
        # not charge further starved reads.
        assert streamer.starved_read_count == 1
        assert BlockSource(iter([])).poll() is None

    def test_streamer_blocks_then_tail_after_close(self):
        streamer = RxStreamer()
        streamer.push(_arange_complex(0, 10))
        source = BlockSource(streamer)
        assert len(source.poll()) == 10
        assert source.poll() is None  # stream still open, nothing queued
        streamer.push(_arange_complex(10, 3))
        streamer.close()
        tail = source.poll()
        assert (len(tail), tail.start_index) == (3, 10)
        assert np.array_equal(tail.samples, _arange_complex(10, 3))
        assert source.poll() is None

    def test_ring_overflow_accounts_drops_without_index_gaps(self):
        # The stream's queue overflows: two 16-sample buffers are
        # evicted before the consumer reads.
        streamer = RxStreamer(max_buffers=2)
        for start in range(0, 64, 16):
            streamer.push(_arange_complex(start, 16))
        streamer.close()
        source = BlockSource(streamer)
        first, second = source.poll(), source.poll()
        assert source.poll() is None
        # Delivered indices stay contiguous; the first block after the
        # hole carries it, the next one is contiguous again.
        assert [first.start_index, second.start_index] == [0, 16]
        assert [first.dropped_before, second.dropped_before] == [32, 0]
        assert np.array_equal(first.samples, _arange_complex(32, 16))

    def test_validation(self):
        with pytest.raises(ValueError):
            BlockSource(iter([np.zeros((2, 2), dtype=complex)])).poll()
        with pytest.raises(ValueError):
            BlockSource(iter([np.array([], dtype=complex)])).poll()
