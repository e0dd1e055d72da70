"""A UHD-style receive stream over the simulated radios.

The prototype implements "MIMO nulling ... directly into the UHD
driver, so that it is performed in real-time" (§7.1).  This module
provides the UHD-shaped surface that such an implementation reads
from: a bounded receive stream with overflow accounting, so the
runtime can be exercised the way it runs on hardware, buffer by
buffer, instead of against whole-trace arrays.

It is the runtime's one drop point, and it hands the runtime its
blocks.  When the consumer falls behind, the stream evicts its oldest
buffer and charges the lost samples to the next block it delivers,
which is where the hole in the stream is.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SampleBlock:
    """One delivered chunk of the sample stream, as ``recv`` hands it out.

    ``start_index`` counts *delivered* samples from stream start, so
    the indices continue across a drop; ``dropped_before`` counts the
    samples the stream evicted just before this block (0 when the
    stream is contiguous): the UHD 'O', reported on the block after
    the hole.
    """

    samples: np.ndarray
    start_index: int
    dropped_before: int = 0

    def __len__(self) -> int:
        return len(self.samples)


class RxStreamer:
    """A bounded receive stream.

    A producer (the channel simulator) pushes buffers; the consumer
    (signal processing) pulls them.  When the consumer falls behind and
    the queue overflows, the oldest buffer is dropped and the next
    delivered block carries the loss as ``dropped_before`` — the UHD
    'O' you see on a struggling host (the reason the prototype runs at
    5 MHz rather than 20 MHz, §7.1).
    """

    def __init__(self, max_buffers: int = 16):
        if max_buffers < 1:
            raise ValueError("need at least one buffer slot")
        self._queue: deque[np.ndarray] = deque()
        self._max_buffers = max_buffers
        self._closed = False
        # Samples evicted since the last delivered block.
        self._pending_drop = 0
        #: Buffers evicted by overflow.
        self.overflow_count = 0
        #: Samples lost inside those evicted buffers — the quantity a
        #: consumer needs to reconstruct how much signal time vanished
        #: (buffers are not all the same size).
        self.dropped_sample_count = 0
        #: recv() calls that found the queue empty: underrun, the
        #: opposite failure mode from overflow.
        self.starved_read_count = 0
        #: Samples actually handed to the consumer.
        self.delivered_sample_count = 0

    def push(self, samples: np.ndarray) -> None:
        """Producer side: append a chunk, evicting the oldest when full."""
        if self._closed:
            raise ValueError("cannot push to a closed stream")
        samples = np.asarray(samples, dtype=complex)
        if samples.ndim != 1 or len(samples) == 0:
            raise ValueError("samples must be a non-empty 1-D array")
        if len(self._queue) >= self._max_buffers:
            victim = self._queue.popleft()
            self.overflow_count += 1
            self.dropped_sample_count += len(victim)
            self._pending_drop += len(victim)
        self._queue.append(samples)

    def close(self) -> None:
        """Producer side: no more buffers are coming.

        Already-queued buffers remain receivable; once they drain,
        ``recv`` returns None *without* charging a starved read — end
        of stream is a shutdown, not an underrun.
        """
        self._closed = True

    def recv(self) -> SampleBlock | None:
        """Consumer side: the oldest buffer as a block (None when starved).

        The block starts at the count of samples delivered before it
        and carries the samples evicted since the previous block.  A
        starved read is *accounted* (``starved_read_count``) so
        consumers can tell underrun (they outpace the producer) from
        overflow (the producer outpaces them) when diagnosing gaps —
        unless the stream is closed, in which case an empty queue is
        orderly shutdown, not starvation.
        """
        if not self._queue:
            if not self._closed:
                self.starved_read_count += 1
            return None
        samples = self._queue.popleft()
        block = SampleBlock(samples, self.delivered_sample_count, self._pending_drop)
        self.delivered_sample_count += len(samples)
        self._pending_drop = 0
        return block
