"""A UHD-style receive stream over the simulated radios.

The prototype implements "MIMO nulling ... directly into the UHD
driver, so that it is performed in real-time" (§7.1).  This module
provides the UHD-shaped surface that such an implementation reads
from: a bounded receive stream with overflow accounting, so the
runtime can be exercised the way it runs on hardware, buffer by
buffer, instead of against whole-trace arrays.

It is the runtime's one drop point.  When the consumer falls behind,
the stream evicts its oldest buffer and charges the lost samples to
the next buffer it delivers, which is where the hole in the stream is.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class StreamBuffer:
    """One chunk of complex baseband samples, as ``recv`` delivers it.

    ``dropped_before`` counts the samples the stream evicted between
    the previously delivered buffer and this one (0 when the two are
    contiguous): the UHD 'O', reported on the buffer after the hole.
    """

    samples: np.ndarray
    dropped_before: int = 0


class RxStreamer:
    """A bounded receive stream.

    A producer (the channel simulator) pushes buffers; the consumer
    (signal processing) pulls them.  When the consumer falls behind and
    the queue overflows, the oldest buffer is dropped and the next
    delivered buffer carries the loss as ``dropped_before`` — the UHD
    'O' you see on a struggling host (the reason the prototype runs at
    5 MHz rather than 20 MHz, §7.1).
    """

    def __init__(self, max_buffers: int = 16):
        if max_buffers < 1:
            raise ValueError("need at least one buffer slot")
        self._queue: deque[np.ndarray] = deque()
        self._max_buffers = max_buffers
        self._closed = False
        # Samples evicted since the last delivered buffer.
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

    def drop_oldest(self) -> np.ndarray | None:
        """Evict the oldest queued buffer, charging the loss counters.

        Used internally on producer overflow and externally by fault
        injection (an overflow storm is a burst of host-side drops).
        The next buffer :meth:`recv` delivers carries the loss.
        Returns the evicted samples, or None if the queue is empty.
        """
        if not self._queue:
            return None
        victim = self._queue.popleft()
        self.overflow_count += 1
        self.dropped_sample_count += len(victim)
        self._pending_drop += len(victim)
        return victim

    def push(self, samples: np.ndarray) -> None:
        """Producer side: append a chunk, evicting the oldest when full."""
        if self._closed:
            raise ValueError("cannot push to a closed stream")
        samples = np.asarray(samples, dtype=complex)
        if samples.ndim != 1 or len(samples) == 0:
            raise ValueError("samples must be a non-empty 1-D array")
        if len(self._queue) >= self._max_buffers:
            self.drop_oldest()
        self._queue.append(samples)

    def close(self) -> None:
        """Producer side: no more buffers are coming.

        Already-queued buffers remain receivable; once they drain,
        ``recv`` returns None *without* charging a starved read — end
        of stream is a shutdown, not an underrun.
        """
        self._closed = True

    def recv(self) -> StreamBuffer | None:
        """Consumer side: pop the oldest buffer (None when starved).

        The buffer carries the samples evicted since the previous one
        was delivered.  A starved read is *accounted*
        (``starved_read_count``) so consumers can tell underrun (they
        outpace the producer) from overflow (the producer outpaces
        them) when diagnosing gaps — unless the stream is closed, in
        which case an empty queue is orderly shutdown, not starvation.
        """
        if not self._queue:
            if not self._closed:
                self.starved_read_count += 1
            return None
        samples = self._queue.popleft()
        self.delivered_sample_count += len(samples)
        buffer = StreamBuffer(samples=samples, dropped_before=self._pending_drop)
        self._pending_drop = 0
        return buffer

    def __len__(self) -> int:
        return len(self._queue)
