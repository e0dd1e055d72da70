"""Sample buffering between the radio and the DSP stages.

:class:`BlockSource` turns each buffer an upstream producer delivers —
an :class:`repro.hardware.streaming.RxStreamer` or a plain iterator of
sample chunks — into one :class:`SampleBlock` for the pipeline stages,
carrying the drop the stream reported just before it.  The stream is
the one place samples vanish (the software twin of the UHD 'O'
overflow that forced the prototype down to 5 MHz, §7.1).

:class:`SampleRingBuffer` is the tracker's window buffer: a
fixed-capacity ring that refuses samples it cannot hold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.hardware.streaming import RxStreamer


class SampleRingBuffer:
    """A fixed-capacity ring of complex channel samples.

    A push that does not fit is refused whole; nothing is ever evicted.
    Reads are split into ``peek`` (copy out the oldest ``n`` without
    consuming) and ``consume`` (advance the read pointer), because a
    sliding-window consumer re-reads most of each window: peek
    ``window``, consume ``hop``.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("ring capacity must be positive")
        self._buffer = np.empty(capacity, dtype=complex)
        self._start = 0
        self._size = 0

    @property
    def capacity(self) -> int:
        return len(self._buffer)

    @property
    def free_space(self) -> int:
        return self.capacity - self._size

    def __len__(self) -> int:
        return self._size

    def push(self, samples: np.ndarray) -> None:
        """Append samples.

        Raises:
            ValueError: the samples are not one-dimensional, or do not
                fit the free space.
        """
        samples = np.asarray(samples, dtype=complex)
        if samples.ndim != 1:
            raise ValueError("samples must be one-dimensional")
        incoming = len(samples)
        if incoming > self.free_space:
            raise ValueError(
                f"block of {incoming} samples cannot fit the ring (capacity "
                f"{self.capacity}, {self._size} buffered); use smaller blocks "
                "or a larger ring_capacity"
            )
        write = (self._start + self._size) % self.capacity
        first = min(incoming, self.capacity - write)
        self._buffer[write : write + first] = samples[:first]
        if first < incoming:
            self._buffer[: incoming - first] = samples[first:]
        self._size += incoming

    def peek(self, n: int) -> np.ndarray:
        """Copy out the oldest ``n`` samples without consuming them.

        The copy is contiguous even when the region wraps around the
        end of the backing store.
        """
        if n < 0:
            raise ValueError("cannot peek a negative count")
        if n > self._size:
            raise ValueError(f"peek of {n} samples exceeds the {self._size} buffered")
        first = min(n, self.capacity - self._start)
        out = np.empty(n, dtype=complex)
        out[:first] = self._buffer[self._start : self._start + first]
        if first < n:
            out[first:] = self._buffer[: n - first]
        return out

    def consume(self, n: int) -> None:
        """Discard the oldest ``n`` samples (after a peek processed them)."""
        if n < 0:
            raise ValueError("cannot consume a negative count")
        if n > self._size:
            raise ValueError(
                f"consume of {n} samples exceeds the {self._size} buffered"
            )
        self._start = (self._start + n) % self.capacity
        self._size -= n


@dataclass(frozen=True)
class SampleBlock:
    """One delivered chunk of the sample stream.

    ``start_index`` counts *delivered* samples from stream start, so
    the indices continue across a drop; ``dropped_before`` counts the
    samples that vanished upstream just before this block (0 when the
    stream is contiguous).
    """

    samples: np.ndarray
    start_index: int
    dropped_before: int = 0

    def __len__(self) -> int:
        return len(self.samples)


class BlockSource:
    """Delivers each upstream buffer as one :class:`SampleBlock`.

    Upstream is either an :class:`RxStreamer`, whose buffers report the
    samples it evicted before them, or any iterable of non-empty 1-D
    sample arrays.  The pipeline pulls from an iterable, so an iterable
    can never overrun and its blocks carry no drop.
    """

    def __init__(self, upstream: RxStreamer | Iterable[np.ndarray]):
        self._streamer = upstream if isinstance(upstream, RxStreamer) else None
        self._chunks = None if self._streamer is not None else iter(upstream)
        self._next_index = 0

    def poll(self) -> SampleBlock | None:
        """The next upstream buffer as a block; None when none is ready.

        With an open :class:`RxStreamer` upstream, None only means the
        stream is empty for now; a later poll continues it.
        """
        dropped = 0
        if self._streamer is not None:
            buffer = self._streamer.recv()
            if buffer is None:
                return None
            samples, dropped = buffer.samples, buffer.dropped_before
        else:
            samples = next(self._chunks, None)
            if samples is None:
                return None
            samples = np.asarray(samples, dtype=complex)
            if samples.ndim != 1 or len(samples) == 0:
                raise ValueError("sample chunks must be non-empty 1-D arrays")
        block = SampleBlock(samples, self._next_index, dropped)
        self._next_index += len(samples)
        return block
