"""Incremental sliding-window spectrogram estimation.

The offline pipeline (:func:`repro.core.tracking.compute_spectrogram`)
recomputes every window of the full trace at once.  The streaming
tracker holds only ``window_size`` samples of state and emits each
A'[theta, n] column the moment its window fills — bounded memory,
bounded latency, same math: both paths call
:func:`repro.core.tracking.compute_spectrogram_frame` on identical
window contents, so the online columns match the offline spectrogram
bit for bit on the shared window range (the golden-equivalence test
enforces this).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.tracking import (
    MotionSpectrogram,
    SpectrogramFrame,
    TrackingConfig,
    compute_beamformed_frame,
    compute_spectrogram_frame,
)
from repro.dsp.backend import active_backend_name
from repro.telemetry.metrics import StageMetrics, StageTimer
from repro.runtime.ring import SampleRingBuffer


def ring_capacity_for(config: TrackingConfig, max_block: int) -> int:
    """A tracker ring that holds a block of up to ``max_block`` samples
    on top of a window's carry, and never less than the default four
    windows."""
    return max(4 * config.window_size, config.window_size + max_block)


@dataclass(frozen=True)
class PendingWindow:
    """A filled window awaiting its spectrum estimate.

    The unit the serving scheduler batches: :meth:`StreamingTracker.
    poll_ready_windows` drains these (consuming ``hop`` samples each),
    an estimator turns each one's ``samples`` into a
    :class:`~repro.core.tracking.SpectrogramFrame`, and
    :meth:`StreamingTracker.resolve` stamps the result back into the
    :class:`SpectrogramColumn` the window was destined to become.

    Attributes:
        index: window number (0-based, hop-spaced).
        start_sample: index of the window's first sample in the stream.
        time_s: centre time of the window.
        samples: the ``window_size`` samples of the filled window.
    """

    index: int
    start_sample: int
    time_s: float
    samples: np.ndarray


@dataclass(frozen=True)
class TrackerCheckpoint:
    """The complete ingest state of a :class:`StreamingTracker`.

    Everything the resume path needs to rebuild a tracker that will
    emit *exactly* the columns the original would have: the samples
    still buffered (window carry), where the next window starts, and
    the column/sample counters.  Deliberately excludes metrics — a
    resumed tracker's observability restarts, its math does not.

    Attributes:
        buffered: the ring's current contents, oldest first.
        next_start: stream index of the next window's first sample.
        column_index: index the next emitted column will carry.
        samples_seen: total samples ever ingested.
        start_time_s: the tracker's time origin.
        use_music: which estimator family the tracker runs.
    """

    buffered: np.ndarray
    next_start: int
    column_index: int
    samples_seen: int
    start_time_s: float
    use_music: bool


@dataclass(frozen=True)
class SpectrogramColumn:
    """One online column of the A'[theta, n] image.

    Attributes:
        index: window number (0-based, hop-spaced).
        start_sample: index of the window's first sample in the stream.
        time_s: centre time of the window (matches
            ``MotionSpectrogram.times_s``).
        power: pseudospectrum magnitudes over the angle grid.
        num_sources: signal-subspace size (0 for beamformed frames).
        estimator: which estimator produced the column ("music" or
            "beamforming", including the degeneracy fallback).
    """

    index: int
    start_sample: int
    time_s: float
    power: np.ndarray
    num_sources: int
    estimator: str


class StreamingTracker:
    """Turns an incoming sample stream into spectrogram columns.

    Feed sample blocks with :meth:`push`; each call returns the columns
    whose windows completed.  Internally a ring buffer holds the
    current window: ``window_size`` samples are peeked per column and
    only ``hop`` are consumed, exactly reproducing the offline
    overlapping-window walk.

    The streaming DC treatment matches the offline estimators: the
    MUSIC path carries the DC line at theta = 0 naturally, and the
    ``use_music=False`` beamforming path removes each window's mean
    (the gesture decoder's configuration).
    """

    def __init__(
        self,
        config: TrackingConfig | None = None,
        start_time_s: float = 0.0,
        use_music: bool = True,
        ring_capacity: int | None = None,
    ):
        self.config = config if config is not None else TrackingConfig()
        self.start_time_s = start_time_s
        self.use_music = use_music
        window = self.config.window_size
        capacity = (
            ring_capacity if ring_capacity is not None else 4 * window
        )
        if capacity < window:
            raise ValueError("ring capacity must hold one full window")
        self.ring = SampleRingBuffer(capacity)
        self.metrics = StageMetrics(name="track")
        self._next_start = 0
        self._column_index = 0
        self._samples_seen = 0

    @property
    def columns_emitted(self) -> int:
        return self._column_index

    @property
    def samples_seen(self) -> int:
        return self._samples_seen

    @property
    def dsp_backend(self) -> str:
        """Name of the DSP backend this tracker's estimates run on.

        Resolved per call from the process-wide selection
        (:func:`repro.dsp.backend.active_backend`), because the tracker
        delegates every estimate to the active backend at estimate
        time — sessions surface this in their snapshots so an operator
        can tell budgeted columns from bit-exact ones.
        """
        return active_backend_name()

    def _estimate(self, window: np.ndarray) -> SpectrogramFrame:
        if self.use_music:
            return compute_spectrogram_frame(window, self.config)
        return compute_beamformed_frame(window, self.config)

    def expected_windows(self, incoming: int) -> int:
        """Windows that would complete if ``incoming`` samples arrived.

        The serving scheduler's admission check: the cost of a push is
        known *before* any sample is buffered, so an overloaded server
        can shed the request while the tracker state is still intact.
        """
        if incoming < 0:
            raise ValueError("incoming sample count cannot be negative")
        buffered = len(self.ring) + incoming
        if buffered < self.config.window_size:
            return 0
        return (buffered - self.config.window_size) // self.config.hop + 1

    def ingest(self, samples: np.ndarray) -> int:
        """Buffer a sample block without estimating anything.

        The first half of :meth:`push`, split out for consumers that
        batch estimation elsewhere (the serving scheduler): append to
        the ring, which refuses a block it cannot hold, and account the
        samples.  Returns the number of windows now ready for
        :meth:`poll_ready_windows`.
        """
        self.ring.push(samples)
        self._samples_seen += len(samples)
        return self.expected_windows(0)

    def poll_ready_windows(self) -> list[PendingWindow]:
        """Drain every completed window, consuming ``hop`` per window.

        The scheduler hook: each returned :class:`PendingWindow` owns a
        copy of its window samples (the ring advances underneath), and
        the tracker's column/sample counters advance as if the windows
        had been estimated inline — :meth:`resolve` later completes
        them in any order without touching tracker state.
        """
        config = self.config
        pending: list[PendingWindow] = []
        while len(self.ring) >= config.window_size:
            window = self.ring.peek(config.window_size)
            time_s = (
                self.start_time_s
                + (self._next_start + config.window_size / 2.0)
                * config.sample_period_s
            )
            pending.append(
                PendingWindow(
                    index=self._column_index,
                    start_sample=self._next_start,
                    time_s=time_s,
                    samples=window,
                )
            )
            self.ring.consume(config.hop)
            self._next_start += config.hop
            self._column_index += 1
        return pending

    @staticmethod
    def resolve(
        pending: PendingWindow, frame: SpectrogramFrame
    ) -> SpectrogramColumn:
        """Stamp an estimated frame into the column its window awaited."""
        return SpectrogramColumn(
            index=pending.index,
            start_sample=pending.start_sample,
            time_s=pending.time_s,
            power=frame.power,
            num_sources=frame.num_sources,
            estimator=frame.estimator,
        )

    def push(self, samples: np.ndarray) -> list[SpectrogramColumn]:
        """Accept a sample block; return the columns it completed.

        The tracker consumes eagerly, so its ring never overflows as
        long as each pushed block fits alongside one window of carry
        (capacity >= window_size - hop + len(samples)); a larger block
        raises rather than silently dropping window-aligned samples.

        Composed entirely of the scheduler hooks — :meth:`ingest`,
        :meth:`poll_ready_windows`, :meth:`resolve` — with the
        estimator run inline, so the served path and this one walk
        identical window contents.
        """
        columns: list[SpectrogramColumn] = []
        with StageTimer(self.metrics, items_in=len(samples)) as timer:
            self.ingest(samples)
            for pending in self.poll_ready_windows():
                columns.append(self.resolve(pending, self._estimate(pending.samples)))
            timer.items_out = len(columns)
        return columns

    def checkpoint(self) -> TrackerCheckpoint:
        """Snapshot the ingest state for deterministic resume.

        The checkpoint is a pure function of the samples ingested so
        far (metrics aside), so a tracker restored from it emits
        columns ``np.array_equal`` to the ones this tracker would have
        emitted — the serving layer's resume-equivalence contract.
        Take it *between* pushes: windows already drained by
        :meth:`poll_ready_windows` are the caller's to finish.
        """
        return TrackerCheckpoint(
            buffered=self.ring.peek(len(self.ring)),
            next_start=self._next_start,
            column_index=self._column_index,
            samples_seen=self._samples_seen,
            start_time_s=self.start_time_s,
            use_music=self.use_music,
        )

    def restore(self, checkpoint: TrackerCheckpoint) -> None:
        """Load a checkpoint into this (freshly constructed) tracker.

        Raises:
            ValueError: the tracker already ingested samples, the
                buffered carry cannot fit its ring, or the checkpoint's
                counters are inconsistent.
        """
        if self._samples_seen or len(self.ring):
            raise ValueError("restore requires a fresh tracker")
        buffered = np.asarray(checkpoint.buffered, dtype=complex)
        if buffered.ndim != 1:
            raise ValueError("checkpoint buffer must be one-dimensional")
        if len(buffered) > self.ring.capacity:
            raise ValueError(
                f"checkpoint carries {len(buffered)} buffered samples; "
                f"ring capacity is {self.ring.capacity}"
            )
        for name in ("next_start", "column_index", "samples_seen"):
            if getattr(checkpoint, name) < 0:
                raise ValueError(f"checkpoint {name} cannot be negative")
        if checkpoint.next_start + len(buffered) > checkpoint.samples_seen:
            raise ValueError(
                "checkpoint counters are inconsistent: buffered carry "
                "extends past samples_seen"
            )
        if checkpoint.use_music != self.use_music:
            raise ValueError("checkpoint estimator family does not match")
        self.start_time_s = checkpoint.start_time_s
        self.ring.push(buffered)
        self._next_start = checkpoint.next_start
        self._column_index = checkpoint.column_index
        self._samples_seen = checkpoint.samples_seen

    def reset(self) -> None:
        """Drop buffered state after a stream gap (phase continuity is
        lost across dropped samples; windows must restart cleanly).

        The next window starts at the next sample to arrive: indexing
        continues from the samples already seen.
        """
        self.ring.consume(len(self.ring))
        self._next_start = self._samples_seen

    @staticmethod
    def assemble(
        columns: list[SpectrogramColumn], config: TrackingConfig
    ) -> MotionSpectrogram:
        """Stack emitted columns into an offline-shaped spectrogram.

        The result is interchangeable with the batch pipeline's output
        — identical field-for-field when the columns cover the same
        windows (the golden-equivalence contract).
        """
        if not columns:
            raise ValueError("no columns to assemble")
        return MotionSpectrogram(
            times_s=np.array([c.time_s for c in columns]),
            theta_grid_deg=config.theta_grid_deg,
            power=np.stack([c.power for c in columns]),
            source_counts=np.array([c.num_sources for c in columns], dtype=int),
            window_overlap=max(config.window_size // config.hop, 1),
            estimators=np.array([c.estimator for c in columns], dtype=object),
        )
