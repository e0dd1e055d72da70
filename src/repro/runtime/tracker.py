"""Incremental sliding-window spectrogram estimation.

The offline pipeline (:func:`repro.core.tracking.compute_spectrogram`)
recomputes every window of the full trace at once.  The streaming
tracker keeps, between pushes, only its carry: the fewer than
``window_size`` samples no window has consumed yet.  It emits each
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
        buffered: the tracker's carry, oldest first.
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

    Feed sample blocks of any size with :meth:`push`; each call returns
    the columns whose windows completed.  Each block joins the carry,
    windows of ``window_size`` samples slide ``hop`` apart over it, and
    the tail no window has consumed stays as the next carry, exactly
    reproducing the offline overlapping-window walk.

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
    ):
        self.config = config if config is not None else TrackingConfig()
        self.start_time_s = start_time_s
        self.use_music = use_music
        # The samples no window has consumed yet; between pushes, fewer
        # than ``window_size``.
        self._carry = np.empty(0, dtype=complex)
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
        buffered = self._samples_seen + incoming - self._next_start
        if buffered < self.config.window_size:
            return 0
        return (buffered - self.config.window_size) // self.config.hop + 1

    def ingest(self, samples: np.ndarray) -> int:
        """Buffer a sample block without estimating anything.

        The first half of :meth:`push`, split out for consumers that
        batch estimation elsewhere (the serving scheduler): append the
        block to the carry and account the samples.  Returns the number
        of windows now ready for :meth:`poll_ready_windows`.
        """
        samples = np.asarray(samples, dtype=complex)
        if samples.ndim != 1:
            raise ValueError("samples must be one-dimensional")
        self._carry = np.concatenate((self._carry, samples))
        self._samples_seen += len(samples)
        return self.expected_windows(0)

    def poll_ready_windows(self) -> list[PendingWindow]:
        """Drain every completed window, consuming ``hop`` per window.

        The scheduler hook: each returned :class:`PendingWindow` owns a
        copy of its window samples (the carry moves on underneath), and
        the tracker's column/sample counters advance as if the windows
        had been estimated inline — :meth:`resolve` later completes
        them in any order without touching tracker state.  The carry
        keeps the tail no window consumed.
        """
        config = self.config
        window = config.window_size
        carry = self._carry
        # Where the next window starts in the carry, which ends at the
        # newest sample (past its end after a hop wider than a window).
        start = self._next_start - (self._samples_seen - len(carry))
        pending: list[PendingWindow] = []
        while start + window <= len(carry):
            time_s = (
                self.start_time_s
                + (self._next_start + window / 2.0) * config.sample_period_s
            )
            pending.append(
                PendingWindow(
                    index=self._column_index,
                    start_sample=self._next_start,
                    time_s=time_s,
                    samples=carry[start : start + window].copy(),
                )
            )
            start += config.hop
            self._next_start += config.hop
            self._column_index += 1
        if start:
            self._carry = carry[start:].copy()
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
        """Accept a sample block of any size; return the columns it
        completed.

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
            buffered=self._carry.copy(),
            next_start=self._next_start,
            column_index=self._column_index,
            samples_seen=self._samples_seen,
            start_time_s=self.start_time_s,
            use_music=self.use_music,
        )

    def restore(self, checkpoint: TrackerCheckpoint) -> None:
        """Load a checkpoint into this (freshly constructed) tracker.

        Raises:
            ValueError: the tracker already ingested samples, the carry
                holds a whole window (a checkpoint taken between pushes
                never does: every complete window was drained), or the
                checkpoint's counters are inconsistent.
        """
        if self._samples_seen:
            raise ValueError("restore requires a fresh tracker")
        buffered = np.asarray(checkpoint.buffered, dtype=complex)
        if buffered.ndim != 1:
            raise ValueError("checkpoint buffer must be one-dimensional")
        if len(buffered) >= self.config.window_size:
            raise ValueError(
                f"checkpoint carries {len(buffered)} samples, a whole "
                f"window of {self.config.window_size}; a carry between "
                "pushes is shorter"
            )
        for name in ("next_start", "column_index", "samples_seen"):
            if getattr(checkpoint, name) < 0:
                raise ValueError(f"checkpoint {name} cannot be negative")
        if len(buffered) != max(checkpoint.samples_seen - checkpoint.next_start, 0):
            raise ValueError(
                "checkpoint counters are inconsistent: the carry must hold "
                "the samples from next_start to samples_seen"
            )
        if checkpoint.use_music != self.use_music:
            raise ValueError("checkpoint estimator family does not match")
        self.start_time_s = checkpoint.start_time_s
        self._carry = buffered.copy()
        self._next_start = checkpoint.next_start
        self._column_index = checkpoint.column_index
        self._samples_seen = checkpoint.samples_seen

    def reset(self) -> None:
        """Drop buffered state after a stream gap (phase continuity is
        lost across dropped samples; windows must restart cleanly).

        The next window starts at the next sample to arrive: indexing
        continues from the samples already seen.
        """
        self._carry = np.empty(0, dtype=complex)
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
