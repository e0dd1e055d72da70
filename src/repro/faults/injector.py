"""Applies a fault schedule at the hardware boundary.

The injector corrupts *captures* (sample arrays / ``ChannelSeries``)
at the hardware boundary, which is where real faults enter: the
DSP layers downstream — screening, MUSIC, tracking, the health machine
— then get exercised against realistic damage rather than synthetic
unit-test inputs.

All corruption parameters come from the :class:`FaultEvent` itself, so
injection is a pure function of (schedule, clean samples): replaying a
seed replays the identical fault log.

Per-kind semantics:

* ``NAN_BURST`` — samples in the window become NaN (a DMA error or a
  driver bug handing back poisoned buffers).
* ``ADC_SATURATION`` — both rails clip at ``magnitude`` x the clean
  window's RMS amplitude: the flash re-entering after nulling erosion.
* ``OVERFLOW_STORM`` — the host drops ``magnitude`` of the window's
  samples; the receiver delivers zeros in their place (the UHD 'O').
* ``CLOCK_JUMP`` — every sample after ``start_s`` rotates by
  ``exp(j * magnitude)``: the shared reference glitched.
* ``GAIN_DROPOUT`` — samples in the window scale by ``magnitude``
  (an antenna/LNA brown-out).
* ``CHANNEL_STEP`` — a DC offset of ``magnitude`` x the capture's mean
  amplitude is added from ``start_s`` onward: a door opened and the
  static channel stepped away from the calibrated null.  Unlike the
  other kinds, a step *persists* across captures — the door stays
  open — until the device recalibrates
  (:meth:`FaultInjector.notify_recalibrated`), at which point the new
  null absorbs it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.faults.schedule import FaultEvent, FaultKind, FaultSchedule
from repro.simulator.timeseries import ChannelSeries
from repro.telemetry.context import get_telemetry


@dataclass(frozen=True)
class FaultLogEntry:
    """One applied fault, as recorded by the injector."""

    time_s: float
    kind: FaultKind
    samples_touched: int
    detail: str

    def describe(self) -> str:
        return (
            f"{self.time_s:.3f}s {self.kind.value}: "
            f"{self.samples_touched} samples ({self.detail})"
        )


class FaultInjector:
    """Stateless-per-event applier of a :class:`FaultSchedule`.

    The injector keeps an append-only ``log`` of every event it
    actually applied (an event scheduled outside all captured windows
    never fires), which the determinism acceptance test compares
    across runs.
    """

    def __init__(self, schedule: FaultSchedule):
        self.schedule = schedule
        self.log: list[FaultLogEntry] = []
        # Channel steps earlier than this are absorbed into the null by
        # a recalibration and no longer corrupt captures.
        self._nulled_until_s = 0.0

    # ------------------------------------------------------------------
    # Capture-path injection
    # ------------------------------------------------------------------

    def corrupt(self, samples: np.ndarray, times_s: np.ndarray) -> np.ndarray:
        """Corrupt a capture whose samples sit at absolute ``times_s``.

        Returns a new array; the input is never mutated.
        """
        samples = np.array(samples, dtype=complex)
        times_s = np.asarray(times_s, dtype=float)
        if samples.shape != times_s.shape:
            raise ValueError("samples and times must align")
        if len(samples) == 0:
            return samples
        t0 = float(times_s[0])
        period = float(times_s[1] - times_s[0]) if len(times_s) > 1 else 0.0
        t1 = float(times_s[-1]) + period
        for event in self.schedule.events_between(t0, t1):
            if event.kind is FaultKind.CHANNEL_STEP:
                continue  # persistent; handled below
            samples = self._apply(event, samples, times_s)
        return self._apply_channel_steps(samples, times_s, t1)

    def corrupt_series(self, series: ChannelSeries, start_s: float) -> ChannelSeries:
        """Corrupt a :class:`ChannelSeries` captured at device-clock
        ``start_s`` (series timestamps are capture-relative)."""
        corrupted = self.corrupt(series.samples, series.times_s + start_s)
        return replace(series, samples=corrupted)

    # ------------------------------------------------------------------
    # Recovery hooks
    # ------------------------------------------------------------------

    def notify_recalibrated(self, time_s: float) -> None:
        """A recalibration at device-clock ``time_s`` re-nulled the
        static channel: every channel step so far is absorbed."""
        self._nulled_until_s = max(self._nulled_until_s, float(time_s))

    # ------------------------------------------------------------------
    # Per-kind application
    # ------------------------------------------------------------------

    def _apply(
        self, event: FaultEvent, samples: np.ndarray, times_s: np.ndarray
    ) -> np.ndarray:
        if event.duration_s == 0.0:
            mask = times_s >= event.start_s
        else:
            mask = (times_s >= event.start_s) & (times_s < event.end_s)
        touched = int(np.count_nonzero(mask))
        if touched == 0:
            return samples

        if event.kind is FaultKind.NAN_BURST:
            samples[mask] = complex(np.nan, np.nan)
            self._record(event, touched, "samples poisoned to NaN")
        elif event.kind is FaultKind.ADC_SATURATION:
            finite = samples[np.isfinite(samples)]
            rms = float(np.sqrt(np.mean(np.abs(finite) ** 2))) if len(finite) else 1.0
            rail = max(event.magnitude * rms, np.finfo(float).tiny)
            clipped = np.clip(samples[mask].real, -rail, rail) + 1j * np.clip(
                samples[mask].imag, -rail, rail
            )
            samples[mask] = clipped
            self._record(event, touched, f"rails clipped at {rail:.3g}")
        elif event.kind is FaultKind.OVERFLOW_STORM:
            indices = np.flatnonzero(mask)
            drop = indices[: max(int(round(event.magnitude * len(indices))), 1)]
            samples[drop] = 0.0
            self._record(event, len(drop), "samples lost to overflow")
        elif event.kind is FaultKind.CLOCK_JUMP:
            samples[mask] *= np.exp(1j * event.magnitude)
            self._record(event, touched, f"phase jumped {event.magnitude:.2f} rad")
        elif event.kind is FaultKind.GAIN_DROPOUT:
            samples[mask] *= event.magnitude
            self._record(event, touched, f"gain dropped to {event.magnitude:g}x")
        else:  # pragma: no cover - exhaustive over FaultKind
            raise ValueError(f"unknown fault kind {event.kind}")
        return samples

    def _apply_channel_steps(
        self, samples: np.ndarray, times_s: np.ndarray, t1: float
    ) -> np.ndarray:
        """Apply every un-absorbed channel step active before ``t1``."""
        for event in self.schedule.events:
            if event.kind is not FaultKind.CHANNEL_STEP:
                continue
            if event.start_s <= self._nulled_until_s or event.start_s >= t1:
                continue
            mask = times_s >= event.start_s
            touched = int(np.count_nonzero(mask))
            if touched == 0:
                continue
            finite = samples[np.isfinite(samples)]
            scale = float(np.mean(np.abs(finite))) if len(finite) else 1.0
            # Deterministic step phase derived from the event time.
            phase = 2.0 * np.pi * (event.start_s - np.floor(event.start_s))
            samples[mask] += event.magnitude * scale * np.exp(1j * phase)
            self._record(event, touched, "static channel stepped")
        return samples

    def _record(self, event: FaultEvent, touched: int, detail: str) -> None:
        self.log.append(
            FaultLogEntry(
                time_s=event.start_s,
                kind=event.kind,
                samples_touched=touched,
                detail=detail,
            )
        )
        telemetry = get_telemetry()
        if telemetry.enabled:
            telemetry.metrics.counter("faults.injected").inc()
            telemetry.events.emit(
                "fault.injected",
                time_s=event.start_s,
                fault=event.kind.value,
                samples_touched=touched,
                detail=detail,
            )

    def describe_log(self) -> list[str]:
        """The applied-fault log as deterministic strings."""
        return [entry.describe() for entry in self.log]
