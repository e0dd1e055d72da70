"""Seeded fault schedules: deterministic event lists per fault kind.

Each fault kind arrives as a Poisson process at its rate in
:data:`FAULT_RATES_HZ`; event times, durations, and magnitudes are
drawn from a per-kind child generator seeded as ``(seed, kind_index)``,
so the schedule for one kind never depends on how many events another
kind drew.  Two calls to :meth:`FaultSchedule.generate` with the same
duration and seed produce *identical* schedules — the property the
determinism acceptance test pins down, and a committed capture's
recorded schedule pins across commits.

The rates (events per second) model a struggling but not hopeless
host: roughly one fault somewhere every four seconds of capture.  They
are documented in DESIGN.md ("Failure model and recovery policy").
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np


class FaultKind(enum.Enum):
    """The fault taxonomy injected at the hardware boundary."""

    NAN_BURST = "nan-burst"
    ADC_SATURATION = "adc-saturation"
    OVERFLOW_STORM = "overflow-storm"
    CLOCK_JUMP = "clock-jump"
    GAIN_DROPOUT = "gain-dropout"
    CHANNEL_STEP = "channel-step"


#: Stable ordering used both for child-generator seeding and for
#: tie-breaking events that start at the same instant.
_KIND_ORDER: tuple[FaultKind, ...] = (
    FaultKind.NAN_BURST,
    FaultKind.ADC_SATURATION,
    FaultKind.OVERFLOW_STORM,
    FaultKind.CLOCK_JUMP,
    FaultKind.GAIN_DROPOUT,
    FaultKind.CHANNEL_STEP,
)


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault.

    Attributes:
        kind: which failure mode fires.
        start_s: absolute start time on the device clock.
        duration_s: how long the episode lasts (0 for instantaneous
            events such as clock jumps and channel steps).
        magnitude: kind-specific strength — see
            :class:`repro.faults.injector.FaultInjector` for the
            interpretation per kind.
    """

    kind: FaultKind
    start_s: float
    duration_s: float
    magnitude: float

    @property
    def end_s(self) -> float:
        return self.start_s + self.duration_s

    def overlaps(self, t0: float, t1: float) -> bool:
        """Whether the event touches the half-open window [t0, t1)."""
        if self.duration_s == 0.0:
            return t0 <= self.start_s < t1
        return self.start_s < t1 and self.end_s > t0

    def describe(self) -> str:
        return (
            f"{self.kind.value} @ {self.start_s:.3f}s "
            f"dur={self.duration_s:.3f}s mag={self.magnitude:.3g}"
        )


#: Poisson arrival rate of each kind, in events per second of capture.
FAULT_RATES_HZ: dict[FaultKind, float] = {
    FaultKind.NAN_BURST: 0.08,
    FaultKind.ADC_SATURATION: 0.05,
    FaultKind.OVERFLOW_STORM: 0.05,
    FaultKind.CLOCK_JUMP: 0.03,
    FaultKind.GAIN_DROPOUT: 0.04,
    FaultKind.CHANNEL_STEP: 0.02,
}

#: Length of each NaN/Inf burst.
NAN_BURST_DURATION_S = 0.08
#: Length of each ADC saturation episode.
SATURATION_DURATION_S = 0.25
#: Saturation rail level as a fraction of the clean window's RMS
#: amplitude (values < 1 clip hard).
SATURATION_CLIP_FACTOR = 0.4
#: Length of each overflow storm.
OVERFLOW_DURATION_S = 0.3
#: Fraction of the affected window's samples the host drops during an
#: overflow storm.
OVERFLOW_DROP_FRACTION = 1.0
#: Clock jumps draw a phase in [0.25, CLOCK_JUMP_MAX_RAD] radians
#: (uniform).
CLOCK_JUMP_MAX_RAD = 3.0
#: Length of an antenna-gain dropout.
DROPOUT_DURATION_S = 0.5
#: Linear amplitude factor during a dropout (0.1 = a 20 dB gain loss).
DROPOUT_GAIN = 0.1
#: Size of a static-channel step (a door opens) relative to the
#: capture's mean amplitude.
CHANNEL_STEP_FACTOR = 4.0


def _duration_magnitude(
    kind: FaultKind, rng: np.random.Generator
) -> tuple[float, float]:
    if kind is FaultKind.NAN_BURST:
        return NAN_BURST_DURATION_S, 0.0
    if kind is FaultKind.ADC_SATURATION:
        return SATURATION_DURATION_S, SATURATION_CLIP_FACTOR
    if kind is FaultKind.OVERFLOW_STORM:
        return OVERFLOW_DURATION_S, OVERFLOW_DROP_FRACTION
    if kind is FaultKind.CLOCK_JUMP:
        return 0.0, float(rng.uniform(0.25, CLOCK_JUMP_MAX_RAD))
    if kind is FaultKind.GAIN_DROPOUT:
        return DROPOUT_DURATION_S, DROPOUT_GAIN
    return 0.0, CHANNEL_STEP_FACTOR  # CHANNEL_STEP


@dataclass(frozen=True)
class FaultSchedule:
    """A sorted, immutable list of fault events over a capture span.

    Build one deterministically with :meth:`generate`, or construct
    directly from explicit events (tests and scripted scenarios).
    """

    events: tuple[FaultEvent, ...]
    duration_s: float
    seed: int | None = None

    @classmethod
    def generate(cls, duration_s: float, seed: int) -> FaultSchedule:
        """Draw a schedule: Poisson arrivals per kind, seeded per kind."""
        if duration_s <= 0:
            raise ValueError("schedule duration must be positive")
        events: list[FaultEvent] = []
        for index, kind in enumerate(_KIND_ORDER):
            rate = FAULT_RATES_HZ[kind]
            if rate == 0:
                continue
            rng = np.random.default_rng([int(seed), index])
            count = int(rng.poisson(rate * duration_s))
            starts = np.sort(rng.uniform(0.0, duration_s, count))
            for start in starts:
                duration, magnitude = _duration_magnitude(kind, rng)
                events.append(
                    FaultEvent(
                        kind=kind,
                        start_s=float(start),
                        duration_s=duration,
                        magnitude=magnitude,
                    )
                )
        events.sort(key=lambda e: (e.start_s, _KIND_ORDER.index(e.kind)))
        return cls(events=tuple(events), duration_s=duration_s, seed=seed)

    def events_between(self, t0: float, t1: float) -> list[FaultEvent]:
        """Events overlapping the half-open window [t0, t1)."""
        if t1 <= t0:
            raise ValueError("window must have positive length")
        return [event for event in self.events if event.overlaps(t0, t1)]

    def describe(self) -> list[str]:
        """Human-readable, deterministic event log."""
        return [event.describe() for event in self.events]

    def __len__(self) -> int:
        return len(self.events)


def scheduled_fault_count(duration_s: float) -> float:
    """Expected number of events a schedule of this length draws."""
    return sum(FAULT_RATES_HZ.values()) * duration_s
