"""Deterministic fault injection for the Wi-Vi sensing stack.

The subsystem has two halves:

* :mod:`repro.faults.schedule` — seeded, fully deterministic fault
  *schedules*: Poisson-arrival event lists per fault kind (NaN bursts,
  ADC saturation, overflow storms, clock jumps, antenna-gain dropouts,
  static-channel steps).
* :mod:`repro.faults.injector` — the *injector* that applies a
  schedule's events to captures and streams at the hardware boundary,
  keeping an event log so two runs with one seed are bit-comparable.

The recovery side lives in :mod:`repro.core.monitoring`
(health-state machine, capture screening) and the estimator fallback
in :mod:`repro.core.tracking`.
"""

from repro.faults.injector import FaultInjector, FaultLogEntry
from repro.faults.schedule import (
    FaultEvent,
    FaultKind,
    FaultSchedule,
)

__all__ = [
    "FaultEvent",
    "FaultInjector",
    "FaultKind",
    "FaultLogEntry",
    "FaultSchedule",
]
