"""Tests for deterministic fault schedules."""

import numpy as np
import pytest

from repro.capture import CaptureReader
from repro.capture.recorder import EVENT_FAULT_SCHEDULE
from repro.capture.replayer import DEFAULT_FIXTURE_DIR
from repro.faults import FaultEvent, FaultKind, FaultSchedule
from repro.faults import schedule as schedule_module
from repro.faults.schedule import scheduled_fault_count

#: A committed capture recorded with ``repro record --inject-faults
#: --fault-seed 0`` at 2964878: its ``fault_schedule`` event is the
#: schedule that commit drew (seed 0, 6.0 s, 4 events).
PINNED_CAPTURE = DEFAULT_FIXTURE_DIR / "cap-1786127260182-000.capture.ndjson.gz"


def _scale_rates(monkeypatch, factor):
    """Multiply every kind's arrival rate by ``factor`` for one test."""
    for kind, rate in list(schedule_module.FAULT_RATES_HZ.items()):
        monkeypatch.setitem(schedule_module.FAULT_RATES_HZ, kind, rate * factor)


def test_same_seed_identical_schedule():
    a = FaultSchedule.generate(duration_s=60.0, seed=42)
    b = FaultSchedule.generate(duration_s=60.0, seed=42)
    assert a.events == b.events
    assert a.describe() == b.describe()


def test_schedule_matches_the_one_a_committed_capture_recorded():
    """The fault rates and magnitudes still draw an older commit's schedule."""
    (event,) = CaptureReader(PINNED_CAPTURE).events(EVENT_FAULT_SCHEDULE)
    recorded = event["schedule"]
    assert (recorded["seed"], recorded["duration_s"], len(recorded["events"])) == (0, 6.0, 4)
    schedule = FaultSchedule.generate(recorded["duration_s"], seed=recorded["seed"])
    assert [
        {
            "kind": e.kind.value,
            "start_s": e.start_s,
            "duration_s": e.duration_s,
            "magnitude": e.magnitude,
        }
        for e in schedule.events
    ] == recorded["events"]


def test_different_seeds_differ(monkeypatch):
    _scale_rates(monkeypatch, 4.0)
    a = FaultSchedule.generate(duration_s=60.0, seed=0)
    b = FaultSchedule.generate(duration_s=60.0, seed=1)
    assert a.events != b.events


def test_one_kind_independent_of_others(monkeypatch):
    """Silencing every other kind must not move one kind's events."""
    full = FaultSchedule.generate(120.0, seed=3)
    for kind in FaultKind:
        if kind is not FaultKind.NAN_BURST:
            monkeypatch.setitem(schedule_module.FAULT_RATES_HZ, kind, 0.0)
    only_nan = FaultSchedule.generate(120.0, seed=3)
    full_nan = [e for e in full.events if e.kind is FaultKind.NAN_BURST]
    assert list(only_nan.events) == full_nan


def test_events_sorted_and_within_span(monkeypatch):
    _scale_rates(monkeypatch, 5.0)
    schedule = FaultSchedule.generate(30.0, seed=9)
    assert len(schedule) > 0
    starts = [e.start_s for e in schedule.events]
    assert starts == sorted(starts)
    assert all(0.0 <= s < 30.0 for s in starts)


def test_expected_count_matches_poisson_mean(monkeypatch):
    _scale_rates(monkeypatch, 2.0)
    duration = 200.0
    expected = scheduled_fault_count(duration)
    counts = [len(FaultSchedule.generate(duration, seed=s)) for s in range(20)]
    # 20 Poisson draws around the mean: loose 3-sigma-ish band.
    assert expected * 0.6 < np.mean(counts) < expected * 1.4


def test_events_between_half_open():
    event = FaultEvent(FaultKind.NAN_BURST, start_s=1.0, duration_s=0.5, magnitude=0.0)
    jump = FaultEvent(FaultKind.CLOCK_JUMP, start_s=2.0, duration_s=0.0, magnitude=1.0)
    schedule = FaultSchedule(events=(event, jump), duration_s=5.0)
    assert schedule.events_between(0.0, 1.0) == []       # ends before start
    assert schedule.events_between(1.4, 3.0) == [event, jump]
    assert schedule.events_between(1.5, 1.9) == []       # event already over
    assert schedule.events_between(2.0, 2.1) == [jump]   # instant at boundary
    assert schedule.events_between(1.9, 2.0) == []       # half-open: excluded
    with pytest.raises(ValueError):
        schedule.events_between(2.0, 2.0)


def test_config_validation():
    with pytest.raises(ValueError):
        FaultSchedule.generate(0.0, seed=0)


def test_zero_rates_give_empty_schedule(monkeypatch):
    _scale_rates(monkeypatch, 0.0)
    schedule = FaultSchedule.generate(100.0, seed=5)
    assert len(schedule) == 0
