"""Tests for nulling-health monitoring, screening, and the health machine."""

import numpy as np
import pytest

from repro.core import monitoring
from repro.core.monitoring import (
    DeviceHealth,
    HealthStateMachine,
    NullingMonitor,
    ResilientDevice,
    dc_level,
    sanitize_series,
    screen_block,
)
from repro.errors import CaptureQualityError, DeviceFailedError
from repro.environment.geometry import Point
from repro.environment.human import BodyModel, Human
from repro.environment.scene import Scene
from repro.environment.trajectories import LinearTrajectory
from repro.environment.walls import stata_conference_room_small
from repro.simulator.device import WiViDevice
from repro.simulator.timeseries import ChannelSeries, ChannelSeriesSimulator


def make_series(dc, noise_sigma=1e-7, n=500, seed=0):
    rng = np.random.default_rng(seed)
    samples = dc + noise_sigma * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    return ChannelSeries(
        times_s=np.arange(n) * 0.0032,
        samples=samples,
        dc_residual=dc,
        nulling_db=40.0,
        precoder=-1.0 + 0j,
        noise_sigma=noise_sigma,
    )


def test_dc_level_measures_residual():
    series = make_series(dc=3e-5 + 4e-5j)
    assert dc_level(series) == pytest.approx(5e-5, rel=0.01)


def test_monitor_flags_erosion():
    monitor = NullingMonitor()  # a 10 dB budget
    monitor.set_baseline(make_series(dc=1e-5))
    # 6 dB growth: fine.  20 dB growth: recalibrate.
    assert not monitor.needs_recalibration(make_series(dc=2e-5, seed=1))
    assert monitor.needs_recalibration(make_series(dc=1e-4, seed=2))
    assert len(monitor.history_db) == 2


def test_monitor_requires_baseline():
    monitor = NullingMonitor()
    with pytest.raises(RuntimeError):
        monitor.erosion_db(make_series(dc=1e-5))


def test_auto_device_calibrates_lazily(rng):
    room = stata_conference_room_small()
    trajectory = LinearTrajectory(Point(6.0, 0.8), Point(-0.5, 0.0), 20.0)
    scene = Scene(room=room, humans=[Human(trajectory, BodyModel(limb_count=0))])
    auto = ResilientDevice(WiViDevice(scene, rng))
    series = auto.capture(2.0)
    assert auto.device.is_calibrated
    assert len(series.samples) > 0
    assert auto.machine.recalibration_count == 0


def test_auto_device_recalibrates_on_drift(rng, monkeypatch):
    monkeypatch.setattr(monitoring, "EROSION_BUDGET_DB", 6.0)
    room = stata_conference_room_small()
    scene = Scene(room=room)
    device = WiViDevice(scene, rng)
    auto = ResilientDevice(device)
    auto.capture(1.0)
    assert auto.machine.recalibration_count == 0

    # Simulate environmental drift: the next capture's nulling depth is
    # forced shallow, inflating the DC residual.
    original = device.capture

    def drifted(duration_s):
        series = original(duration_s)
        return ChannelSeries(
            times_s=series.times_s,
            samples=series.samples + 100.0 * series.dc_residual,
            dc_residual=series.dc_residual * 100.0,
            nulling_db=series.nulling_db - 40.0,
            precoder=series.precoder,
            noise_sigma=series.noise_sigma,
        )

    monkeypatch.setattr(device, "capture", drifted)
    auto.capture(1.0)
    assert auto.machine.recalibration_count == 1
    assert [t.target for t in auto.machine.transitions] == [
        DeviceHealth.RECALIBRATING,
        DeviceHealth.DEGRADED,
    ]
    assert "nulling eroded" in auto.machine.transitions[0].reason


# ----------------------------------------------------------------------
# NullingMonitor edge cases
# ----------------------------------------------------------------------


def test_monitor_zero_baseline_does_not_blow_up():
    """A perfect null (DC exactly zero) clamps rather than dividing by
    zero; any later finite residual reads as massive erosion."""
    monitor = NullingMonitor()
    monitor.set_baseline(make_series(dc=0.0, noise_sigma=0.0))
    assert monitor.baseline_level == 1e-30
    erosion = monitor.erosion_db(make_series(dc=1e-6, noise_sigma=0.0))
    assert np.isfinite(erosion) and erosion > 100.0
    assert monitor.needs_recalibration(make_series(dc=1e-6, noise_sigma=0.0))


def test_monitor_near_zero_baseline_is_finite():
    monitor = NullingMonitor()
    monitor.set_baseline(make_series(dc=1e-28, noise_sigma=0.0))
    erosion = monitor.erosion_db(make_series(dc=1e-28, noise_sigma=0.0))
    assert erosion == pytest.approx(0.0, abs=1e-6)


def test_monitor_erosion_exactly_at_budget_does_not_trip(monkeypatch):
    """The budget is a strict bound: erosion exactly at the budget is
    still within contract; only beyond it triggers recalibration."""
    monkeypatch.setattr(monitoring, "EROSION_BUDGET_DB", 20.0)
    monitor = NullingMonitor()
    monitor.set_baseline(make_series(dc=1.0, noise_sigma=0.0))
    # A 10x residual is exactly +20 dB, representable without rounding.
    at_budget = make_series(dc=10.0, noise_sigma=0.0)
    assert monitor.erosion_db(at_budget) == 20.0
    assert not monitor.needs_recalibration(at_budget)
    beyond = make_series(dc=10.1, noise_sigma=0.0)
    assert monitor.needs_recalibration(beyond)


def test_monitor_set_baseline_clears_history():
    monitor = NullingMonitor()
    monitor.set_baseline(make_series(dc=1e-5))
    monitor.erosion_db(make_series(dc=2e-5, seed=1))
    monitor.erosion_db(make_series(dc=3e-5, seed=2))
    assert len(monitor.history_db) == 2
    monitor.set_baseline(make_series(dc=1e-5, seed=3))
    assert monitor.history_db == []


# ----------------------------------------------------------------------
# Capture screening and repair (the streamed-block inputs of the same
# screen are in tests/runtime/test_pipeline.py, TestScreenBlock)
# ----------------------------------------------------------------------


def test_screen_clean_capture():
    health = screen_block(make_series(dc=1e-5, noise_sigma=1e-6).samples)
    assert health.nan_fraction == 0.0
    assert health.zero_fraction == 0.0
    assert health.saturation_fraction < 0.02
    assert health.damaged_fraction == 0.0
    assert not health.beyond_repair


def test_screen_counts_nan_and_zero_fractions():
    series = make_series(dc=1e-5)
    series.samples[:50] = np.nan
    series.samples[50:100] = 0.0
    health = screen_block(series.samples)
    assert health.nan_fraction == pytest.approx(0.1)
    assert health.zero_fraction == pytest.approx(50 / 450)
    assert health.damaged_fraction > 0.2
    assert health.beyond_repair


def test_screen_detects_saturation_plateau():
    series = make_series(dc=1e-5, noise_sigma=1e-6)
    rail = 0.8 * np.abs(series.samples).max()
    clipped = np.clip(series.samples.real, -rail, rail) + 1j * np.clip(
        series.samples.imag, -rail, rail
    )
    clipped[:200] = rail + 1j * rail  # a hard plateau
    health = screen_block(clipped)
    assert health.saturation_fraction > 0.3
    assert health.beyond_repair


def test_sanitize_interpolates_and_counts():
    series = make_series(dc=1e-5, noise_sigma=0.0)
    series.samples[100:110] = np.nan
    series.samples[200:205] = 0.0
    repaired, count = sanitize_series(series)
    assert count == 15
    assert np.all(np.isfinite(repaired.samples))
    assert np.all(repaired.samples[100:110] != 0.0)
    # A flat series interpolates back to itself.
    assert np.allclose(repaired.samples, 1e-5, rtol=1e-6)


def test_sanitize_noop_on_clean_capture():
    series = make_series(dc=1e-5)
    repaired, count = sanitize_series(series)
    assert count == 0
    assert repaired is series


def test_sanitize_rejects_hopeless_capture():
    series = make_series(dc=1e-5, n=10)
    series.samples[:] = np.nan
    with pytest.raises(CaptureQualityError):
        sanitize_series(series)


# ----------------------------------------------------------------------
# Health-state machine
# ----------------------------------------------------------------------


def test_machine_starts_healthy():
    machine = HealthStateMachine()
    assert machine.state is DeviceHealth.HEALTHY
    assert machine.state_sequence() == [DeviceHealth.HEALTHY]


def test_machine_degrades_then_recovers_with_hysteresis():
    machine = HealthStateMachine()  # two clean captures recover
    machine.record_bad("nan burst")
    assert machine.state is DeviceHealth.DEGRADED
    machine.record_good()
    assert machine.state is DeviceHealth.DEGRADED  # one good is not enough
    machine.record_good()
    assert machine.state is DeviceHealth.HEALTHY
    assert machine.recovery_count == 1


def test_machine_escalates_to_recalibrating():
    machine = HealthStateMachine()  # two bad captures escalate
    machine.record_bad("storm")
    machine.record_bad("storm")
    assert machine.state is DeviceHealth.RECALIBRATING
    machine.recalibration_succeeded()
    assert machine.state is DeviceHealth.DEGRADED
    assert machine.recalibration_count == 1


def test_machine_good_captures_reset_bad_streak():
    machine = HealthStateMachine()
    machine.record_bad("x")
    machine.record_good()
    machine.record_bad("x")
    # Streak was broken: still DEGRADED, not RECALIBRATING.
    assert machine.state is DeviceHealth.DEGRADED


def test_machine_fails_after_repeated_recalibration_failures():
    machine = HealthStateMachine()  # the second failure fails
    machine.demand_recalibration("erosion")
    machine.recalibration_failed("no convergence")
    assert machine.state is DeviceHealth.RECALIBRATING
    machine.recalibration_failed("no convergence")
    assert machine.state is DeviceHealth.FAILED
    with pytest.raises(DeviceFailedError):
        machine.record_good()


def test_machine_transition_log_reasons():
    machine = HealthStateMachine()
    machine.record_bad("nan burst")
    machine.demand_recalibration("erosion over budget")
    assert [t.target for t in machine.transitions] == [
        DeviceHealth.DEGRADED,
        DeviceHealth.RECALIBRATING,
    ]
    assert "nan burst" in machine.transitions[0].reason
    assert machine.state_sequence()[0] is DeviceHealth.HEALTHY

