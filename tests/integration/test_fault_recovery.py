"""End-to-end fault injection, graceful degradation, and recovery.

The acceptance story for the robustness layer: a tracking experiment
with faults injected at the hardware boundary completes without
uncaught exceptions, walks the HEALTHY -> DEGRADED -> RECALIBRATING ->
HEALTHY arc, replays bit-identically under one seed, and still
localizes the moving human after recovering.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.monitoring import DeviceHealth, ResilientDevice
from repro.core.tracking import ESTIMATOR_BEAMFORMING, ESTIMATOR_MUSIC
from repro.environment.geometry import Point
from repro.environment.human import BodyModel, Human
from repro.environment.scene import Scene
from repro.environment.trajectories import LinearTrajectory
from repro.environment.walls import stata_conference_room_small
from repro.faults import (
    FaultEvent,
    FaultInjector,
    FaultKind,
    FaultSchedule,
)
from repro.simulator.device import WiViDevice, WiViDeviceConfig


def walking_device(fast_tracking_config, seed=0, walk_duration_s=9.0):
    room = stata_conference_room_small()
    trajectory = LinearTrajectory(Point(6.5, 0.8), Point(-0.8, 0.0), walk_duration_s)
    scene = Scene(room=room, humans=[Human(trajectory, BodyModel(limb_count=0))])
    # Match the emulated-array spacing to the walker's actual speed so
    # the ISAR angles stay calibrated across the experiment timeline.
    speed = float(np.hypot(7.3, 0.8)) / walk_duration_s
    tracking = replace(fast_tracking_config, assumed_speed_mps=speed)
    config = WiViDeviceConfig(tracking=tracking)
    return WiViDevice(scene, np.random.default_rng(seed), config)


def is_subsequence(needle, haystack):
    it = iter(haystack)
    return all(item in it for item in needle)


def test_scripted_faults_walk_the_full_health_arc(fast_tracking_config):
    """Two NaN bursts degrade then force recalibration; two clean
    captures then prove recovery: the canonical health arc."""
    device = walking_device(fast_tracking_config)
    # Timeline: baseline capture spans clock 0-1; four 1 s captures
    # follow.  Each 0.08 s burst damages ~8% of a capture — repairable.
    schedule = FaultSchedule(
        events=(
            FaultEvent(FaultKind.NAN_BURST, 1.3, 0.08, 0.0),
            FaultEvent(FaultKind.NAN_BURST, 2.3, 0.08, 0.0),
        ),
        duration_s=20.0,
    )
    resilient = ResilientDevice(device, injector=FaultInjector(schedule))
    for _ in range(4):
        series = resilient.capture(1.0)
        assert np.all(np.isfinite(series.samples))

    assert is_subsequence(
        [
            DeviceHealth.HEALTHY,
            DeviceHealth.DEGRADED,
            DeviceHealth.RECALIBRATING,
            DeviceHealth.HEALTHY,
        ],
        resilient.machine.state_sequence(),
    )
    assert resilient.machine.state is DeviceHealth.HEALTHY
    assert resilient.machine.recovery_count == 1
    assert resilient.machine.recalibration_count == 1
    assert resilient.repaired_sample_count > 0
    assert len(resilient.health_trace) == 4


def test_channel_step_erodes_nulling_and_recalibration_absorbs_it(
    fast_tracking_config,
):
    """A door opens mid-capture: the DC residual explodes past the
    erosion budget, the device recalibrates, and the new null absorbs
    the step for every later capture."""
    device = walking_device(fast_tracking_config)
    schedule = FaultSchedule(
        events=(FaultEvent(FaultKind.CHANNEL_STEP, 1.05, 0.0, 8.0),),
        duration_s=30.0,
    )
    resilient = ResilientDevice(device, injector=FaultInjector(schedule))
    first = resilient.capture(1.0)
    assert is_subsequence(
        [DeviceHealth.HEALTHY, DeviceHealth.RECALIBRATING, DeviceHealth.DEGRADED],
        resilient.machine.state_sequence(),
    )
    reasons = [t.reason for t in resilient.machine.transitions]
    assert any("eroded" in r for r in reasons)
    # The returned capture postdates the recalibration: step absorbed.
    assert np.abs(np.mean(first.samples)) < 8.0 * np.mean(np.abs(first.samples))
    second = resilient.capture(1.0)
    resilient.capture(1.0)
    assert resilient.machine.state is DeviceHealth.HEALTHY
    # No further erosion events fired after the null absorbed the step.
    step_hits = [
        e for e in resilient.injector.log if e.kind is FaultKind.CHANNEL_STEP
    ]
    assert all(hit.time_s == 1.05 for hit in step_hits)
    assert np.all(np.isfinite(second.samples))


def run_default_rate_experiment(fault_seed, fast_tracking_config):
    device = walking_device(fast_tracking_config, seed=1)
    schedule = FaultSchedule.generate(duration_s=9.0, seed=fault_seed)
    resilient = ResilientDevice(device, injector=FaultInjector(schedule))
    for _ in range(3):
        resilient.capture(1.0)
    spectrogram = resilient.image(4.0)
    return resilient, spectrogram


def test_default_rates_complete_and_localize(fast_tracking_config):
    """The documented default fault rates: the experiment finishes with
    no uncaught exception and the spectrogram still finds the walker."""
    resilient, spectrogram = run_default_rate_experiment(11, fast_tracking_config)
    assert resilient.machine.state is not DeviceHealth.FAILED
    assert np.all(np.isfinite(spectrogram.power))
    angles = spectrogram.dominant_angles_deg(exclude_dc_deg=10.0)
    # The walker approaches the device: positive angles dominate.
    assert np.mean(angles) > 25.0
    assert np.mean(angles > 0) > 0.7


def test_fault_run_is_deterministic_per_seed(fast_tracking_config):
    """Same seed -> identical fault event log, health-state trace, and
    spectrogram; the whole failure replay is a pure function of seed."""
    first, image_a = run_default_rate_experiment(7, fast_tracking_config)
    second, image_b = run_default_rate_experiment(7, fast_tracking_config)
    assert first.injector.schedule.events == second.injector.schedule.events
    assert first.injector.describe_log() == second.injector.describe_log()
    assert first.health_trace == second.health_trace
    assert first.machine.transitions == second.machine.transitions
    assert np.array_equal(image_a.power, image_b.power)
    assert np.array_equal(image_a.estimators, image_b.estimators)


def test_degeneracy_fallback_is_observable_end_to_end(fast_tracking_config):
    """A near-total gain dropout leaves windows MUSIC cannot condition;
    the pipeline estimates them with beamforming and says so per frame."""
    device = walking_device(fast_tracking_config)
    schedule = FaultSchedule(
        events=(FaultEvent(FaultKind.GAIN_DROPOUT, 1.8, 0.4, 1e-8),),
        duration_s=10.0,
    )
    resilient = ResilientDevice(device, injector=FaultInjector(schedule))
    spectrogram = resilient.image(2.0)
    assert len(spectrogram.estimators) == spectrogram.num_windows
    assert ESTIMATOR_BEAMFORMING in set(spectrogram.estimators)
    assert ESTIMATOR_MUSIC in set(spectrogram.estimators)
    assert 0.0 < spectrogram.fallback_fraction < 1.0
    assert np.all(np.isfinite(spectrogram.power))


def test_failed_device_raises_cleanly(fast_tracking_config):
    """Saturation storms on every capture exhaust the retry budget: the
    device fails loudly with the typed error, not an arbitrary crash."""
    from repro.errors import CaptureQualityError, DeviceFailedError

    device = walking_device(fast_tracking_config)
    # Saturate everything, always: no capture can pass screening.
    events = tuple(
        FaultEvent(FaultKind.ADC_SATURATION, float(t), 1.0, 0.2)
        for t in range(30)
    )
    resilient = ResilientDevice(device, injector=FaultInjector(
        FaultSchedule(events=events, duration_s=30.0)
    ))
    with pytest.raises((CaptureQualityError, DeviceFailedError)):
        for _ in range(10):
            resilient.capture(1.0)
    assert resilient.machine.state is DeviceHealth.FAILED
    with pytest.raises(DeviceFailedError):
        resilient.capture(1.0)
