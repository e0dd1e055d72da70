"""Tests for fault application at the hardware boundary."""

import numpy as np

from repro.faults import FaultEvent, FaultInjector, FaultKind, FaultSchedule
from repro.simulator.timeseries import ChannelSeries


def make_schedule(*events, duration_s=10.0):
    return FaultSchedule(events=tuple(events), duration_s=duration_s)


def clean_capture(n=1000, period=0.01, amplitude=1.0):
    times = np.arange(n) * period
    samples = amplitude * np.exp(2j * np.pi * 0.7 * times)
    return times, samples


def test_nan_burst_poisons_window_only():
    event = FaultEvent(FaultKind.NAN_BURST, 2.0, 0.5, 0.0)
    injector = FaultInjector(make_schedule(event))
    times, samples = clean_capture()
    out = injector.corrupt(samples, times)
    in_window = (times >= 2.0) & (times < 2.5)
    assert np.all(np.isnan(out[in_window]))
    assert np.all(np.isfinite(out[~in_window]))
    assert samples is not out and np.all(np.isfinite(samples))


def test_saturation_clips_rails():
    event = FaultEvent(FaultKind.ADC_SATURATION, 1.0, 1.0, 0.4)
    injector = FaultInjector(make_schedule(event))
    times, samples = clean_capture(amplitude=2.0)
    out = injector.corrupt(samples, times)
    rms = float(np.sqrt(np.mean(np.abs(samples) ** 2)))
    rail = 0.4 * rms
    in_window = (times >= 1.0) & (times < 2.0)
    assert np.max(np.abs(out[in_window].real)) <= rail + 1e-12
    assert np.max(np.abs(out[in_window].imag)) <= rail + 1e-12
    assert np.allclose(out[~in_window], samples[~in_window])


def test_overflow_storm_zeroes_samples():
    event = FaultEvent(FaultKind.OVERFLOW_STORM, 0.0, 1.0, 0.5)
    injector = FaultInjector(make_schedule(event))
    times, samples = clean_capture()
    out = injector.corrupt(samples, times)
    in_window = times < 1.0
    zeroed = np.count_nonzero(out[in_window] == 0.0)
    assert zeroed == round(0.5 * np.count_nonzero(in_window))


def test_clock_jump_rotates_tail():
    event = FaultEvent(FaultKind.CLOCK_JUMP, 5.0, 0.0, 1.2)
    injector = FaultInjector(make_schedule(event))
    times, samples = clean_capture()
    out = injector.corrupt(samples, times)
    tail = times >= 5.0
    assert np.allclose(out[tail], samples[tail] * np.exp(1.2j))
    assert np.allclose(out[~tail], samples[~tail])


def test_gain_dropout_scales_window():
    event = FaultEvent(FaultKind.GAIN_DROPOUT, 3.0, 2.0, 0.1)
    injector = FaultInjector(make_schedule(event))
    times, samples = clean_capture()
    out = injector.corrupt(samples, times)
    in_window = (times >= 3.0) & (times < 5.0)
    assert np.allclose(out[in_window], 0.1 * samples[in_window])


def test_channel_step_persists_until_recalibration():
    event = FaultEvent(FaultKind.CHANNEL_STEP, 1.0, 0.0, 4.0)
    injector = FaultInjector(make_schedule(event))
    times, samples = clean_capture(n=300)

    first = injector.corrupt(samples, times)
    assert not np.allclose(first[times >= 1.0], samples[times >= 1.0])

    # A later capture (the door is still open): the whole capture shifts.
    later = injector.corrupt(samples, times + 5.0)
    assert not np.allclose(later, samples)

    # Recalibration absorbs the step into the new null.
    injector.notify_recalibrated(8.0)
    after = injector.corrupt(samples, times + 8.0)
    assert np.allclose(after, samples)


def test_fault_log_is_deterministic():
    events = (
        FaultEvent(FaultKind.NAN_BURST, 1.0, 0.2, 0.0),
        FaultEvent(FaultKind.CLOCK_JUMP, 4.0, 0.0, 0.9),
    )
    times, samples = clean_capture()
    logs = []
    for _ in range(2):
        injector = FaultInjector(make_schedule(*events))
        injector.corrupt(samples, times)
        logs.append(injector.describe_log())
    assert logs[0] == logs[1]
    assert len(logs[0]) == 2


def test_corrupt_series_offsets_by_device_clock():
    event = FaultEvent(FaultKind.GAIN_DROPOUT, 10.5, 0.5, 0.0)
    injector = FaultInjector(make_schedule(event, duration_s=20.0))
    times, samples = clean_capture(n=200)
    series = ChannelSeries(
        times_s=times,
        samples=samples,
        dc_residual=0.0,
        nulling_db=40.0,
        precoder=-1.0 + 0j,
        noise_sigma=0.0,
    )
    # Captured at clock 0: the 10.5 s event is out of range.
    untouched = injector.corrupt_series(series, start_s=0.0)
    assert np.allclose(untouched.samples, samples)
    # Captured at clock 10: the event lands 0.5 s in.
    hit = injector.corrupt_series(series, start_s=10.0)
    in_window = (times >= 0.5) & (times < 1.0)
    assert np.allclose(hit.samples[in_window], 0.0)
    assert hit.times_s is series.times_s  # metadata preserved
