"""Seeded inputs and their offline references, made before the program starts.

Every input comes from the workload seed, so one seed gives the same
bytes on every run.  Traces carry moving reflectors: the offline pool
comes from :mod:`repro.simulator` tracking trials with 1-3 walkers;
the serving workloads use a multi-mover synthetic (a static residual,
one to three Doppler-shifted, slowly accelerating movers, and noise),
which is cheap enough to regenerate on every run.

References are computed here, in the benchmark's process, with the
same functions the equivalence tests use: ``compute_spectrogram`` for
MUSIC sessions and ``compute_beamformed_frame`` for beamforming ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.tracking import (
    TrackingConfig,
    compute_beamformed_frame,
    compute_spectrogram,
)

CONFIG = TrackingConfig()
HOP_S = CONFIG.hop * CONFIG.sample_period_s

#: Samples in 25 s of trace at the channel sample rate.
TRACE_25S = int(round(25.0 / CONFIG.sample_period_s))

#: serve-bulk / fleet-bulk: 16-window pushes, several sessions per
#: connection, cycling through a pool of 25 s traces.
BULK_PUSH_SAMPLES = 400
BULK_SESSIONS = 16
BULK_POOL = 8

#: serve-realtime: 16 devices, one hop per push, in a fixed role mix.
#: 200 pushes/s leaves the server headroom on a 2-core machine whose
#: host steals up to a fifth of its CPU: at 400 pushes/s its BLAS
#: threads already burn 1.5 of the 2 cores, and a burst of steal tipped
#: it into a backlog whose latencies ran from 3 ms to 2.5 s run to run.
REALTIME_ROLES = {"music": 8, "faulty": 2, "beamforming": 3, "resumable": 3}
REALTIME_DEVICES = sum(REALTIME_ROLES.values())
REALTIME_POOL = 8
REALTIME_MAX_OFFSET_HOPS = 64
#: A faulty device's NaN bursts sit at least this many pushes apart, so
#: its health machine recovers (two clean blocks) before the next one
#: and the session degrades without ever failing.
BURST_MIN_GAP = 12
BURST_MEAN_GAP = 40


@dataclass
class Stream:
    """One session's samples and the columns offline compute gives for them."""

    samples: np.ndarray
    power: np.ndarray
    estimators: np.ndarray
    use_music: bool = True
    resumable: bool = False
    role: str = "music"


def columns_after(pushed: int) -> int:
    """Columns a session has completed once ``pushed`` samples arrived."""
    if pushed < CONFIG.window_size:
        return 0
    return (pushed - CONFIG.window_size) // CONFIG.hop + 1


def synth_trace(rng: np.random.Generator, num_samples: int) -> np.ndarray:
    """A multi-mover trace: static residual, 1-3 Doppler movers, noise."""
    n = np.arange(num_samples)
    trace = 0.6 * np.exp(1j * rng.uniform(0, 2 * np.pi)) + 0.25 * (
        rng.standard_normal(num_samples) + 1j * rng.standard_normal(num_samples)
    )
    for _ in range(int(rng.integers(1, 4))):
        speed = rng.uniform(0.03, 0.25) * rng.choice([-1.0, 1.0])
        drift = rng.uniform(-0.05, 0.05) / num_samples
        phase = speed * n + 0.5 * drift * n * n + rng.uniform(0, 2 * np.pi)
        trace = trace + rng.uniform(0.3, 1.0) * np.exp(1j * phase)
    return trace


def music_stream(samples: np.ndarray, role: str = "music", resumable: bool = False) -> Stream:
    spectrogram = compute_spectrogram(samples, CONFIG)
    return Stream(
        samples=samples,
        power=spectrogram.power,
        estimators=spectrogram.estimators,
        resumable=resumable,
        role=role,
    )


def beamforming_stream(samples: np.ndarray) -> Stream:
    starts = range(0, len(samples) - CONFIG.window_size + 1, CONFIG.hop)
    frames = [
        compute_beamformed_frame(samples[s : s + CONFIG.window_size], CONFIG)
        for s in starts
    ]
    return Stream(
        samples=samples,
        power=np.stack([frame.power for frame in frames]),
        estimators=np.array([frame.estimator for frame in frames], dtype=object),
        use_music=False,
        role="beamforming",
    )


def bulk_streams(seed: int) -> list[Stream]:
    """The bulk pool: 25 s MUSIC traces every bulk session cycles through."""
    rng = np.random.default_rng([seed, 1])
    return [music_stream(synth_trace(rng, TRACE_25S)) for _ in range(BULK_POOL)]


@dataclass
class Device:
    """One open-loop device: its stream and its phase within the 80 ms hop."""

    index: int
    stream: Stream
    phase_s: float


def _with_bursts(rng: np.random.Generator, samples: np.ndarray, pushes: int):
    """Copy ``samples`` with short NaN bursts in isolated one-hop blocks."""
    samples = samples.copy()
    push = int(rng.integers(BURST_MIN_GAP, BURST_MEAN_GAP))
    while push < pushes - 1:
        length = int(rng.integers(4, 13))
        start = push * CONFIG.hop + int(rng.integers(0, CONFIG.hop - length + 1))
        samples[start : start + length] = complex(np.nan, np.nan)
        push += int(rng.integers(BURST_MIN_GAP, 2 * BURST_MEAN_GAP - BURST_MIN_GAP))
    return samples


def realtime_devices(seed: int, pushes: int) -> list[Device]:
    """The realtime devices, with a seeded role mix, each ``pushes`` hops long."""
    rng = np.random.default_rng([seed, 2])
    length = pushes * CONFIG.hop
    base_length = length + REALTIME_MAX_OFFSET_HOPS * CONFIG.hop
    bases = [synth_trace(rng, base_length) for _ in range(REALTIME_POOL)]
    base_streams = [music_stream(base) for base in bases]
    roles = [role for role, count in REALTIME_ROLES.items() for _ in range(count)]
    roles = [roles[i] for i in rng.permutation(len(roles))]
    # Phases are spread evenly over the hop, so the offered load is
    # smooth; which device gets which phase is seeded.
    phases = rng.permutation(REALTIME_DEVICES) * (HOP_S / REALTIME_DEVICES)
    devices = []
    for index, role in enumerate(roles):
        base = index % REALTIME_POOL
        offset = int(rng.integers(0, REALTIME_MAX_OFFSET_HOPS))
        samples = bases[base][offset * CONFIG.hop : offset * CONFIG.hop + length]
        if role == "beamforming":
            stream = beamforming_stream(samples)
        elif role == "faulty":
            samples = _with_bursts(rng, samples, pushes)
            stream = music_stream(samples, role="faulty")
        else:
            windows = columns_after(length)
            reference = base_streams[base]
            stream = Stream(
                samples=samples,
                power=reference.power[offset : offset + windows],
                estimators=reference.estimators[offset : offset + windows],
                resumable=role == "resumable",
                role=role,
            )
        devices.append(Device(index=index, stream=stream, phase_s=float(phases[index])))
    return devices


def offline_pool(seed: int) -> list[np.ndarray]:
    """Three 25 s simulator tracking traces with 1, 2 and 3 walkers."""
    from repro.environment.walls import stata_conference_room_small
    from repro.simulator.experiment import make_subject_pool, tracking_trial

    traces = []
    for walkers in (1, 2, 3):
        rng = np.random.default_rng([seed, 3, walkers])
        trial = tracking_trial(
            stata_conference_room_small(), walkers, 25.0, rng, make_subject_pool(rng)
        )
        traces.append(np.asarray(trial.series.samples, dtype=complex))
    return traces
