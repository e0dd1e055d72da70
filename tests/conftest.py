"""Shared fixtures for the Wi-Vi reproduction test suite."""

from __future__ import annotations

import subprocess
import sys

import numpy as np
import pytest

from repro.core.tracking import TrackingConfig
from repro.environment.geometry import Point
from repro.environment.human import BodyModel, Human
from repro.environment.scene import Scene
from repro.environment.trajectories import LinearTrajectory
from repro.environment.walls import stata_conference_room_small


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic random generator for reproducible tests."""
    return np.random.default_rng(1234)


@pytest.fixture
def small_room():
    """The 7 x 4 m Stata conference room."""
    return stata_conference_room_small()


@pytest.fixture
def fast_tracking_config() -> TrackingConfig:
    """A lighter tracking configuration for quick tests."""
    return TrackingConfig(window_size=64, hop=16, subarray_size=24)


@pytest.fixture
def walking_scene(small_room) -> Scene:
    """A single torso-only human walking toward the device, off-axis."""
    trajectory = LinearTrajectory(
        start=Point(6.0, 0.8),
        velocity_vector=Point(-1.0, 0.0),
        total_duration_s=4.0,
    )
    human = Human(trajectory=trajectory, body=BodyModel(limb_count=0))
    return Scene(room=small_room, humans=[human])


@pytest.fixture
def spawn_repro(tmp_path):
    """Start ``python -m repro <argv>`` subprocesses logging to files.

    ``spawn_repro(*argv)`` returns ``(process, log)``; any process still
    running at teardown is stopped with SIGTERM.
    """
    processes = []

    def spawn(*argv):
        log = tmp_path / f"repro-{len(processes)}.log"
        with log.open("w") as sink:
            process = subprocess.Popen(
                [sys.executable, "-m", "repro", *argv],
                stdout=sink,
                stderr=subprocess.STDOUT,
            )
        processes.append(process)
        return process, log

    yield spawn
    for process in processes:
        if process.poll() is None:
            process.terminate()
        process.wait(timeout=15)
