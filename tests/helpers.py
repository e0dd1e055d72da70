"""Helpers the runtime, serve, fleet, capture and console tests share."""

import re
import subprocess
import time
from pathlib import Path

import numpy as np

#: A light session config (wire form) so a few hundred samples emit
#: several columns.
FAST = {"window_size": 64, "hop": 16, "subarray_size": 24}


def synthetic_trace(rng: np.random.Generator, num_samples: int = 400) -> np.ndarray:
    """A moving-reflector trace: two linear phase ramps plus noise and DC."""
    n = np.arange(num_samples)
    noise = rng.standard_normal(num_samples) + 1j * rng.standard_normal(num_samples)
    return np.exp(1j * 0.12 * n) + 0.4 * np.exp(-1j * 0.05 * n) + 0.25 * noise + 0.6


def wait_for_line(
    log: Path, pattern: re.Pattern, process: subprocess.Popen, timeout: float = 15.0
) -> re.Match:
    """The first match of ``pattern`` in a subprocess's ``log``, once written."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        match = pattern.search(log.read_text())
        if match:
            return match
        if process.poll() is not None:
            break
        time.sleep(0.1)
    raise AssertionError(f"no {pattern.pattern!r} line in: {log.read_text()!r}")
