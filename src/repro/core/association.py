"""Multi-target angle tracking: from A'[theta, n] to discrete tracks.

The paper reads its spectrograms by eye: "there will be as many curved
lines as moving humans" (§5.2).  This module automates that reading —
per-window peak extraction followed by nearest-neighbour data
association with track lifecycle management (tentative / confirmed /
coasting / dead), a textbook single-hypothesis tracker.

Tracks expose the quantity the paper reasons about: the signed angle
trajectory theta(t) of each mover, from which approach/retreat episodes
and turnarounds can be read off programmatically (used by the
trajectory-summary API and the intrusion-detection example).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.tracking import MotionSpectrogram


@dataclass
class AngleObservation:
    """One detected peak in one spectrogram window."""

    time_s: float
    theta_deg: float
    strength_db: float


def extract_observations(
    spectrogram: MotionSpectrogram,
    threshold_db: float = 10.0,
    dc_guard_deg: float = 6.0,
    min_separation_deg: float = 10.0,
    max_peaks: int = 4,
) -> list[list[AngleObservation]]:
    """Per-window peak lists from the normalized dB image.

    The DC stripe is masked; peaks must rise ``threshold_db`` above the
    window floor and sit at least ``min_separation_deg`` apart.
    """
    from scipy.signal import find_peaks

    if max_peaks < 1:
        raise ValueError("max_peaks must be positive")
    db = spectrogram.normalized_db()
    grid = spectrogram.theta_grid_deg
    step = float(np.median(np.diff(grid)))
    distance_bins = max(int(min_separation_deg / step), 1)
    observations: list[list[AngleObservation]] = []
    for row_index, row in enumerate(db):
        masked = row.copy()
        masked[np.abs(grid) < dc_guard_deg] = 0.0
        peaks, properties = find_peaks(
            masked, height=threshold_db, distance=distance_bins
        )
        order = np.argsort(properties["peak_heights"])[::-1][:max_peaks]
        window_obs = [
            AngleObservation(
                time_s=float(spectrogram.times_s[row_index]),
                theta_deg=float(grid[peaks[i]]),
                strength_db=float(properties["peak_heights"][i]),
            )
            for i in order
        ]
        window_obs.sort(key=lambda o: o.theta_deg)
        observations.append(window_obs)
    return observations


@dataclass
class Track:
    """One mover's angle trajectory."""

    track_id: int
    times_s: list[float] = field(default_factory=list)
    thetas_deg: list[float] = field(default_factory=list)
    strengths_db: list[float] = field(default_factory=list)
    misses: int = 0
    hits: int = 0

    @property
    def last_theta(self) -> float:
        return self.thetas_deg[-1]

    @property
    def duration_s(self) -> float:
        if len(self.times_s) < 2:
            return 0.0
        return self.times_s[-1] - self.times_s[0]

    def predict(self) -> float:
        """Constant-velocity angle prediction for the next window."""
        if len(self.thetas_deg) < 2:
            return self.last_theta
        return float(
            np.clip(2 * self.thetas_deg[-1] - self.thetas_deg[-2], -90.0, 90.0)
        )

    def add(self, observation: AngleObservation) -> None:
        self.times_s.append(observation.time_s)
        self.thetas_deg.append(observation.theta_deg)
        self.strengths_db.append(observation.strength_db)
        self.hits += 1
        self.misses = 0

    def episodes(self) -> list[tuple[str, float, float]]:
        """Approach/retreat episodes: (direction, start, end) triples.

        Positive theta = moving toward the device (§5.1), so a sign
        change in the track is a turnaround.
        """
        if not self.thetas_deg:
            return []
        result = []
        current = "toward" if self.thetas_deg[0] >= 0 else "away"
        start = self.times_s[0]
        for time_s, theta in zip(self.times_s, self.thetas_deg):
            direction = "toward" if theta >= 0 else "away"
            if direction != current:
                result.append((current, start, time_s))
                current, start = direction, time_s
        result.append((current, start, self.times_s[-1]))
        return result


@dataclass(frozen=True)
class TrackerConfig:
    """Association and lifecycle parameters."""

    gate_deg: float = 18.0
    max_misses: int = 4
    confirm_hits: int = 5

    def __post_init__(self) -> None:
        if self.gate_deg <= 0:
            raise ValueError("gate must be positive")
        if self.max_misses < 1 or self.confirm_hits < 1:
            raise ValueError("lifecycle counts must be positive")


class AngleTracker:
    """Greedy nearest-neighbour tracker over angle observations."""

    def __init__(self, config: TrackerConfig | None = None):
        self.config = config if config is not None else TrackerConfig()
        self._active: list[Track] = []
        self._finished: list[Track] = []
        self._next_id = 0

    def _associate(self, observations: list[AngleObservation]) -> None:
        unmatched = list(observations)
        # Strongest-first greedy matching within the gate.
        for track in sorted(self._active, key=lambda t: -t.hits):
            if not unmatched:
                break
            predicted = track.predict()
            best = min(unmatched, key=lambda o: abs(o.theta_deg - predicted))
            if abs(best.theta_deg - predicted) <= self.config.gate_deg:
                track.add(best)
                unmatched.remove(best)
            else:
                track.misses += 1
        for leftover in unmatched:
            track = Track(self._next_id)
            self._next_id += 1
            track.add(leftover)
            self._active.append(track)

    def _reap(self) -> None:
        survivors = []
        for track in self._active:
            if track.misses > self.config.max_misses:
                if track.hits >= self.config.confirm_hits:
                    self._finished.append(track)
            else:
                survivors.append(track)
        self._active = survivors

    def step(self, observations: list[AngleObservation]) -> None:
        """Feed one window's observations."""
        matched_any = bool(observations)
        if not matched_any:
            for track in self._active:
                track.misses += 1
        else:
            self._associate(observations)
        self._reap()

    def run(self, per_window_observations: list[list[AngleObservation]]) -> list[Track]:
        """Feed a whole spectrogram's observations; return confirmed
        tracks sorted by start time."""
        for window in per_window_observations:
            self.step(window)
        tracks = self._finished + [
            t for t in self._active if t.hits >= self.config.confirm_hits
        ]
        tracks.sort(key=lambda t: t.times_s[0])
        return tracks


def track_spectrogram(
    spectrogram: MotionSpectrogram,
    tracker_config: TrackerConfig | None = None,
    threshold_db: float = 10.0,
) -> list[Track]:
    """One-call pipeline: spectrogram -> confirmed angle tracks."""
    observations = extract_observations(spectrogram, threshold_db=threshold_db)
    return AngleTracker(tracker_config).run(observations)


def count_simultaneous_tracks(tracks: list[Track], times_s: np.ndarray) -> np.ndarray:
    """How many confirmed tracks are live at each instant — a
    track-based occupancy estimate (compare the §5.2 variance one)."""
    counts = np.zeros(len(times_s), dtype=int)
    for track in tracks:
        start, end = track.times_s[0], track.times_s[-1]
        counts += ((times_s >= start) & (times_s <= end)).astype(int)
    return counts
