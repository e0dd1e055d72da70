"""Nulling-health monitoring, block screening, and recovery policy.

Nulling is a snapshot: the precoder cancels the static channel *as it
was measured*.  When the static environment drifts — a door opens, the
radio's cart is nudged, temperature shifts the cables — the residual DC
grows and the flash starts leaking back.  A deployed device needs a
policy for noticing and re-running Algorithm 1.

Three layers, bottom up:

* `NullingMonitor` watches the DC level of captured traces against the
  level recorded at calibration and flags when the achieved suppression
  has eroded by more than a budget.
* :func:`screen_block` / :func:`sanitize_series` — NaN/saturation/
  dead-air screening of every sample block (a capture, a streamed
  block, a served push), with bounded in-place repair of captures.
* :class:`HealthStateMachine` + :class:`ResilientDevice` — the
  HEALTHY → DEGRADED → RECALIBRATING → FAILED device health machine
  with hysteresis and recovery counters, driving captures through
  screening, erosion checks, retried recalibration, and (optionally) a
  :class:`repro.faults.FaultInjector` at the hardware boundary.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace

import numpy as np

from repro.core.tracking import MotionSpectrogram, compute_spectrogram
from repro.errors import CalibrationError, CaptureQualityError, DeviceFailedError
from repro.faults.injector import FaultInjector
from repro.simulator.device import WiViDevice
from repro.simulator.timeseries import ChannelSeries
from repro.telemetry.context import get_telemetry


#: How much the suppression may erode before recalibration is
#: demanded.  10 dB keeps the residual well clear of the ADC ceiling
#: headroom the power boost consumed.
EROSION_BUDGET_DB = 10.0

# Thresholds and hysteresis of the recovery pipeline.

#: Captures with at most this fraction of damaged (NaN/zero) samples
#: are sanitized in place and the device merely degrades; beyond it the
#: capture is discarded.
MAX_REPAIRABLE_FRACTION = 0.1
#: Clipped captures beyond this fraction are discarded (clipping cannot
#: be interpolated away).
MAX_SATURATION_FRACTION = 0.05
#: Consecutive clean captures required to climb DEGRADED → HEALTHY
#: (hysteresis: one good capture does not prove recovery).
RECOVER_AFTER_GOOD = 2
#: Consecutive bad captures that push DEGRADED → RECALIBRATING.
RECALIBRATE_AFTER_BAD = 2
#: Discarded-capture retries per :meth:`ResilientDevice.capture` call
#: before declaring the device FAILED.
MAX_CAPTURE_ATTEMPTS = 3
#: Bounded retries inside each recalibration (see
#: :func:`run_nulling_with_retry`).
CALIBRATION_ATTEMPTS = 3
#: Failed recalibrations tolerated before FAILED.
MAX_RECALIBRATION_FAILURES = 2


def dc_level(series: ChannelSeries) -> float:
    """The trace's static-residual magnitude: |mean of the samples|.

    Moving returns and noise average toward zero over a trace; the DC
    survives.
    """
    return float(np.abs(np.mean(series.samples)))


@dataclass
class NullingMonitor:
    """Tracks residual growth against the calibration-time baseline.

    Recalibration is demanded once the suppression erodes by more than
    :data:`EROSION_BUDGET_DB`.
    """

    baseline_level: float | None = None
    history_db: list[float] = field(default_factory=list)

    def set_baseline(self, series: ChannelSeries) -> None:
        """Record the post-calibration DC level."""
        level = dc_level(series)
        self.baseline_level = max(level, 1e-30)
        self.history_db.clear()

    def erosion_db(self, series: ChannelSeries) -> float:
        """How far the residual has grown over the baseline (dB)."""
        if self.baseline_level is None:
            raise RuntimeError("set_baseline() first")
        level = max(dc_level(series), 1e-30)
        value = 20.0 * np.log10(level / self.baseline_level)
        self.history_db.append(float(value))
        return float(value)

    def needs_recalibration(self, series: ChannelSeries) -> bool:
        """Whether this trace's residual exceeds the budget."""
        return self.erosion_db(series) > EROSION_BUDGET_DB


# ----------------------------------------------------------------------
# Screening and repair
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class BlockHealth:
    """Screening verdict for one block of samples.

    Attributes:
        nan_fraction: fraction of non-finite samples (DMA/driver
            corruption — NaN bursts).
        zero_fraction: fraction of exactly-zero finite samples (dead
            air: the host dropped buffers and the stream delivered
            nothing).
        saturation_fraction: fraction of samples on a rail plateau
            (ADC clipping — the flash re-entering).
    """

    nan_fraction: float
    zero_fraction: float
    saturation_fraction: float

    @property
    def damaged_fraction(self) -> float:
        """Fraction of samples carrying no usable signal."""
        return self.nan_fraction + self.zero_fraction

    @property
    def beyond_repair(self) -> bool:
        """Too damaged to interpolate, or clipped past the limit.

        Clipping cannot be interpolated away: a capture this bad is
        discarded, and a streamed block this bad counts as bad.
        """
        return (
            self.damaged_fraction > MAX_REPAIRABLE_FRACTION
            or self.saturation_fraction > MAX_SATURATION_FRACTION
        )


def screen_block(samples: np.ndarray) -> BlockHealth:
    """Screen a block of samples for NaN bursts, dead air, and saturation.

    Saturation is detected as a *plateau*: the fraction of samples
    whose I or Q rail sits within 0.1 % of the block's maximum rail
    excursion, not counting the peak sample itself, which trivially
    sits on its own rail.  Counting it would put a 1/n floor under
    every block and trip the saturation limit on a clean 16-sample
    tail block; a clipped episode parks every affected sample on the
    rail.  A capture is screened as one block.
    """
    samples = np.asarray(samples)
    if len(samples) == 0:
        raise ValueError("cannot screen an empty block")
    # One pass per measure and no copy of the finite samples: a
    # non-finite sample never equals 0, and its rail reads 0, which
    # counts only if every finite rail is 0 too, and then nothing
    # counts as clipped.
    finite = np.isfinite(samples)
    num_finite = int(np.count_nonzero(finite))
    nan_fraction = (len(samples) - num_finite) / len(samples)
    zero_fraction = int(np.count_nonzero(samples == 0.0)) / max(num_finite, 1)
    rails = np.maximum(
        np.abs(samples.real), np.abs(samples.imag), where=finite, out=np.zeros(len(samples))
    )
    peak = float(rails.max())
    saturation_fraction = 0.0
    if peak > 0.0:
        at_rail = int(np.count_nonzero(rails >= 0.999 * peak))
        saturation_fraction = (at_rail - 1) / len(samples)
    return BlockHealth(
        nan_fraction=nan_fraction,
        zero_fraction=zero_fraction,
        saturation_fraction=saturation_fraction,
    )


def sanitize_series(series: ChannelSeries) -> tuple[ChannelSeries, int]:
    """Repair a lightly-damaged capture by linear interpolation.

    Non-finite and exactly-zero samples are reconstructed rail-by-rail
    from their finite neighbours.  Returns the repaired series and the
    number of samples touched.

    Raises:
        CaptureQualityError: fewer than two usable samples remain.
    """
    samples = np.array(series.samples, dtype=complex)
    bad = ~np.isfinite(samples)
    bad |= np.where(bad, False, samples == 0.0)
    repaired = int(np.count_nonzero(bad))
    if repaired == 0:
        return series, 0
    good = np.flatnonzero(~bad)
    if len(good) < 2:
        raise CaptureQualityError(
            "capture beyond repair: fewer than two usable samples"
        )
    bad_indices = np.flatnonzero(bad)
    samples[bad_indices] = np.interp(
        bad_indices, good, samples[good].real
    ) + 1j * np.interp(bad_indices, good, samples[good].imag)
    return replace(series, samples=samples), repaired


# ----------------------------------------------------------------------
# Device health-state machine
# ----------------------------------------------------------------------


class DeviceHealth(enum.Enum):
    """Operational state of a deployed Wi-Vi unit."""

    HEALTHY = "healthy"
    DEGRADED = "degraded"
    RECALIBRATING = "recalibrating"
    FAILED = "failed"


@dataclass(frozen=True)
class HealthTransition:
    """One edge taken by the health machine, for the audit trail."""

    capture_index: int
    source: DeviceHealth
    target: DeviceHealth
    reason: str


class HealthStateMachine:
    """HEALTHY → DEGRADED → RECALIBRATING → FAILED with hysteresis.

    Transitions (reasons are recorded in ``transitions``):

    * HEALTHY --bad capture--> DEGRADED
    * DEGRADED --:data:`RECALIBRATE_AFTER_BAD` consecutive bad-->
      RECALIBRATING
    * DEGRADED --:data:`RECOVER_AFTER_GOOD` consecutive good--> HEALTHY
    * any live state --nulling erosion over budget--> RECALIBRATING
    * RECALIBRATING --calibration success--> DEGRADED (a recalibrated
      device must still *prove* itself with clean captures)
    * RECALIBRATING --:data:`MAX_RECALIBRATION_FAILURES` failures-->
      FAILED
    """

    def __init__(self):
        self.state = DeviceHealth.HEALTHY
        self.transitions: list[HealthTransition] = []
        self.capture_index = 0
        self.recovery_count = 0
        self.recalibration_count = 0
        self._good_streak = 0
        self._bad_streak = 0
        self._recalibration_failures = 0

    def _move(self, target: DeviceHealth, reason: str) -> None:
        if target is self.state:
            return
        self.transitions.append(
            HealthTransition(
                capture_index=self.capture_index,
                source=self.state,
                target=target,
                reason=reason,
            )
        )
        telemetry = get_telemetry()
        if telemetry.enabled:
            telemetry.metrics.counter("health.transitions").inc()
            telemetry.events.emit(
                "health.transition",
                capture_index=self.capture_index,
                source=self.state.value,
                target=target.value,
                reason=reason,
            )
        self.state = target

    def state_sequence(self) -> list[DeviceHealth]:
        """The distinct states visited, in order (starts HEALTHY)."""
        return [DeviceHealth.HEALTHY] + [t.target for t in self.transitions]

    def record_good(self) -> None:
        """A clean capture landed."""
        self._assert_live()
        self._good_streak += 1
        self._bad_streak = 0
        if (
            self.state is DeviceHealth.DEGRADED
            and self._good_streak >= RECOVER_AFTER_GOOD
        ):
            self.recovery_count += 1
            self._move(
                DeviceHealth.HEALTHY,
                f"{self._good_streak} consecutive clean captures",
            )

    def record_bad(self, reason: str) -> None:
        """A damaged capture landed (repaired or discarded)."""
        self._assert_live()
        self._bad_streak += 1
        self._good_streak = 0
        if self.state is DeviceHealth.HEALTHY:
            self._move(DeviceHealth.DEGRADED, reason)
        elif (
            self.state is DeviceHealth.DEGRADED
            and self._bad_streak >= RECALIBRATE_AFTER_BAD
        ):
            self._move(
                DeviceHealth.RECALIBRATING,
                f"{self._bad_streak} consecutive bad captures: {reason}",
            )

    def demand_recalibration(self, reason: str) -> None:
        """Erosion (or an operator) demands Algorithm 1 re-run now."""
        self._assert_live()
        self._good_streak = 0
        self._bad_streak = 0
        self._move(DeviceHealth.RECALIBRATING, reason)

    def recalibration_succeeded(self) -> None:
        self._assert_live()
        self._recalibration_failures = 0
        self.recalibration_count += 1
        self._good_streak = 0
        self._bad_streak = 0
        self._move(DeviceHealth.DEGRADED, "recalibration succeeded")

    def recalibration_failed(self, reason: str) -> None:
        self._assert_live()
        self._recalibration_failures += 1
        if self._recalibration_failures >= MAX_RECALIBRATION_FAILURES:
            self._move(
                DeviceHealth.FAILED,
                f"{self._recalibration_failures} recalibration failures: {reason}",
            )

    def fail(self, reason: str) -> None:
        self._move(DeviceHealth.FAILED, reason)

    def snapshot_state(self) -> dict:
        """JSON-able machine state for serving-session checkpoints.

        Captures everything the transition logic depends on — state,
        streaks, failure budget, counters — but not the transition
        *history*: a resumed machine records only the transitions it
        makes from here on, against the same thresholds.
        """
        return {
            "state": self.state.value,
            "capture_index": self.capture_index,
            "recovery_count": self.recovery_count,
            "recalibration_count": self.recalibration_count,
            "good_streak": self._good_streak,
            "bad_streak": self._bad_streak,
            "recalibration_failures": self._recalibration_failures,
        }

    def restore_state(self, snapshot: dict) -> None:
        """Load a :meth:`snapshot_state` dict into this machine.

        Raises:
            ValueError: unknown state name, missing field, or a counter
                that is not a non-negative integer (bools included).
        """
        try:
            state = DeviceHealth(snapshot["state"])
            counters = {
                name: snapshot[name]
                for name in (
                    "capture_index",
                    "recovery_count",
                    "recalibration_count",
                    "good_streak",
                    "bad_streak",
                    "recalibration_failures",
                )
            }
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed health snapshot: {exc}") from None
        for name, value in counters.items():
            if isinstance(value, bool) or not isinstance(value, int) or value < 0:
                raise ValueError(
                    f"health snapshot {name} must be a non-negative "
                    f"integer, not {value!r}"
                )
        self.state = state
        self.capture_index = counters["capture_index"]
        self.recovery_count = counters["recovery_count"]
        self.recalibration_count = counters["recalibration_count"]
        self._good_streak = counters["good_streak"]
        self._bad_streak = counters["bad_streak"]
        self._recalibration_failures = counters["recalibration_failures"]

    def _assert_live(self) -> None:
        if self.state is DeviceHealth.FAILED:
            raise DeviceFailedError("device health machine is FAILED")


# ----------------------------------------------------------------------
# The resilient device
# ----------------------------------------------------------------------


class ResilientDevice:
    """A `WiViDevice` hardened for unattended operation.

    Every capture flows through the full degradation pipeline: optional
    fault injection at the hardware boundary, NaN/saturation/dead-air
    screening with bounded repair, nulling-erosion monitoring, retried
    recalibration with backoff, and the health-state machine.

    Usage::

        injector = FaultInjector(FaultSchedule.generate(30.0, seed))
        device = ResilientDevice(WiViDevice(scene, rng), injector=injector)
        spectrogram = device.image(10.0)   # never raises on injected faults
        device.machine.state_sequence()    # the health audit trail
    """

    def __init__(
        self,
        device: WiViDevice,
        injector: FaultInjector | None = None,
    ):
        self.device = device
        self.injector = injector
        self.monitor = NullingMonitor()
        self.machine = HealthStateMachine()
        #: Machine state observed after each returned capture.
        self.health_trace: list[DeviceHealth] = []
        #: Samples repaired by sanitization, lifetime total.
        self.repaired_sample_count = 0

    # -- internals ------------------------------------------------------

    def _raw_capture(self, duration_s: float) -> ChannelSeries:
        start_s = self.device.clock_s
        series = self.device.capture(duration_s)
        if self.injector is not None:
            series = self.injector.corrupt_series(series, start_s)
        return series

    def _recalibrate(self, reason: str, initial: bool = False) -> None:
        """Run Algorithm 1 under the retry policy and re-baseline."""
        if not initial and self.machine.state is not DeviceHealth.RECALIBRATING:
            self.machine.demand_recalibration(reason)
        try:
            self.device.calibrate_with_retry(max_attempts=CALIBRATION_ATTEMPTS)
        except CalibrationError as exc:
            if initial:
                self.machine.fail(f"initial calibration failed: {exc}")
                raise
            self.machine.recalibration_failed(str(exc))
            if self.machine.state is DeviceHealth.FAILED:
                raise DeviceFailedError(
                    f"device failed during recalibration: {exc}"
                ) from exc
            return
        if self.injector is not None:
            # The fresh null absorbs any static-channel steps so far.
            self.injector.notify_recalibrated(self.device.clock_s)
        baseline = self._raw_capture(1.0)
        baseline, repaired = sanitize_series(baseline)
        self.repaired_sample_count += repaired
        self.monitor.set_baseline(baseline)
        if not initial:
            self.machine.recalibration_succeeded()

    # -- public surface -------------------------------------------------

    def capture(self, duration_s: float) -> ChannelSeries:
        """Capture a usable trace, degrading and recovering as needed.

        Raises:
            DeviceFailedError: the health machine reached FAILED.
            CaptureQualityError: every attempt produced an unusable
                capture (the machine is failed as a side effect).
        """
        if self.machine.state is DeviceHealth.FAILED:
            raise DeviceFailedError("device is FAILED; no captures possible")
        if not self.device.is_calibrated:
            self._recalibrate("initial calibration", initial=True)
        for _ in range(MAX_CAPTURE_ATTEMPTS):
            self.machine.capture_index += 1
            series = self._raw_capture(duration_s)
            health = screen_block(series.samples)
            if health.beyond_repair:
                self.machine.record_bad(
                    f"capture discarded (nan={health.nan_fraction:.3f}, "
                    f"zero={health.zero_fraction:.3f}, "
                    f"sat={health.saturation_fraction:.3f})"
                )
                if self.machine.state is DeviceHealth.RECALIBRATING:
                    self._recalibrate("bad-capture escalation")
                continue
            repaired = 0
            if health.damaged_fraction > 0:
                series, repaired = sanitize_series(series)
                self.repaired_sample_count += repaired
            if self.monitor.baseline_level is not None and (
                self.monitor.needs_recalibration(series)
            ):
                erosion = self.monitor.history_db[-1]
                self._recalibrate(f"nulling eroded {erosion:.1f} dB over budget")
                continue
            if repaired:
                self.machine.record_bad(f"sanitized {repaired} samples")
                if self.machine.state is DeviceHealth.RECALIBRATING:
                    self._recalibrate("repeated damaged captures")
            else:
                self.machine.record_good()
            self.health_trace.append(self.machine.state)
            return series
        self.machine.fail(
            f"{MAX_CAPTURE_ATTEMPTS} unusable captures in a row"
        )
        raise CaptureQualityError(
            f"no usable capture in {MAX_CAPTURE_ATTEMPTS} attempts"
        )

    def image(self, duration_s: float) -> MotionSpectrogram:
        """Capture and image with the degeneracy-guarded pipeline."""
        series = self.capture(duration_s)
        return compute_spectrogram(series.samples, self.device.config.tracking)
