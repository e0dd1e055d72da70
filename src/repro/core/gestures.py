"""Through-wall gesture communication: Chapter 6.

Encoding (§6.1): a '0' bit is a step forward then a step backward; a
'1' bit is a step backward then a step forward — Manchester-like, so
bits are composable and the subject ends each bit where they started.

Decoding (§6.2): the decoder takes A'[theta, n], collapses it to a
signed angle signal (forward motion puts energy at positive theta,
backward at negative), applies two matched filters — a triangle above
the zero line and an inverted triangle below it — sums their outputs,
detects peaks, and maps a (+1, -1) peak pair to bit '0' and (-1, +1)
to bit '1'.  A gesture is decoded "only when its SNR is greater than
3 dB" (Fig. 7-4); failures are *erasures*, never bit flips (§7.5).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.constants import GESTURE_SNR_THRESHOLD_DB
from repro.core.tracking import MotionSpectrogram


def angle_signed_signal(
    spectrogram: MotionSpectrogram, dc_guard_deg: float = 10.0
) -> np.ndarray:
    """Collapse A'[theta, n] to a signed per-window scalar (linear).

    Each window's *linear power* is weighted by sin(theta) — the same
    spatial projection the steering vector uses — and summed, with a
    guard band around theta = 0 masking the DC line.  Forward steps
    (energy above the zero line, Fig. 6-1) come out positive; backward
    steps negative.

    Feed this a plain-beamforming spectrogram
    (:func:`repro.core.tracking.compute_beamformed_spectrogram`): its
    magnitudes are physical, so the decoder's matched-filter SNR falls
    with distance as in Figs. 7-4/7-5.  A welcome side effect of the
    *signed* (odd-weighted) sum: the DC line's sidelobes are symmetric
    in theta (Dirichlet kernel of a constant), so they cancel instead
    of masking weak gestures.  sign(theta) rather than sin(theta)
    weighting keeps slow backward steps — whose energy sits at mid
    angles — as detectable as fast forward ones.
    """
    power = np.asarray(spectrogram.power, dtype=float) ** 2
    weights = np.sign(spectrogram.theta_grid_deg)
    weights[np.abs(spectrogram.theta_grid_deg) < dc_guard_deg] = 0.0
    signal = power @ weights
    return signal - np.median(signal)


def triangle_template(length: int) -> np.ndarray:
    """A unit-energy triangular pulse: the matched filter for one step.

    The raised-cosine step profile produces a triangular bump of
    apparent angle versus time (speed ramps up then down), so a
    triangle is the matched shape.
    """
    if length < 2:
        raise ValueError("template needs at least 2 samples")
    ramp = np.concatenate(
        [np.linspace(0.0, 1.0, length // 2, endpoint=False),
         np.linspace(1.0, 0.0, length - length // 2)]
    )
    return ramp / np.linalg.norm(ramp)


def matched_filter_bank(signal: np.ndarray, template: np.ndarray) -> np.ndarray:
    """Apply the two matched filters of §6.2 and sum their outputs.

    One filter matches the triangle above the zero line (forward
    steps); the other matches the inverted triangle below it (backward
    steps).  Each is applied to the corresponding half-wave-rectified
    signal so the two step polarities cannot cancel each other, and
    the outputs are summed: forward steps appear as positive peaks,
    backward steps as negative troughs (Fig. 6-3a).
    """
    signal = np.asarray(signal, dtype=float)
    template = np.asarray(template, dtype=float)
    positive_part = np.maximum(signal, 0.0)
    negative_part = np.maximum(-signal, 0.0)
    forward = np.convolve(positive_part, template[::-1], mode="same")
    backward = np.convolve(negative_part, template[::-1], mode="same")
    return forward - backward


def bit_template(step_length: int) -> np.ndarray:
    """The unit-energy matched filter for one whole bit.

    A '0' bit is a forward step then a backward step, so its template
    is a triangle followed by an inverted triangle — the Manchester
    falling edge of §6.1.  Correlating with it turns the angle signal
    into the BPSK-like waveform of Fig. 6-3: a positive peak decodes as
    '0', a negative peak as '1'.
    """
    step = triangle_template(step_length)
    combined = np.concatenate([step, -step])
    return combined / np.linalg.norm(combined)


def filtered_noise_sigma(
    signal_sigma: float, template: np.ndarray, row_overlap: int
) -> float:
    """Noise standard deviation at a matched filter's output.

    The angle signal's noise is correlated across rows because
    consecutive emulated-array windows share samples (overlap factor
    ``row_overlap``).  For a row-correlation ``rho(k) = max(0, 1 -
    |k| / row_overlap)`` (triangular, from the shared-sample fraction),
    the filter output variance is ``sigma^2 * sum_k rho(k) * R_tt(k)``
    with ``R_tt`` the template autocorrelation.
    """
    if signal_sigma < 0:
        raise ValueError("sigma must be non-negative")
    if row_overlap < 1:
        raise ValueError("row overlap must be at least 1")
    template = np.asarray(template, dtype=float)
    variance = 0.0
    for lag in range(-(row_overlap - 1), row_overlap):
        rho = 1.0 - abs(lag) / row_overlap
        if lag >= 0:
            autocorr = float(np.dot(template[lag:], template[: len(template) - lag]))
        else:
            autocorr = float(np.dot(template[:lag], template[-lag:]))
        variance += rho * autocorr
    return signal_sigma * math.sqrt(max(variance, 0.0))


def robust_noise_sigma(values: np.ndarray, quiet_quantile: float = 0.3) -> float:
    """Noise standard deviation from the quiet part of a signal.

    Gestures can occupy more than half of a short trace, so even the
    median absolute deviation gets dragged by signal.  Instead, the
    ``quiet_quantile`` of |x - median| anchors the estimate in the
    quietest samples: for zero-mean Gaussian noise,
    ``P(|x| < q) = quantile`` gives ``q = sigma * sqrt(2) *
    erfinv(quantile)``.
    """
    from scipy.special import erfinv

    if not 0.0 < quiet_quantile < 0.5:
        raise ValueError("quiet quantile must be in (0, 0.5)")
    values = np.asarray(values, dtype=float)
    deviations = np.abs(values - np.median(values))
    q = float(np.quantile(deviations, quiet_quantile))
    scale = math.sqrt(2.0) * float(erfinv(quiet_quantile))
    return q / scale + np.finfo(float).tiny


@dataclass(frozen=True)
class GestureEvent:
    """One detected step: a peak (+1, forward) or trough (-1, backward)."""

    time_s: float
    sign: int
    magnitude: float
    snr_db: float


@dataclass
class GestureDecodeResult:
    """Decoder output for one trace.

    Attributes:
        bits: decoded bits in order; ``None`` marks an erasure (a
            gesture whose SNR fell below the gate — the paper's only
            error mode, §7.5).
        events: the detected step events.
        matched_output: the summed matched-filter signal (Fig. 6-3a).
        signal: the signed angle signal the filters ran on.
        snr_db_per_bit: matched-filter SNR of each decoded or erased
            bit (the Fig. 7-5 quantity).
    """

    bits: list[int | None]
    events: list[GestureEvent]
    matched_output: np.ndarray
    signal: np.ndarray
    snr_db_per_bit: list[float]

    @property
    def decoded_bits(self) -> list[int]:
        return [bit for bit in self.bits if bit is not None]

    @property
    def erasure_count(self) -> int:
        return sum(1 for bit in self.bits if bit is None)


@dataclass
class GestureDecoder:
    """Matched-filter gesture decoder (§6.2).

    Attributes:
        step_duration_s: expected duration of a single step (half a
            gesture); the template length derives from it.
        snr_threshold_db: decode gate — 3 dB in the paper.
        dc_guard_deg: half-width of the DC mask in the angle
            projection.
        min_separation_factor: minimum peak spacing as a fraction of
            the bit duration.
        spurious_margin: multiplier on the expected noise maximum a
            candidate peak must clear.
        step_confirmation_sigma: a decoded bit must also show its two
            constituent steps — a peak and a trough in the correct
            order in the *step-level* matched output, each this many
            noise sigmas strong.  Noise that sneaks past the bit-level
            threshold almost never reproduces the full two-step
            pattern, which is what keeps Wi-Vi's errors erasures
            rather than flips (§7.5).
    """

    step_duration_s: float = 1.1
    snr_threshold_db: float = GESTURE_SNR_THRESHOLD_DB
    dc_guard_deg: float = 10.0
    min_separation_factor: float = 0.8
    spurious_margin: float = 1.2
    step_confirmation_sigma: float = 2.5

    def _find_events(
        self,
        matched: np.ndarray,
        times_s: np.ndarray,
        min_separation: int,
        sigma: float,
    ) -> list[GestureEvent]:
        # A candidate step must clear both the decode gate and the
        # expected maximum of the trace's noise (sigma * sqrt(2 ln N)):
        # below that, "peaks" are indistinguishable from noise, and
        # admitting them would turn erasures into bit flips — which the
        # paper never observes (§7.5).
        gate = sigma * 10.0 ** (self.snr_threshold_db / 10.0)
        noise_ceiling = (
            self.spurious_margin
            * sigma
            * math.sqrt(2.0 * math.log(max(len(matched), 2)))
        )
        threshold = max(gate, noise_ceiling)
        candidates: list[tuple[int, float]] = []
        for index in range(1, len(matched) - 1):
            value = matched[index]
            if abs(value) <= threshold:
                continue
            window = matched[max(0, index - 1) : index + 2]
            if value > 0 and value >= window.max():
                candidates.append((index, value))
            elif value < 0 and value <= window.min():
                candidates.append((index, value))
        # Enforce minimum separation, keeping the strongest candidates.
        candidates.sort(key=lambda pair: -abs(pair[1]))
        kept: list[tuple[int, float]] = []
        for index, value in candidates:
            if all(abs(index - other) >= min_separation for other, _ in kept):
                kept.append((index, value))
        kept.sort(key=lambda pair: pair[0])
        return [
            GestureEvent(
                time_s=float(times_s[index]),
                sign=1 if value > 0 else -1,
                magnitude=abs(value),
                # The angle signal is a power quantity (|A|^2), so SNR
                # is 10 log10 of the peak-to-noise ratio.
                snr_db=10.0 * math.log10(abs(value) / sigma),
            )
            for index, value in kept
        ]

    def decode(self, spectrogram: MotionSpectrogram) -> GestureDecodeResult:
        """Decode the gestures in a spectrogram.

        Detection runs on the *bit-level* matched filter (a full
        forward+backward Manchester template), whose output looks like
        BPSK: a positive peak is a '0', a negative peak a '1'
        (Fig. 6-3b).  The step-level matched output (Fig. 6-3a) is also
        computed and returned for inspection.
        """
        times = spectrogram.times_s
        if len(times) < 4:
            raise ValueError("spectrogram too short to decode gestures")
        hop_s = float(np.median(np.diff(times)))
        template_len = max(int(round(self.step_duration_s / hop_s)), 3)

        signal = angle_signed_signal(spectrogram, self.dc_guard_deg)
        step_matched = matched_filter_bank(signal, triangle_template(template_len))
        template = bit_template(template_len)
        bit_matched = np.convolve(signal, template[::-1], mode="same")

        # Noise sigma is estimated on the raw angle signal — whose
        # pauses really are quiet — then propagated analytically
        # through the filter; estimating it on the matched output
        # would absorb signal on short traces.
        sigma = filtered_noise_sigma(
            robust_noise_sigma(signal), template, spectrogram.window_overlap
        )

        # One bit spans two steps; peaks of distinct bits are at least
        # two step durations plus the inter-bit pause apart.
        min_separation = max(int(2 * template_len * self.min_separation_factor), 1)
        events = self._find_events(bit_matched, times, min_separation, sigma)

        step_sigma = filtered_noise_sigma(
            robust_noise_sigma(signal),
            triangle_template(template_len),
            spectrogram.window_overlap,
        )

        bits: list[int | None] = []
        snrs: list[float] = []
        for event in events:
            snrs.append(event.snr_db)
            confirmed = self._confirm_steps(
                step_matched, times, event, template_len, step_sigma
            )
            if event.snr_db >= self.snr_threshold_db and confirmed:
                bits.append(0 if event.sign > 0 else 1)
            else:
                bits.append(None)

        return GestureDecodeResult(
            bits=bits,
            events=events,
            matched_output=step_matched,
            signal=signal,
            snr_db_per_bit=snrs,
        )

    def _confirm_steps(
        self,
        step_matched: np.ndarray,
        times_s: np.ndarray,
        event: "GestureEvent",
        template_len: int,
        step_sigma: float,
    ) -> bool:
        """Check that a bit-level peak is backed by its two steps.

        A '0' bit (positive bit-level peak) must show a step-level peak
        in its first half and a trough in its second half, both
        ``step_confirmation_sigma`` strong; a '1' bit the reverse.
        """
        center = int(np.argmin(np.abs(times_s - event.time_s)))
        left = step_matched[max(center - template_len, 0) : center + 1]
        right = step_matched[center : center + template_len + 1]
        if len(left) == 0 or len(right) == 0:
            return False
        need = self.step_confirmation_sigma * step_sigma
        if event.sign > 0:
            return float(left.max()) >= need and float(right.min()) <= -need
        return float(left.min()) <= -need and float(right.max()) >= need

    def measure_snr_db(self, spectrogram: MotionSpectrogram) -> float:
        """Best matched-filter SNR in the trace, decoded or not.

        Used by the material sweep (Fig. 7-6b), which reports SNR even
        for trials whose gesture was not decodable.
        """
        signal = angle_signed_signal(spectrogram, self.dc_guard_deg)
        times = spectrogram.times_s
        hop_s = float(np.median(np.diff(times)))
        template_len = max(int(round(self.step_duration_s / hop_s)), 3)
        template = bit_template(template_len)
        matched = np.convolve(signal, template[::-1], mode="same")
        sigma = filtered_noise_sigma(
            robust_noise_sigma(signal), template, spectrogram.window_overlap
        )
        peak = float(np.max(np.abs(matched)))
        if peak <= 0:
            return float("-inf")
        return 10.0 * math.log10(peak / sigma)
