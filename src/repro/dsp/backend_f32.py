"""The float32 fast path: real-symmetric MUSIC with an error budget.

Spectrogram columns are *displayed*, not differentiated, so the
serving hot path can trade precision for throughput — provided the
trade is explicit.  This backend runs the fused smoothed-MUSIC pass in
float32 and escalates every window it cannot certify back to the
float64 reference kernels, which buys two properties at once:

* **Exact guard parity.**  Degeneracy / fallback / source-count
  decisions near any threshold are re-taken by the reference kernels
  (the escalation triggers are deliberately wider than float32's
  error bars), so the decisions the health machine and the estimator
  labels depend on match :class:`~repro.dsp.backend.NumpyFloat64Backend`
  exactly — on clean data *and* on NaN-burst / saturated /
  rank-degenerate windows.
* **A bounded column budget.**  Accepted fast-path rows keep the
  Eq. 5.3 noise-projection denominator within
  ``den_budget_per_m * w'`` per angle of the reference (measured two
  orders of magnitude inside that on the bench trace) and the
  dominant angle within one grid bin; the conformance suite
  (``tests/dsp/test_backend_conformance.py``) enforces both.

The speed comes from the centrohermitian structure of the
forward-backward averaged covariance: ``J R* J = R``, so the unitary

    Q = (1/sqrt(2)) [[I, iI], [J, -iJ]]        (w' even)

maps R to the **real symmetric** ``C = Q^H R Q`` with identical
eigenvalues, and the whole eigenproblem runs through LAPACK's real
``ssyevd`` instead of the complex ``cheevd``/``zheevd``.  MUSIC
projections never need the complex eigenvectors back: with
``B = conj(S) Q`` (S the steering table), ``|S^H u|^2 = |B v|^2`` for
``u = Q v``, evaluated as two real matmuls.  Windows with odd ``w'``
or non-forward-backward covariances take the reference path.
"""

from __future__ import annotations

import threading
from typing import Any

import numpy as np

from repro.dsp.backend import (
    DEFAULT_BACKEND,
    DspBackend,
    MusicBatchResult,
    get_backend,
    register_backend,
)
from repro.dsp.blas import pin_blas
from repro.dsp.eig import REASON_OK
from repro.dsp.steering import steering_matrix
from repro.dsp.windows import subarray_stack

_EPS32 = float(np.finfo(np.float32).eps)


def _real_transform(m: int) -> np.ndarray:
    """The unitary Q with ``Q^H R Q`` real for centrohermitian R."""
    p = m // 2
    identity = np.eye(p)
    q = np.zeros((m, m), dtype=complex)
    q[:p, :p] = identity
    q[:p, p:] = 1j * identity
    q[p:, :p] = identity[::-1]
    q[p:, p:] = -1j * identity[::-1]
    q /= np.sqrt(2.0)
    return q


@register_backend
class NumpyFloat32Backend(DspBackend):
    """Budgeted float32 MUSIC with escalation to the float64 kernels."""

    name = "numpy-float32"
    description = (
        "float32 fast path (real-symmetric eigh via the centrohermitian "
        "transform); budgeted, escalates uncertifiable windows to float64"
    )
    steering_dtype = np.complex64
    bit_exact = False
    #: Accepted rows keep |den - den_ref| <= den_budget_per_m * w' per
    #: angle (den in [0, w']).  Bench-measured worst case is ~1.3e-5*w';
    #: the budget leaves two orders of magnitude of headroom and the
    #: conformance suite enforces it on adversarial windows.
    den_budget_per_m = 1e-3

    #: Escalation triggers (each provably or empirically wider than the
    #: float32 error bars, so non-escalated rows are certainly clean):
    #: condition numbers beyond this (or half the configured limit,
    #: whichever is smaller) re-run in float64 — any window the
    #: reference guard would reject at the default 1e12 limit shows a
    #: float32 condition estimate far above 1e5.
    COND_ESCALATE = 1e5
    #: Traces at float32's resolution floor (the reference "dead"
    #: threshold is float64-tiny, unrepresentable in float32).
    TRACE_ESCALATE = 1e-35
    #: Source-count border: eigenvalues within max(rtol * threshold,
    #: ulps * eps32 * lam1) of the dominance threshold could flip the
    #: count, so the row re-runs in float64.
    COUNT_BORDER_RTOL = 3e-3
    COUNT_BORDER_ULPS = 256.0
    #: Signal/noise split gaps below this fraction of lam1 make the
    #: noise-subspace rotation error-prone; escalate.
    GAP_ESCALATE_REL = 1e-4

    def __init__(self) -> None:
        self._steering_memo: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}
        # Units of one stack run on several threads (repro.dsp.pool).
        self._steering_lock = threading.Lock()

    # -- helpers --------------------------------------------------------

    def _transformed_steering(
        self, config: Any
    ) -> tuple[np.ndarray, np.ndarray]:
        """``B = conj(S) Q`` split into contiguous float32 Re/Im parts."""
        thetas = np.ascontiguousarray(
            np.atleast_1d(config.theta_grid_deg), dtype=float
        )
        key = (
            int(config.subarray_size),
            float(config.spacing_m),
            float(config.wavelength_m),
            thetas.tobytes(),
        )
        memo = self._steering_memo.get(key)
        if memo is not None:
            return memo
        steering = steering_matrix(
            thetas,
            config.subarray_size,
            config.spacing_m,
            config.wavelength_m,
        )
        transformed = steering.conj() @ _real_transform(config.subarray_size)
        memo = (
            np.ascontiguousarray(transformed.real, dtype=np.float32),
            np.ascontiguousarray(transformed.imag, dtype=np.float32),
        )
        with self._steering_lock:
            if len(self._steering_memo) >= 16:
                self._steering_memo.pop(next(iter(self._steering_memo)))
            self._steering_memo[key] = memo
        return memo

    # -- kernel overrides ----------------------------------------------

    def beamform_batch(self, windows: np.ndarray, steering: np.ndarray) -> np.ndarray:
        # The fallback of a pass whose windows were all non-finite runs
        # no MUSIC, so this projection pins BLAS itself, as
        # spectrum.beamform_batch does.
        pin_blas()
        windows = np.asarray(windows).astype(np.complex64, copy=False)
        steering = np.asarray(steering).astype(np.complex64, copy=False)
        projected = np.matmul(steering.conj(), windows[:, :, np.newaxis])[:, :, 0]
        return np.abs(projected).astype(float)

    # -- the fused pass -------------------------------------------------

    def music_batch(self, windows: np.ndarray, config: Any) -> MusicBatchResult:
        m = int(config.subarray_size)
        if m % 2:
            # The real transform needs an even subarray; rare configs
            # with odd w' take the exact path wholesale.
            return get_backend(DEFAULT_BACKEND).music_batch(windows, config)
        windows = np.asarray(windows, dtype=complex)
        num_windows = windows.shape[0]
        num_angles = len(config.theta_grid_deg)
        power = np.zeros((num_windows, num_angles))
        out_counts = np.zeros(num_windows, dtype=int)
        reasons = np.full(num_windows, REASON_OK, dtype=object)
        eigenvalues = np.zeros((num_windows, m))
        if num_windows == 0:
            return MusicBatchResult(power, out_counts, reasons, eigenvalues)

        stack32 = windows.astype(np.complex64)
        subarrays = subarray_stack(stack32, m)
        covariance = np.matmul(subarrays.transpose(0, 2, 1), subarrays.conj())
        covariance /= np.float32(subarrays.shape[1])
        covariance = np.complex64(0.5) * (
            covariance + covariance[:, ::-1, ::-1].conj()
        )

        # Centrohermitian -> real symmetric, assembled by quadrant from
        # A = R[:p,:p] and the column-reversed BJ = R[:p,p:] J.
        p = m // 2
        top_left = covariance[:, :p, :p]
        top_right_j = covariance[:, :p, p:][:, :, ::-1]
        real_cov = np.empty((num_windows, m, m), dtype=np.float32)
        real_cov[:, :p, :p] = top_left.real + top_right_j.real
        real_cov[:, :p, p:] = -top_left.imag + top_right_j.imag
        real_cov[:, p:, :p] = top_left.imag + top_right_j.imag
        real_cov[:, p:, p:] = top_left.real - top_right_j.real
        real_cov = np.float32(0.5) * (real_cov + real_cov.transpose(0, 2, 1))

        finite = np.isfinite(real_cov).all(axis=(1, 2))
        if not finite.all():
            # Placeholder so the stacked eigh cannot throw; these rows
            # escalate below and never use the placeholder results.
            real_cov[~finite] = np.eye(m, dtype=np.float32)
        values, vectors = np.linalg.eigh(real_cov)
        values = np.ascontiguousarray(values[:, ::-1])
        vectors = np.ascontiguousarray(vectors[:, :, ::-1])

        tiny32 = np.float32(np.finfo(np.float32).tiny)
        lam1 = values[:, 0]
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            condition = lam1 / np.maximum(values[:, -1], tiny32)
        trace = values.sum(axis=1)

        noise = np.maximum(np.median(values[:, m // 2 :], axis=1), tiny32)
        threshold = noise * np.float32(10.0 ** (6.0 / 10.0))
        cap = min(int(config.max_sources), m - 1)
        counts = np.clip((values > threshold[:, None]).sum(axis=1), 1, cap)
        border_tol = np.maximum(
            np.float32(self.COUNT_BORDER_RTOL) * threshold,
            np.float32(self.COUNT_BORDER_ULPS * _EPS32) * np.abs(lam1),
        )
        counts_wide = np.clip(
            (values > (threshold - border_tol)[:, None]).sum(axis=1), 1, cap
        )
        counts_narrow = np.clip(
            (values > (threshold + border_tol)[:, None]).sum(axis=1), 1, cap
        )
        rows = np.arange(num_windows)
        split_gap = values[rows, counts - 1] - values[rows, np.minimum(counts, m - 1)]

        cond_limit32 = min(self.COND_ESCALATE, 0.5 * float(config.condition_limit))
        escalate = (
            ~finite
            | ~np.isfinite(values).all(axis=1)
            | (trace <= np.float32(self.TRACE_ESCALATE))
            | (condition > np.float32(cond_limit32))
            | (counts_wide != counts_narrow)
            | (split_gap < np.float32(self.GAP_ESCALATE_REL) * np.abs(lam1))
        )

        fast = np.flatnonzero(~escalate)
        if fast.size:
            re_b, im_b = self._transformed_steering(config)
            # |B v|^2 with real v: two real matmuls replace the complex
            # projection; (num_angles, m) @ (n, m, m) -> (n, num_angles, m).
            proj_re = np.matmul(re_b, vectors[fast])
            proj_im = np.matmul(im_b, vectors[fast])
            squared = proj_re * proj_re + proj_im * proj_im
            noise_mask = (
                np.arange(m)[None, :] >= counts[fast][:, None]
            ).astype(np.float32)
            denominator = np.einsum("naj,nj->na", squared, noise_mask)
            denominator = np.maximum(
                denominator.astype(float), np.finfo(float).tiny
            )
            power[fast] = np.sqrt(1.0 / denominator)
            out_counts[fast] = counts[fast]
            eigenvalues[fast] = values[fast].astype(float)

        slow = np.flatnonzero(escalate)
        if slow.size:
            exact = get_backend(DEFAULT_BACKEND).music_batch(windows[slow], config)
            power[slow] = exact.power
            out_counts[slow] = exact.source_counts
            reasons[slow] = exact.reasons
            eigenvalues[slow] = exact.eigenvalues
        return MusicBatchResult(
            power=power,
            source_counts=out_counts,
            reasons=reasons,
            eigenvalues=eigenvalues,
        )
