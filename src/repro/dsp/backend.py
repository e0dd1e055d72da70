"""Pluggable DSP backends behind one kernel-stack protocol.

The batched kernels (:mod:`repro.dsp.covariance` / ``eig`` /
``spectrum`` / ``steering``) were hard-wired to float64 NumPy; this
module re-layers them behind a :class:`DspBackend` protocol so the
same orchestration code (``core/tracking``, the serve scheduler, the
streaming tracker) can run on alternative implementations:

* :class:`NumpyFloat64Backend` — the reference backend, delegating to
  the existing kernels verbatim.  **Bit-identical to the pre-backend
  code paths** and the default: every golden test (streaming vs
  offline, capture replay, serve equivalence) runs on it unchanged.
* ``numpy-float32`` (:mod:`repro.dsp.backend_f32`) — a fast path that
  computes MUSIC through a real-symmetric float32 eigendecomposition
  with an explicit per-column error budget, escalating any window the
  budget cannot certify back to the float64 kernels so degeneracy /
  fallback guard decisions match the reference *exactly*.

Selection is **per process**: the ``REPRO_DSP_BACKEND`` environment
variable (read once, lazily) or ``repro --dsp-backend`` picks the
active backend; :func:`set_active_backend` switches it explicitly and
:func:`use_backend` scopes a switch (tests, benches).  Every consumer
asks :func:`active_backend` at call time, so one process never mixes
backends within a batch — which is what keeps the batch-stability
contract (batch-of-one == batched row, per backend) meaningful.

Telemetry: each selection emits a ``dsp.backend`` event carrying the
backend name and sets the ``dsp.backend`` gauge to the backend's
registration ordinal (gauges are numeric; the name rides the event
and the Prometheus ``repro_dsp_backend_info{backend="..."}`` sample
the observe gateway exports).
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Iterator

import numpy as np

from repro.dsp.covariance import smoothed_covariance_batch
from repro.dsp.eig import (
    REASON_OK,
    classify_covariance_batch,
    eigh_descending_batch,
    estimate_source_counts_batch,
)
from repro.dsp.spectrum import beamform_batch, music_pseudospectra_batch
from repro.dsp.steering import steering_matrix
from repro.errors import DspBackendError
from repro.telemetry.context import get_telemetry

#: Environment variable naming the per-process backend.
ENV_VAR = "REPRO_DSP_BACKEND"

#: The reference backend every golden test runs on.
DEFAULT_BACKEND = "numpy-float64"


@dataclass
class MusicBatchResult:
    """One backend pass over a stack of finite windows.

    Attributes:
        power: (num_windows, num_angles) float64 pseudospectra; rows
            whose ``reasons`` entry is not :data:`REASON_OK` are
            undefined (the caller patches them with the beamforming
            fallback).
        source_counts: (num_windows,) signal-subspace sizes; 0 for
            rejected rows.
        reasons: (num_windows,) object array of guard decisions —
            :data:`REASON_OK`, ``"dead"``, ``"ill-conditioned"``, or
            ``"non-finite"`` — matching the reference guard exactly
            for every conforming backend.
        eigenvalues: (num_windows, w') descending eigenvalue spectra,
            the telemetry evidence (``music.eigenvalues`` events).
    """

    power: np.ndarray
    source_counts: np.ndarray
    reasons: np.ndarray
    eigenvalues: np.ndarray


class DspBackend:
    """Protocol + reference implementation of the batched kernel stack.

    Subclasses override individual kernels or the fused
    :meth:`music_batch` pass; anything not overridden delegates to the
    float64 reference kernels, so a backend only has to implement the
    parts it accelerates.  Contracts every backend must keep (enforced
    by ``tests/dsp/test_backend_conformance.py``):

    * **Guard parity** — :meth:`music_batch` reasons equal the
      reference guard decisions exactly, on any input.
    * **Batch stability** — a batch of one is bit-identical to the
      same window inside a larger batch, per backend.
    * **Accuracy** — ``bit_exact`` backends match the reference to the
      bit; budgeted backends keep the noise-projection residual within
      ``den_budget_per_m * w'`` per angle and the dominant angle
      within one grid bin (spectrogram columns are displayed, not
      differentiated).
    """

    #: Registry key; also the ``REPRO_DSP_BACKEND`` value.
    name: str = "abstract"
    description: str = ""
    #: dtype of steering tables this backend projects against (keys
    #: the per-(backend, dtype) steering-cache entries).
    steering_dtype: Any = np.complex128
    #: Whether results must equal the reference bit for bit.
    bit_exact: bool = False
    #: Budgeted backends: |den - den_ref| <= den_budget_per_m * w'
    #: per angle on accepted rows (den is the Eq. 5.3 denominator,
    #: bounded by w'); None means bit-exactness is the budget.
    den_budget_per_m: float | None = None

    @classmethod
    def available(cls) -> bool:
        """Whether the backend can run here; both shipped backends can."""
        return True

    # -- kernel protocol (reference float64 delegates) -----------------

    def smoothed_covariance_batch(
        self, windows: np.ndarray, subarray_size: int, forward_backward: bool = True
    ) -> np.ndarray:
        return smoothed_covariance_batch(windows, subarray_size, forward_backward)

    def eigh_descending_batch(
        self, covariance: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        return eigh_descending_batch(covariance)

    def classify_covariance_batch(
        self, eigenvalues: np.ndarray, condition_limit: float
    ) -> np.ndarray:
        return classify_covariance_batch(eigenvalues, condition_limit)

    def estimate_source_counts_batch(
        self,
        eigenvalues: np.ndarray,
        max_sources: int = 4,
        dominance_db: float = 6.0,
    ) -> np.ndarray:
        return estimate_source_counts_batch(eigenvalues, max_sources, dominance_db)

    def music_pseudospectra_batch(
        self,
        steering: np.ndarray,
        eigenvectors: np.ndarray,
        source_counts: np.ndarray,
    ) -> np.ndarray:
        return music_pseudospectra_batch(steering, eigenvectors, source_counts)

    def beamform_batch(self, windows: np.ndarray, steering: np.ndarray) -> np.ndarray:
        return beamform_batch(windows, steering)

    def steering_for(self, config: Any, array_size: int | None = None) -> np.ndarray:
        """The memoized steering table in this backend's dtype."""
        return steering_matrix(
            config.theta_grid_deg,
            config.subarray_size if array_size is None else array_size,
            config.spacing_m,
            config.wavelength_m,
            dtype=self.steering_dtype,
        )

    # -- fused passes ---------------------------------------------------

    def music_batch(self, windows: np.ndarray, config: Any) -> MusicBatchResult:
        """Smoothed MUSIC over a stack of finite windows.

        ``config`` is any object with the :class:`TrackingConfig`
        attributes (``subarray_size``, ``condition_limit``,
        ``max_sources``, ``theta_grid_deg``, ``spacing_m``,
        ``wavelength_m``).  The reference implementation is the exact
        kernel sequence the pre-backend ``estimate_windows_batch``
        ran, so the default backend stays bit-identical to it.
        """
        windows = np.asarray(windows, dtype=complex)
        num_windows = windows.shape[0]
        covariance = self.smoothed_covariance_batch(windows, config.subarray_size)
        values, vectors = self.eigh_descending_batch(covariance)
        reasons = self.classify_covariance_batch(values, config.condition_limit)
        counts = np.zeros(num_windows, dtype=int)
        power = np.zeros((num_windows, len(config.theta_grid_deg)))
        passed = reasons == REASON_OK
        if np.any(passed):
            source_counts = self.estimate_source_counts_batch(
                values[passed], config.max_sources
            )
            steering = self.steering_for(config)
            power[passed] = self.music_pseudospectra_batch(
                steering, vectors[passed], source_counts
            )
            counts[passed] = source_counts
        return MusicBatchResult(
            power=power,
            source_counts=counts,
            reasons=reasons,
            eigenvalues=values,
        )

    def beamform_fallback_batch(
        self, windows: np.ndarray, config: Any
    ) -> np.ndarray:
        """Plain Eq. 5.1 rows for windows MUSIC rejected.

        Non-finite samples are zeroed (beamforming degrades gracefully
        with missing elements), the per-window mean is removed, and
        the full-window steering table comes from the shared cache in
        this backend's dtype.
        """
        windows = np.asarray(windows, dtype=complex)
        patched = np.where(np.isfinite(windows), windows, 0.0)
        patched = patched - patched.mean(axis=1, keepdims=True)
        steering = self.steering_for(config, array_size=windows.shape[1])
        return np.asarray(
            self.beamform_batch(patched, steering), dtype=float
        )


class NumpyFloat64Backend(DspBackend):
    """The reference backend: the existing float64 kernels, verbatim."""

    name = DEFAULT_BACKEND
    description = "reference float64 NumPy kernels (bit-exact, default)"
    steering_dtype = np.complex128
    bit_exact = True


# ----------------------------------------------------------------------
# Registry and per-process selection
# ----------------------------------------------------------------------

_REGISTRY: dict[str, type[DspBackend]] = {}
_INSTANCES: dict[str, DspBackend] = {}
_ACTIVE: DspBackend | None = None


def register_backend(cls: type[DspBackend]) -> type[DspBackend]:
    """Class decorator adding a backend to the process registry."""
    if not cls.name or cls.name == "abstract":
        raise ValueError("backend classes must set a concrete name")
    _REGISTRY[cls.name] = cls
    return cls


register_backend(NumpyFloat64Backend)


def backend_names() -> list[str]:
    """Registered names, registration order (the gauge ordinals)."""
    return list(_REGISTRY)


def get_backend(name: str) -> DspBackend:
    """The singleton instance for ``name``; raises when unknown."""
    cls = _REGISTRY.get(name)
    if cls is None:
        raise DspBackendError(
            f"unknown DSP backend {name!r}; registered: {', '.join(_REGISTRY)}"
        )
    instance = _INSTANCES.get(name)
    if instance is None:
        instance = _INSTANCES[name] = cls()
    return instance


def set_active_backend(name: str | None = None) -> DspBackend:
    """Select the process-wide backend (``None`` -> env var -> default)."""
    global _ACTIVE
    if name is None or name == "":
        name = os.environ.get(ENV_VAR) or DEFAULT_BACKEND
    backend = get_backend(name)
    _ACTIVE = backend
    telemetry = get_telemetry()
    if telemetry.enabled:
        telemetry.metrics.gauge("dsp.backend").set(
            float(backend_names().index(backend.name))
        )
        telemetry.events.emit(
            "dsp.backend",
            backend=backend.name,
            dtype=np.dtype(backend.steering_dtype).name,
            bit_exact=backend.bit_exact,
        )
    return backend


def active_backend() -> DspBackend:
    """The selected backend, resolving ``REPRO_DSP_BACKEND`` lazily."""
    if _ACTIVE is None:
        return set_active_backend(None)
    return _ACTIVE


def active_backend_name() -> str:
    """Shorthand for stamping snapshots, headers, and metrics."""
    return active_backend().name


@contextmanager
def use_backend(name: str) -> Iterator[DspBackend]:
    """Scope a backend switch (tests and benches); restores on exit."""
    global _ACTIVE
    previous = _ACTIVE
    backend = set_active_backend(name)
    try:
        yield backend
    finally:
        _ACTIVE = previous


@dataclass(frozen=True)
class BackendInfo:
    """One row of ``repro backends``."""

    name: str
    available: bool
    active: bool
    default: bool
    dtype: str
    bit_exact: bool


def backend_infos() -> list[BackendInfo]:
    """Availability snapshot of every registered backend."""
    active_name = active_backend().name
    infos = []
    for name, cls in _REGISTRY.items():
        infos.append(
            BackendInfo(
                name=name,
                available=cls.available(),
                active=name == active_name,
                default=name == DEFAULT_BACKEND,
                dtype=np.dtype(cls.steering_dtype).name,
                bit_exact=cls.bit_exact,
            )
        )
    return infos


def quick_conformance(name: str, num_windows: int = 32) -> str:
    """A fast oracle check for one backend (the CLI's status column).

    Runs a small deterministic batch — clean Gaussian windows plus a
    NaN-free saturated and a near-dead window — through the backend's
    fused :meth:`DspBackend.music_batch` and the reference backend,
    and reports ``"exact"`` / ``"pass(max_den_err=...)"`` / a
    ``"FAIL(...)"`` diagnosis.
    """
    from repro.core.tracking import TrackingConfig

    backend = get_backend(name)
    reference = get_backend(DEFAULT_BACKEND)
    config = TrackingConfig()
    rng = np.random.default_rng(20260807)
    shape = (num_windows, config.window_size)
    windows = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    windows[-2] = 1e6 * (1.0 + 1.0j)  # saturated/constant: guard territory
    windows[-1] *= 1e-18  # near-dead
    result = backend.music_batch(windows, config)
    expected = reference.music_batch(windows, config)
    if not np.array_equal(result.reasons, expected.reasons):
        return "FAIL(guard decisions diverge from reference)"
    if not np.array_equal(result.source_counts, expected.source_counts):
        return "FAIL(source counts diverge from reference)"
    ok = expected.reasons == REASON_OK
    if backend.bit_exact:
        if np.array_equal(result.power[ok], expected.power[ok]):
            return "exact"
        return "FAIL(power not bit-exact)"
    with np.errstate(divide="ignore"):
        den = 1.0 / np.square(result.power[ok])
        den_ref = 1.0 / np.square(expected.power[ok])
    max_err = float(np.max(np.abs(den - den_ref))) if np.any(ok) else 0.0
    budget = (backend.den_budget_per_m or 0.0) * config.subarray_size
    if max_err > budget:
        return f"FAIL(max_den_err={max_err:.3g} over budget {budget:.3g})"
    return f"pass(max_den_err={max_err:.3g})"
