"""repro.dsp — batched kernels under the MUSIC/beamforming hot path.

The tracking pipeline's cost is one smoothed-MUSIC estimate per
emulated-array window; this package turns that per-window loop into
whole-stack kernels: strided window extraction
(:mod:`~repro.dsp.windows`), batched forward-backward smoothed
covariance (:mod:`~repro.dsp.covariance`), stacked eigendecomposition
with vectorized conditioning screens (:mod:`~repro.dsp.eig`),
process-wide memoized steering tables (:mod:`~repro.dsp.steering`),
and batched pseudospectrum/beamforming projections
(:mod:`~repro.dsp.spectrum`).

The kernel stack is dispatched through a pluggable backend protocol
(:mod:`~repro.dsp.backend`): the reference
:class:`~repro.dsp.backend.NumpyFloat64Backend` delegates to the
modules above verbatim and stays the default; ``numpy-float32``
(:mod:`~repro.dsp.backend_f32`) is a budgeted fast path.  Selection
is per-process (``REPRO_DSP_BACKEND`` / ``repro --dsp-backend``).
:mod:`~repro.dsp.pool` runs a window stack of more than 32 windows as
32-window units that every core takes from one cursor, and every DSP
pass, of any size, first sets the process's BLAS to one thread
(:mod:`~repro.dsp.blas`).

Three contracts hold across the package, per backend:

* **Batch stability** — each window's result is computed by its own
  inner gufunc slice over a normalized (contiguous) layout, so a batch
  of one is bit-identical to the same window inside a larger batch.
  This is what keeps the streaming tracker (one window at a time)
  bit-for-bit equal to the offline pipeline (all windows at once).
* **Oracle parity** — :mod:`repro.dsp.reference` freezes the original
  per-window implementations; the property suite holds the float64
  kernels to <= 1e-12 against them, including NaN-burst, saturated,
  and rank-degenerate windows whose guard decisions must match
  exactly.
* **Backend conformance** — every registered backend matches the
  reference guard decisions exactly and keeps accepted columns inside
  its declared error budget (bit-exactness for float64); see
  ``tests/dsp/test_backend_conformance.py``.
"""

from repro.dsp import backend_f32  # noqa: F401 - registers the float32 backend
from repro.dsp.backend import (
    DEFAULT_BACKEND,
    BackendInfo,
    DspBackend,
    MusicBatchResult,
    active_backend,
    active_backend_name,
    backend_infos,
    backend_names,
    get_backend,
    register_backend,
    set_active_backend,
    use_backend,
)
from repro.dsp.covariance import smoothed_covariance_batch
from repro.dsp.eig import (
    REASON_OK,
    classify_covariance_batch,
    eigh_descending_batch,
    estimate_source_counts_batch,
    sorted_source_counts_batch,
)
from repro.dsp.spectrum import beamform_batch, music_pseudospectra_batch
from repro.dsp.steering import (
    SteeringCacheInfo,
    cache_info,
    clear_cache,
    compute_steering_matrix,
    steering_matrix,
)
from repro.dsp.windows import sliding_windows, subarray_stack, window_starts

__all__ = [
    "DEFAULT_BACKEND",
    "REASON_OK",
    "BackendInfo",
    "DspBackend",
    "MusicBatchResult",
    "SteeringCacheInfo",
    "active_backend",
    "active_backend_name",
    "backend_infos",
    "backend_names",
    "beamform_batch",
    "cache_info",
    "classify_covariance_batch",
    "clear_cache",
    "compute_steering_matrix",
    "eigh_descending_batch",
    "estimate_source_counts_batch",
    "get_backend",
    "music_pseudospectra_batch",
    "register_backend",
    "set_active_backend",
    "sliding_windows",
    "smoothed_covariance_batch",
    "sorted_source_counts_batch",
    "steering_matrix",
    "subarray_stack",
    "use_backend",
    "window_starts",
]
