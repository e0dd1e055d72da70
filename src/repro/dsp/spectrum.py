"""Batched spectrum projections: MUSIC pseudospectra and Eq. 5.1 rows.

Two projections close the pipeline: the MUSIC pseudospectrum (Eq. 5.3)
over the per-window noise subspace, and the plain beamformed magnitude
(Eq. 5.1) used by the gesture decoder and by the degeneracy fallback.
Both are expressed over whole window stacks here, with each window's
result computed by its own inner gufunc slice so it does not depend on
batch size (the batch-stability contract of
:mod:`repro.dsp.covariance`).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.dsp.blas import pin_blas
from repro.dsp.steering import MAX_CACHE_ENTRIES

_TINY = np.finfo(float).tiny


@lru_cache(maxsize=MAX_CACHE_ENTRIES)
def _noise_masks(m: int) -> np.ndarray:
    """(m, m) zero/one table: row k selects eigenvector columns k and up."""
    masks = (np.arange(m) >= np.arange(m)[:, np.newaxis]).astype(float)
    masks.setflags(write=False)
    return masks


def music_pseudospectra_batch(
    steering: np.ndarray, eigenvectors: np.ndarray, source_counts: np.ndarray
) -> np.ndarray:
    """Eq. 5.3 for a stack of windows with per-window subspace sizes.

    Args:
        steering: (num_angles, m) steering table (typically the shared
            read-only array from :mod:`repro.dsp.steering`).
        eigenvectors: (n, m, m) stack, columns sorted by descending
            eigenvalue (:func:`repro.dsp.eig.eigh_descending_batch`).
        source_counts: (n,) signal-subspace sizes, each in (0, m).

    Per window: ``1 / sqrt(sum_j ||a(theta)^H u_j||^2)`` over the noise
    eigenvectors ``j >= source_counts[n]``.  The varying split is
    handled with a zero/one mask over eigenvector columns — adding
    exact zeros is lossless, so the masked contraction matches slicing
    the noise subspace per window.

    Returns (n, num_angles) float magnitudes.
    """
    steering = np.asarray(steering)
    eigenvectors = np.asarray(eigenvectors)
    source_counts = np.asarray(source_counts, dtype=int)
    if eigenvectors.ndim != 3:
        raise ValueError("eigenvectors must be a (n, m, m) stack")
    m = eigenvectors.shape[-1]
    if steering.ndim != 2 or steering.shape[1] != m:
        raise ValueError("steering must be (num_angles, m)")
    if np.any((source_counts < 1) | (source_counts >= m)):
        raise ValueError("source count must be in (0, subarray size)")
    projections = np.matmul(steering, eigenvectors.conj())
    magnitudes = np.abs(projections) ** 2
    denominator = np.einsum("naj,nj->na", magnitudes, _noise_masks(m)[source_counts])
    denominator = np.maximum(denominator, _TINY)
    return np.sqrt(1.0 / denominator)


def beamform_batch(windows: np.ndarray, steering: np.ndarray) -> np.ndarray:
    """|a(theta)^H h| (Eq. 5.1) for a stack of windows.

    Args:
        windows: (n, w) stack of emulated-array windows.
        steering: (num_angles, w) steering table.

    Each window is its own (num_angles, w) x (w, 1) product inside the
    stacked matmul, so per-window results are independent of batch
    size.  Every mapped OpenBLAS is set to one thread first
    (:mod:`repro.dsp.blas`).  Returns (n, num_angles) float magnitudes.
    """
    pin_blas()
    windows = np.ascontiguousarray(windows, dtype=complex)
    if windows.ndim != 2:
        raise ValueError("windows must be two-dimensional (a stack of windows)")
    steering = np.asarray(steering)
    if steering.ndim != 2 or steering.shape[1] != windows.shape[1]:
        raise ValueError("steering must be (num_angles, window size)")
    products = np.matmul(steering.conj(), windows[:, :, np.newaxis])
    return np.abs(products[:, :, 0])
