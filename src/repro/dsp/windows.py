"""Sliding-window extraction without copies.

The tracking pipeline walks a channel series in overlapping
emulated-array windows (w = 100 samples, hop 25, §7.1), and spatial
smoothing walks each window in overlapping subarrays of size w' < w
(§5.2).  Materializing those with fancy indexing costs one copy per
window; a strided view exposes the whole stack at once so the batched
covariance and beamforming kernels can consume every window in one
shot.

Window views returned here are read-only (they alias the caller's
data).  The subarray stack is the one copy the covariance kernel
needs: a contiguous gather through a cached index table.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.dsp.steering import MAX_CACHE_ENTRIES


def window_starts(num_samples: int, window_size: int, hop: int) -> np.ndarray:
    """Start index of every complete window, hop-spaced.

    Matches the offline pipeline's walk: the last window is the last
    one that fits entirely inside the series.
    """
    if window_size < 1:
        raise ValueError("window size must be positive")
    if hop < 1:
        raise ValueError("hop must be positive")
    if num_samples < window_size:
        raise ValueError("series shorter than one window")
    return np.arange(0, num_samples - window_size + 1, hop)


def sliding_windows(
    series: np.ndarray, window_size: int, hop: int
) -> tuple[np.ndarray, np.ndarray]:
    """All complete windows of a series as one strided view.

    Returns ``(starts, windows)`` where ``windows`` has shape
    (num_windows, window_size) and ``windows[k]`` aliases
    ``series[starts[k] : starts[k] + window_size]`` — no data is
    copied.  The view is read-only.
    """
    series = np.asarray(series)
    if series.ndim != 1:
        raise ValueError("series must be one-dimensional")
    starts = window_starts(len(series), window_size, hop)
    windows = sliding_window_view(series, window_size)[::hop]
    return starts, windows


@lru_cache(maxsize=MAX_CACHE_ENTRIES)
def _subarray_index(window_size: int, subarray_size: int) -> np.ndarray:
    """(num_subarrays, subarray_size) sample offsets of each subarray."""
    starts = np.arange(window_size - subarray_size + 1)[:, np.newaxis]
    index = starts + np.arange(subarray_size)
    index.setflags(write=False)
    return index


def subarray_stack(windows: np.ndarray, subarray_size: int) -> np.ndarray:
    """Overlapping smoothing subarrays of a stack of windows, as one copy.

    For ``windows`` of shape (num_windows, w) returns a C-contiguous
    (num_windows, num_subarrays, subarray_size) array with
    ``num_subarrays = w - subarray_size + 1`` — the §5.2 partition of
    each emulated array, for every window at once.  ``np.take`` along
    the sample axis, through an index table cached per (w, w′) and
    bounded like the steering cache, builds it in one gather whatever
    the layout of ``windows``.  (Fancy indexing ``windows[:, index]``
    gives the same values with the batch axis innermost, which slows
    the covariance matmul down at large batches.)
    """
    windows = np.asarray(windows)
    if windows.ndim != 2:
        raise ValueError("windows must be two-dimensional (a stack of windows)")
    w = windows.shape[1]
    if not 1 < subarray_size <= w:
        raise ValueError("subarray size must be in (1, window size]")
    return np.take(windows, _subarray_index(w, subarray_size), axis=1)
