"""Batched spatially-smoothed covariance (Eq. 5.2 + smoothing).

The legacy hot path accumulated one ``np.outer`` per subarray per
window — ~69 small Python-level outer products for every w = 100
window.  Here the (num_windows, num_subarrays, w') subarray view is
contracted in one stacked matmul: for each window n,

    R[n] = (1 / num_subarrays) * sum_s sub[n, s] (x) sub[n, s]^H

optionally forward-backward averaged with the exchange-reversed
conjugate, the standard decorrelation refinement.

Batch-stability contract: every operation applies per window through a
gufunc or elementwise loop over a contiguous stack, so a batch of one
produces exactly the bits the same window produces inside a larger
batch.  The streaming tracker's golden equivalence with the offline
pipeline rests on this property holding for every kernel in the
package.
"""

from __future__ import annotations

import numpy as np

from repro.dsp.windows import subarray_stack


def smoothed_covariance_batch(
    windows: np.ndarray, subarray_size: int, forward_backward: bool = True
) -> np.ndarray:
    """Smoothed covariance matrices for a whole stack of windows.

    Args:
        windows: (num_windows, w) stack of emulated-array windows.
        subarray_size: w' < w; each window is partitioned "into
            overlapping sub-arrays of size w' < w" whose correlation
            matrices are summed (§5.2).
        forward_backward: additionally average with the
            complex-conjugate reversed subarrays.

    Returns:
        (num_windows, w', w') complex Hermitian stack.
    """
    windows = np.asarray(windows, dtype=complex)
    if windows.ndim != 2:
        raise ValueError("windows must be two-dimensional (a stack of windows)")
    # The contiguous stack normalizes the memory layout so the
    # per-window matmul takes the same code path whether the stack came
    # from a strided series view (offline) or a single buffered window
    # (streaming) — part of the batch-stability contract.
    subarrays = subarray_stack(windows, subarray_size)
    covariance = np.matmul(subarrays.transpose(0, 2, 1), subarrays.conj())
    covariance /= subarrays.shape[1]
    if forward_backward:
        # J R* J with exchange matrix J is exactly a reversal of both
        # axes; the permutation is lossless so this matches the legacy
        # explicit-J product bit for bit.  Addition commutes and the
        # in-place halving is the same multiply, so the bits are those
        # of 0.5 * (R + J R* J).
        averaged = covariance[:, ::-1, ::-1].conj()
        averaged += covariance
        averaged *= 0.5
        return averaged
    return covariance
