"""Stacked eigendecomposition and vectorized covariance screening.

``np.linalg.eigh`` batches natively over a (num_windows, w', w') stack
— one gufunc call replaces num_windows Python-level decompositions.
The conditioning guard and the source-count estimate that the legacy
pipeline ran per window are mirrored here as row-wise vectorized
passes; their decisions must match the sequential versions in
:mod:`repro.core.music` *exactly*, which is why those public functions
now delegate to these kernels rather than keeping parallel arithmetic.
"""

from __future__ import annotations

import numpy as np

#: Reason value for windows that pass the conditioning screen.
REASON_OK = ""

#: Guard reasons by code; a row takes the highest code that applies,
#: which is the sequential guard's precedence.
_REASONS = np.array([REASON_OK, "ill-conditioned", "dead", "non-finite"], dtype=object)

_TINY = np.finfo(float).tiny


def eigh_descending_batch(
    covariance: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecompose a stack of Hermitian matrices, descending order.

    Returns ``(eigenvalues, eigenvectors)`` with shapes (n, m) and
    (n, m, m); ``eigenvalues[k]`` is sorted descending and
    ``eigenvectors[k][:, j]`` is the eigenvector of ``eigenvalues[k][j]``
    — the ordering MUSIC's signal/noise split expects.  LAPACK returns
    each row sorted, so the flipped rows are exactly sorted, which
    :func:`sorted_source_counts_batch` relies on.
    """
    covariance = np.asarray(covariance)
    if covariance.ndim != 3:
        raise ValueError("covariance must be a (n, m, m) stack")
    values, vectors = np.linalg.eigh(covariance)
    # eigh returns ascending order; flip to descending.
    return np.ascontiguousarray(values[:, ::-1]), vectors[:, :, ::-1]


def classify_covariance_batch(
    eigenvalues: np.ndarray, condition_limit: float
) -> np.ndarray:
    """Vectorized degeneracy screen over a stack of eigenvalue rows.

    Mirrors :func:`repro.core.music.check_covariance_conditioning`
    (which delegates here): per row, flag

    * ``"non-finite"`` — NaN/Inf eigenvalues;
    * ``"dead"`` — trace ~ 0, nothing to decompose;
    * ``"ill-conditioned"`` — eigenvalue spread beyond
      ``condition_limit`` (compared multiplicatively, since the ratio
      itself can overflow).

    ``eigenvalues`` must be (n, m) rows sorted descending.  Returns an
    object array of reason strings, :data:`REASON_OK` for healthy rows;
    precedence matches the sequential guard (non-finite, then dead,
    then ill-conditioned).
    """
    eigenvalues = np.asarray(eigenvalues, dtype=float)
    if eigenvalues.ndim != 2:
        raise ValueError("eigenvalues must be a (n, m) stack of rows")
    with np.errstate(invalid="ignore"):
        smallest = np.maximum(eigenvalues[:, -1], _TINY)
        code = (eigenvalues[:, 0] > condition_limit * smallest).astype(np.intp)
        code[eigenvalues.sum(axis=1) <= _TINY] = 2
    code[~np.isfinite(eigenvalues).all(axis=1)] = 3
    return _REASONS[code]


def estimate_source_counts_batch(
    eigenvalues: np.ndarray, max_sources: int = 4, dominance_db: float = 6.0
) -> np.ndarray:
    """Signal-subspace sizes for a stack of eigenvalue rows.

    Vectorized mirror of
    :func:`repro.core.music.estimate_source_count` (which delegates
    here): per row, the noise level is the median of the smaller half
    of the spectrum, and eigenvalues standing ``dominance_db`` above it
    are counted as sources, clamped to ``[1, min(max_sources, m - 1)]``.

    ``eigenvalues`` must be (n, m) rows sorted descending with m >= 2;
    the median is ``np.median``'s, so a row sorted only within a
    tolerance, or holding NaN, gets the same answer as ever.  Rows
    exactly as :func:`eigh_descending_batch` returns them can take
    :func:`sorted_source_counts_batch` instead.
    """
    eigenvalues = _eigenvalue_rows(eigenvalues, max_sources)
    median = np.median(eigenvalues[:, eigenvalues.shape[1] // 2 :], axis=1)
    return _counts_above(eigenvalues, median, max_sources, dominance_db)


def sorted_source_counts_batch(
    eigenvalues: np.ndarray, max_sources: int = 4, dominance_db: float = 6.0
) -> np.ndarray:
    """:func:`estimate_source_counts_batch` for rows straight from ``eigh``.

    Rows as :func:`eigh_descending_batch` returns them for finite
    covariances are finite and exactly sorted, so the median of each smaller half is its middle entry, or
    its two middle entries added and halved: the arithmetic
    ``np.median`` does on them, bit for bit, without its partition and
    reductions (about 2 µs a call instead of 20).  On a row that is
    not exactly sorted, or that holds NaN, the middle entries are not
    the median; such rows take :func:`estimate_source_counts_batch`.
    """
    eigenvalues = _eigenvalue_rows(eigenvalues, max_sources)
    half = eigenvalues[:, eigenvalues.shape[1] // 2 :]
    middle = half.shape[1] // 2
    if half.shape[1] % 2:
        median = half[:, middle]
    else:
        median = (half[:, middle - 1] + half[:, middle]) / 2.0
    return _counts_above(eigenvalues, median, max_sources, dominance_db)


def _eigenvalue_rows(eigenvalues: np.ndarray, max_sources: int) -> np.ndarray:
    """``eigenvalues`` as validated (n, m) float rows."""
    eigenvalues = np.asarray(eigenvalues, dtype=float)
    if eigenvalues.ndim != 2:
        raise ValueError("eigenvalues must be a (n, m) stack of rows")
    m = eigenvalues.shape[1]
    if m < 2:
        raise ValueError("need at least two eigenvalues")
    if max_sources < 1:
        raise ValueError("max_sources must be positive")
    return eigenvalues


def _counts_above(
    eigenvalues: np.ndarray, median: np.ndarray, max_sources: int, dominance_db: float
) -> np.ndarray:
    """Per row, the eigenvalues ``dominance_db`` above the noise median, clamped."""
    m = eigenvalues.shape[1]
    threshold = np.maximum(median, _TINY) * 10.0 ** (dominance_db / 10.0)
    counts = (eigenvalues > threshold[:, np.newaxis]).sum(axis=1)
    return np.minimum(np.maximum(counts, 1), min(max_sources, m - 1))
