"""Property-based equivalence: batched kernels vs the frozen oracle.

Hypothesis drives random window stacks — including NaN bursts,
saturated plateaus, dead windows, and rank-degenerate (constant-tone)
content — through the full batched frame path and the legacy
per-window reference, asserting <= 1e-12 agreement and identical
guard/estimator decisions on every window.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.tracking import TrackingConfig, compute_spectrogram
from repro.dsp.covariance import smoothed_covariance_batch
from repro.core.music import estimate_source_count
from repro.dsp.eig import (
    REASON_OK,
    classify_covariance_batch,
    eigh_descending_batch,
    estimate_source_counts_batch,
    sorted_source_counts_batch,
)
from repro.dsp.reference import (
    check_conditioning_reference,
    estimate_source_count_reference,
    smoothed_correlation_matrix_reference,
    spectrogram_reference,
)
from repro.errors import DegenerateCovarianceError

WINDOW = 32
SUBARRAY = 12
CONFIG = TrackingConfig(window_size=WINDOW, hop=8, subarray_size=SUBARRAY)


@st.composite
def window_stacks(draw):
    """A (n, WINDOW) stack mixing healthy and degenerate windows."""
    num_windows = draw(st.integers(1, 5))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    windows = rng.normal(size=(num_windows, WINDOW)) + 1j * rng.normal(
        size=(num_windows, WINDOW)
    )
    for n in range(num_windows):
        kind = draw(
            st.sampled_from(
                ["clean", "nan-burst", "inf-spike", "dead", "saturated", "tone"]
            )
        )
        if kind == "nan-burst":
            start = draw(st.integers(0, WINDOW - 4))
            windows[n, start : start + 4] = np.nan
        elif kind == "inf-spike":
            windows[n, draw(st.integers(0, WINDOW - 1))] = np.inf
        elif kind == "dead":
            windows[n] = 0.0
        elif kind == "saturated":
            windows[n] = 3.0 + 4.0j
        elif kind == "tone":
            # A single complex exponential: rank-1 smoothed covariance,
            # typically tripping the condition-number guard.
            windows[n] = np.exp(1j * 0.3 * np.arange(WINDOW))
    return windows


@settings(max_examples=40, deadline=None)
@given(window_stacks())
def test_covariance_matches_oracle(windows):
    finite = np.all(np.isfinite(windows), axis=1)
    batch = smoothed_covariance_batch(windows[finite], SUBARRAY)
    for k, window in enumerate(windows[finite]):
        reference = smoothed_correlation_matrix_reference(window, SUBARRAY)
        scale = max(np.max(np.abs(reference)), 1.0)
        np.testing.assert_allclose(
            batch[k], reference, rtol=1e-12, atol=1e-12 * scale
        )


@settings(max_examples=40, deadline=None)
@given(window_stacks())
def test_guard_and_count_decisions_match_oracle(windows):
    finite = np.all(np.isfinite(windows), axis=1)
    covariance = smoothed_covariance_batch(windows[finite], SUBARRAY)
    values, _ = eigh_descending_batch(covariance)
    reasons = classify_covariance_batch(values, CONFIG.condition_limit)
    counts = estimate_source_counts_batch(values, CONFIG.max_sources)
    for k in range(values.shape[0]):
        try:
            check_conditioning_reference(values[k], CONFIG.condition_limit)
            oracle = REASON_OK
        except DegenerateCovarianceError as error:
            oracle = error.reason
        assert reasons[k] == oracle
        assert counts[k] == estimate_source_count_reference(
            values[k], CONFIG.max_sources
        )


@settings(max_examples=25, deadline=None)
@given(window_stacks())
def test_full_pipeline_matches_oracle(windows):
    # Concatenate the stack into one series walked hop-by-hop so the
    # batch sees overlapping windows, not just the crafted ones.
    series = windows.reshape(-1)
    spectrogram = compute_spectrogram(series, CONFIG)
    power, counts, estimators = spectrogram_reference(series, CONFIG)
    np.testing.assert_allclose(spectrogram.power, power, rtol=1e-12, atol=1e-12)
    assert np.array_equal(spectrogram.source_counts, counts)
    assert np.array_equal(spectrogram.estimators, estimators)


@st.composite
def eigh_rows(draw):
    """Descending eigenvalue rows straight from ``eigh``, of either half parity.

    Covariances of any rank from 1 to m, so the smaller half ranges from
    distinct values to a run of near-zero ties.
    """
    m = draw(st.integers(2, 40))
    rank = draw(st.integers(1, m))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (draw(st.integers(1, 6)), m, rank)
    basis = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    values, _ = eigh_descending_batch(basis @ basis.conj().transpose(0, 2, 1))
    return values


@settings(max_examples=60, deadline=None)
@given(
    eigh_rows(),
    st.integers(1, 40),
    st.sampled_from([0.0, 3.0, 6.0, 10.0]),
)
def test_sorted_row_median_counts_like_np_median(values, max_sources, dominance_db):
    # At 0 dB the threshold is the median itself, so a middle entry
    # taken one place off changes the count.
    counts = sorted_source_counts_batch(values, max_sources, dominance_db)
    assert np.array_equal(
        counts, estimate_source_counts_batch(values, max_sources, dominance_db)
    )
    for row, count in zip(values, counts):
        assert count == estimate_source_count_reference(row, max_sources, dominance_db)


@settings(max_examples=60, deadline=None)
@given(eigh_rows(), st.data())
def test_public_counts_follow_np_median_off_exactly_sorted_rows(values, data):
    # A NaN anywhere, or a smaller-half entry nudged above its
    # neighbour by less than estimate_source_count's 1e-9 tolerance:
    # the public kernel still answers as np.median does.
    values = values.copy()
    m = values.shape[1]
    row = data.draw(st.integers(0, len(values) - 1))
    if data.draw(st.booleans()) or m < 3:
        values[row, data.draw(st.integers(0, m - 1))] = np.nan
    else:
        k = data.draw(st.integers(m // 2, m - 2))
        values[row, k + 1] = values[row, k] + 1e-10 * max(abs(values[row, 0]), 1.0)
        assert estimate_source_count(values[row], 40, 0.0) == (
            estimate_source_count_reference(values[row], 40, 0.0)
        )
    for dominance_db in (0.0, 6.0):
        counts = estimate_source_counts_batch(values, 40, dominance_db)
        for k, count in enumerate(counts):
            assert count == estimate_source_count_reference(values[k], 40, dominance_db)
