"""Backend conformance: every registered backend vs the reference.

Parametrized over the backend registry, hypothesis drives adversarial
window stacks — NaN bursts, saturated plateaus, dead windows, and
rank-degenerate tones — through each backend's fused
:meth:`~repro.dsp.backend.DspBackend.music_batch` and asserts the
three backend contracts:

* **Guard parity** — degeneracy/fallback reasons and source counts
  equal the reference decisions *exactly*, on every window;
* **Accuracy** — bit-exact backends match the reference to the bit;
  budgeted backends keep the Eq. 5.3 denominator within
  ``den_budget_per_m * w'`` per angle and the dominant angle within
  one grid bin on accepted rows;
* **Batch stability** — a batch of one is bit-identical to the same
  window inside a larger batch, per backend.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.tracking import TrackingConfig, estimate_windows_batch
from repro.dsp.backend import (
    DEFAULT_BACKEND,
    backend_names,
    get_backend,
    use_backend,
)
from repro.dsp.eig import REASON_OK

WINDOW = 32
SUBARRAY = 12  # even: exercises the float32 real-transform fast path
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
            # A single complex exponential: rank-1 before smoothing.
            freq = draw(st.floats(0.05, 0.45))
            windows[n] = np.exp(2j * np.pi * freq * np.arange(WINDOW))
    return windows


def _finite_rows(windows):
    return np.flatnonzero(np.all(np.isfinite(windows), axis=1))


@pytest.mark.parametrize("name", backend_names())
@settings(max_examples=40, deadline=None)
@given(stack=window_stacks())
def test_guard_decisions_match_reference_exactly(name, stack):
    backend = get_backend(name)
    reference = get_backend(DEFAULT_BACKEND)
    finite = stack[_finite_rows(stack)]
    if not len(finite):
        return
    result = backend.music_batch(finite, CONFIG)
    expected = reference.music_batch(finite, CONFIG)
    assert np.array_equal(result.reasons, expected.reasons)
    assert np.array_equal(result.source_counts, expected.source_counts)


@pytest.mark.parametrize("name", backend_names())
@settings(max_examples=40, deadline=None)
@given(stack=window_stacks())
def test_accepted_rows_stay_inside_the_budget(name, stack):
    backend = get_backend(name)
    reference = get_backend(DEFAULT_BACKEND)
    finite = stack[_finite_rows(stack)]
    if not len(finite):
        return
    result = backend.music_batch(finite, CONFIG)
    expected = reference.music_batch(finite, CONFIG)
    ok = expected.reasons == REASON_OK
    if backend.bit_exact:
        assert np.array_equal(result.power, expected.power)
        assert np.array_equal(result.eigenvalues, expected.eigenvalues)
        return
    if not np.any(ok):
        return
    # Budgeted backends: the Eq. 5.3 denominator (bounded by w') stays
    # within den_budget_per_m * w' of the reference per angle...
    den = 1.0 / np.square(result.power[ok])
    den_ref = 1.0 / np.square(expected.power[ok])
    budget = backend.den_budget_per_m * SUBARRAY
    assert np.max(np.abs(den - den_ref)) <= budget
    # ...and the displayed dominant angle moves at most one grid bin.
    peaks = np.argmax(result.power[ok], axis=1)
    peaks_ref = np.argmax(expected.power[ok], axis=1)
    assert np.max(np.abs(peaks - peaks_ref)) <= 1


@pytest.mark.parametrize("name", backend_names())
@settings(max_examples=25, deadline=None)
@given(stack=window_stacks())
def test_batch_of_one_is_bit_identical_per_backend(name, stack):
    backend = get_backend(name)
    finite = stack[_finite_rows(stack)]
    if not len(finite):
        return
    batched = backend.music_batch(finite, CONFIG)
    for n in range(len(finite)):
        single = backend.music_batch(finite[n : n + 1], CONFIG)
        assert np.array_equal(single.power[0], batched.power[n])
        assert single.source_counts[0] == batched.source_counts[n]
        assert single.reasons[0] == batched.reasons[n]
        assert np.array_equal(single.eigenvalues[0], batched.eigenvalues[n])


@pytest.mark.parametrize("name", backend_names())
@settings(max_examples=20, deadline=None)
@given(stack=window_stacks())
def test_pipeline_estimator_labels_match_reference(name, stack):
    """End to end: the frame path's estimator/fallback choices are
    backend-invariant even with non-finite rows in the stack."""
    with use_backend(name):
        power, counts, estimators = estimate_windows_batch(stack, CONFIG)
    with use_backend(DEFAULT_BACKEND):
        _, counts_ref, estimators_ref = estimate_windows_batch(stack, CONFIG)
    assert np.array_equal(estimators, estimators_ref)
    assert np.array_equal(counts, counts_ref)
    assert power.shape == (len(stack), len(CONFIG.theta_grid_deg))
    assert np.all(np.isfinite(power))


def test_odd_subarray_takes_the_exact_path():
    """Odd w' has no real centrohermitian transform; the float32
    backend must route those configs through the reference wholesale."""
    config = TrackingConfig(window_size=WINDOW, hop=8, subarray_size=11)
    rng = np.random.default_rng(7)
    windows = rng.normal(size=(3, WINDOW)) + 1j * rng.normal(size=(3, WINDOW))
    f32 = get_backend("numpy-float32")
    reference = get_backend(DEFAULT_BACKEND)
    result = f32.music_batch(windows, config)
    expected = reference.music_batch(windows, config)
    assert np.array_equal(result.power, expected.power)
    assert np.array_equal(result.reasons, expected.reasons)
