"""Float64 spectrogram bits pinned where the capture fixtures do not reach.

Both fixture bundles run MUSIC with an even noise half (w' of 32 and
24), and only one of them has fallback rows.  These digests pin
:func:`compute_spectrogram` on seeded synthetic traces with a NaN
burst, a dead (all-zero) stretch, a constant saturated plateau and a
clipped episode, at the default config, at (64, 8, 33), whose noise
half is odd, and with ``max_sources`` 3.  Any change to a column bit,
a source count or an estimator label on these traces fails here.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core.tracking import (
    TrackingConfig,
    compute_spectrogram,
    compute_spectrogram_frame,
)
from repro.dsp.backend import DEFAULT_BACKEND, use_backend

CONFIGS = {
    "default": TrackingConfig(),
    # w' = 33: the smaller half holds 17 eigenvalues, so its median is
    # one middle entry.  max_sources 16 lets the counts come from the
    # median's threshold, not the clamp.
    "w64-hop8-sub33": TrackingConfig(
        window_size=64, hop=8, subarray_size=33, max_sources=16
    ),
    "max-sources-3": TrackingConfig(max_sources=3),
}

#: SHA-256 of (power bytes, int64 source counts, estimator labels).
DIGESTS = {
    (11, "default"): (
        "7bccd9ef68a1d4d268a3a9fa54cf2661"
        "49f6b88bf96092f0372a4dfe9fca06f7"
    ),
    (11, "w64-hop8-sub33"): (
        "bc160abc1fa8a8c3ebb430e675f8e5ae"
        "3a721b6a1e46cf88da869823be381dc4"
    ),
    (11, "max-sources-3"): (
        "6db3de81dc6da8a5ad7928824c429e99"
        "79b90125d9e1c47bbb7053f7785a81b3"
    ),
    (29, "default"): (
        "b2e49067923fc41b31b431ef170dd7aa"
        "93b9a7777d7183e52723b2c23c7951c1"
    ),
    (29, "w64-hop8-sub33"): (
        "83738ecffca65fd7a8332c3690d2d9a3"
        "4857acbe231602463b6a6c8a65a7c24e"
    ),
    (29, "max-sources-3"): (
        "cab7b66ce819bf8f679a1c81184e73b4"
        "70eaf3683b5dc6581add08ae48279956"
    ),
}


def synthetic_trace(seed: int, num_samples: int = 2000) -> np.ndarray:
    """Two moving reflectors over a DC residual, with four damaged stretches."""
    rng = np.random.default_rng(seed)
    t = np.arange(num_samples)
    drift = np.cumsum(rng.normal(0.0, 0.0005, num_samples))
    samples = (
        (0.5 + 0.2j)
        + 0.3 * np.exp(1j * (0.09 * t + 40.0 * drift))
        + 0.1 * np.exp(-1j * (0.05 * t - 25.0 * drift))
        + 0.2 * (rng.normal(size=num_samples) + 1j * rng.normal(size=num_samples))
    )
    samples[300:312] = np.nan
    samples[700:860] = 0.0
    samples[1200:1350] = 2.0 + 2.0j
    rail = 1.2
    episode = 20.0 * samples[1700:1800]
    samples[1700:1800] = np.clip(episode.real, -rail, rail) + 1j * np.clip(
        episode.imag, -rail, rail
    )
    return samples


def spectrogram_digest(spectrogram) -> str:
    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(spectrogram.power, dtype=np.float64).tobytes())
    digest.update(spectrogram.source_counts.astype("<i8").tobytes())
    digest.update("\n".join(str(label) for label in spectrogram.estimators).encode())
    return digest.hexdigest()


@pytest.mark.parametrize(
    "seed,name", sorted(DIGESTS), ids=[f"seed{s}-{n}" for s, n in sorted(DIGESTS)]
)
def test_spectrogram_bits_are_pinned(seed, name):
    config = CONFIGS[name]
    series = synthetic_trace(seed)
    with use_backend(DEFAULT_BACKEND):
        spectrogram = compute_spectrogram(series, config)
        # The trace reaches both estimators and all three guard reasons'
        # fallback rows, so the digest covers the patch-up path too.
        assert set(spectrogram.estimators) == {"music", "beamforming"}
        assert spectrogram_digest(spectrogram) == DIGESTS[(seed, name)]
        starts = np.arange(0, len(series) - config.window_size + 1, config.hop)
        for row, start in enumerate(starts):
            frame = compute_spectrogram_frame(
                series[start : start + config.window_size], config
            )
            assert np.array_equal(frame.power, spectrogram.power[row]), row
            assert frame.num_sources == spectrogram.source_counts[row]
            assert frame.estimator == spectrogram.estimators[row]
