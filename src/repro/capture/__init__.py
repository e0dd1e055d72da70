"""Deterministic record/replay of sensing runs.

The capture subsystem closes the reproducibility loop around the
streaming stack: a recording tap (:mod:`repro.capture.recorder`)
writes exactly the sample stream a tracker consumed — in the
versioned, checksummed on-disk format of :mod:`repro.capture.format`
— and the replayer (:mod:`repro.capture.replayer`) feeds it back
through a rebuilt tracker or a live serve session, proving the
re-derived spectrogram columns bit-identical to the originals.
:mod:`repro.capture.store` keeps the accumulating corpus
bounded (age/size/count retention) and audited, and
:func:`~repro.capture.replayer.promote_to_fixture` feeds the best
captures back into the regression suite as frozen fixtures — the
corpus flywheel.
"""

from repro.capture.format import (
    BUNDLE_SUFFIX,
    CAPTURE_FORMAT_VERSION,
    CaptureChunk,
    CaptureHeader,
    CaptureReader,
    CaptureWriter,
    config_from_snapshot,
    config_to_snapshot,
    write_bundle,
)
from repro.capture.recorder import CaptureRecorder
from repro.capture.replayer import (
    ReplayVerification,
    compare_columns,
    promote_to_fixture,
    recorded_columns,
    replay_columns,
    replay_serve,
    replay_serve_async,
    serve_config_overrides,
    tracker_for,
    verify_capture,
    verify_serve,
)
from repro.capture.store import CaptureInfo, CaptureStore, RetentionPolicy

__all__ = [
    "BUNDLE_SUFFIX",
    "CAPTURE_FORMAT_VERSION",
    "CaptureChunk",
    "CaptureHeader",
    "CaptureInfo",
    "CaptureReader",
    "CaptureRecorder",
    "CaptureStore",
    "CaptureWriter",
    "ReplayVerification",
    "RetentionPolicy",
    "compare_columns",
    "config_from_snapshot",
    "config_to_snapshot",
    "promote_to_fixture",
    "recorded_columns",
    "replay_columns",
    "replay_serve",
    "replay_serve_async",
    "serve_config_overrides",
    "tracker_for",
    "verify_capture",
    "verify_serve",
    "write_bundle",
]
