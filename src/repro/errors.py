"""Structured exception taxonomy for the Wi-Vi stack.

The paper's prototype fails in well-understood physical ways: nulling
erodes as the static channel drifts (§4.1), the host drops buffers at
high sample rates (the UHD 'O' overflows that forced the 5 MHz
prototype, §7.1), and MUSIC degenerates when the emulated-array
covariance is ill-conditioned (§5).  A production pipeline needs to
*name* those failures so the recovery layer can dispatch on them
instead of pattern-matching strings.

Hierarchy::

    ReproError
    ├── HardwareFault          (something at the radio boundary broke)
    │   ├── SampleCorruptionError
    │   ├── AdcSaturationError
    │   ├── StreamOverflowError
    │   └── ClockFault
    ├── CalibrationError       (Algorithm 1 could not converge)
    ├── DegenerateCovarianceError  (MUSIC cannot run on this window)
    ├── DspBackendError        (a DSP backend is unknown)
    ├── CaptureQualityError    (a screened capture was rejected)
    ├── DeviceFailedError      (the health machine gave up)
    ├── ProtocolError          (a serving wire frame was invalid)
    │   ├── SequenceError          (a push arrived out of order)
    │   └── SessionResumeError     (a resume checkpoint was rejected)
    ├── ServeTimeoutError      (a serving deadline expired)
    ├── ServeOverloadError     (the serving layer shed the request)
    │   └── SessionLimitError  (no capacity for another session)
    ├── FleetError             (the sharded serving layer misbehaved)
    │   ├── ShardDrainingError     (this shard is draining; resume elsewhere)
    │   └── WorkerCrashedError     (the shard process died mid-session)
    └── CaptureError           (a recorded capture misbehaved)
        ├── CaptureFormatError     (malformed or unsupported layout)
        ├── CaptureIntegrityError  (CRC mismatch / truncation)
        └── CaptureNotFoundError   (no such capture in the store)

The serving layer (:mod:`repro.serve`) transports this taxonomy over
the wire: an error frame names the exception class, and the client
re-raises the matching class, so a remote failure dispatches exactly
like a local one.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every structured error raised by the stack."""


class HardwareFault(ReproError):
    """A fault at the hardware boundary (real or injected)."""


class SampleCorruptionError(HardwareFault):
    """The capture contains non-finite (NaN/Inf) samples."""


class AdcSaturationError(HardwareFault):
    """The capture clipped against the ADC rails."""


class StreamOverflowError(HardwareFault):
    """The host fell behind and the receive stream dropped samples."""


class ClockFault(HardwareFault):
    """The shared reference jumped; phase continuity is lost."""


class CalibrationError(ReproError):
    """Nulling calibration failed to converge.

    Attributes:
        attempts: how many calibration attempts were made before
            giving up (1 for a single un-retried failure).
    """

    def __init__(self, message: str, attempts: int = 1):
        super().__init__(message)
        self.attempts = attempts


class DegenerateCovarianceError(ReproError):
    """The smoothed covariance is too ill-conditioned for MUSIC.

    Attributes:
        reason: short machine-readable cause ("non-finite", "dead",
            or "ill-conditioned").
    """

    def __init__(self, message: str, reason: str = "ill-conditioned"):
        super().__init__(message)
        self.reason = reason


class DspBackendError(ReproError):
    """A DSP backend was requested that is unknown.

    Raised by the :mod:`repro.dsp.backend` registry when
    ``REPRO_DSP_BACKEND``/``--dsp-backend`` names a backend that was
    never registered.
    """


class CaptureQualityError(ReproError):
    """A capture failed screening and cannot be processed."""


class DeviceFailedError(ReproError):
    """The device health machine reached FAILED; no captures possible."""


class ProtocolError(ReproError):
    """A serving wire frame violated the protocol.

    Malformed JSON, an unknown frame type, a missing field, a reference
    to a session this connection never opened, or a payload beyond the
    configured limits.  Protocol errors are the *client's* fault and
    are never retryable as-is.
    """


class SequenceError(ProtocolError):
    """A sequence-numbered push arrived out of order.

    The server tracks the last sequence number each session applied; a
    push that skips ahead is refused without touching the tracker, so
    the client can re-send its pushes in order (duplicates — a seq at
    or below the last applied — are acknowledged idempotently instead
    of raising).
    """


class SessionResumeError(ProtocolError):
    """An ``open_session`` resume checkpoint could not be restored.

    The checkpoint is malformed, internally inconsistent, or
    incompatible with the session config it was presented with.  The
    client must fall back to opening a fresh session.
    """


class ServeTimeoutError(ReproError):
    """A serving-layer deadline expired.

    Raised (and sent as an error frame where the socket still works)
    when a connection exhausts its read/idle deadline — a stalled or
    slow-loris client — or a reply write exceeds the write timeout.
    The connection is closed afterwards; a resumable client should
    reconnect and resume from its last checkpoint.
    """


class ServeOverloadError(ReproError):
    """The serving layer shed this request to protect the rest.

    Raised (and sent as an error frame) when the micro-batching
    scheduler's admission queue cannot absorb the windows a push would
    complete.  Unlike :class:`StreamOverflowError` — where samples were
    *silently lost* at the hardware boundary — a shed request rejects
    the whole block before any sample is buffered, so the session's
    window alignment survives and the client may simply retry later.
    """


class SessionLimitError(ServeOverloadError):
    """The server is at its concurrent-session limit."""


class FleetError(ReproError):
    """The sharded serving layer (:mod:`repro.fleet`) misbehaved.

    Base class for conditions the routing frontend reports about its
    worker shards.  Fleet errors are *migration signals*, not terminal
    failures: a resumable client that holds a checkpoint should
    reconnect and resume — the frontend will hash the session onto a
    healthy shard.
    """


class ShardDrainingError(FleetError):
    """The shard owning this session is draining.

    Sent by the routing frontend when an operator drains a shard: the
    shard stops admitting work, and every session still bound to it is
    told to migrate.  A resumable client reconnects and presents its
    freshest checkpoint; the session re-hashes onto the remaining
    shards and continues bit-identically.
    """


class WorkerCrashedError(FleetError):
    """The worker process owning this session died.

    Sent by the routing frontend to every session orphaned by a shard
    crash (and raised locally when the backend connection breaks
    mid-request).  The supervisor restarts the shard; a resumable
    client reconnects and resumes from its last checkpoint.
    """


class CaptureError(ReproError):
    """A recorded capture could not be written, read, or replayed."""


class CaptureFormatError(CaptureError):
    """A capture's on-disk layout is malformed or unsupported.

    A missing or unparsable header, an unknown format version, a
    record that is not the JSON object its file promises, or a capture
    whose recorded configuration cannot be replayed in the requested
    mode (e.g. a gapped capture pushed through a live serve session,
    which has no mid-stream reset hook).
    """


class CaptureIntegrityError(CaptureError):
    """A capture's stored bytes do not survive verification.

    A chunk whose CRC32 does not match its payload, a payload that is
    not valid packed float64s, an out-of-order chunk sequence, or a
    capture cut off before its footer was written (an unsealed capture
    read as if complete).  Integrity errors name the first offending
    record so a corrupt archive is diagnosable, not just rejected.
    """


class CaptureNotFoundError(CaptureError):
    """The capture store has no capture under the requested id."""
