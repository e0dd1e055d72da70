"""The newline-delimited-JSON wire protocol of the sensing service.

One frame per line, one JSON object per frame, ``"type"`` names the
frame.  The request/response pairs:

==================  ======================  =======================
client sends        server replies          purpose
==================  ======================  =======================
``open_session``    ``session_opened``      create a tracking session
``push_blocks``     ``spectrogram_columns`` stream samples, get columns
                                            + detections + health
``close_session``   ``session_closed``      finish, get totals
``ping``            ``pong``                liveness probe
``server_stats``    ``server_stats_reply``  scheduler/occupancy stats
``telemetry_snapshot``  ``telemetry_snapshot_reply``  exact metrics
                                            snapshot of the serving
                                            process (fleet merge): its
                                            ``server.*``/``scheduler.*``
                                            counters, plus the opt-in
                                            registry when telemetry
                                            is on
==================  ======================  =======================

Any request can instead draw an ``error`` frame carrying the
:mod:`repro.errors` taxonomy: the frame names the exception class
(``"error"``) and message, and :func:`raise_wire_error` re-raises the
matching class on the client, so remote failures dispatch exactly like
local ones.

**Resilience extensions** (PR 6).  ``push_blocks`` may carry a
1-based ``seq``; the server applies each sequence number at most once
(a duplicate draws an idempotent empty-columns ack flagged
``"duplicate": true``, a skip draws a typed ``SequenceError``), so a
client may blindly re-send after a lost reply.  ``open_session``
accepts ``"resumable": true`` — replies to that session's pushes then
carry a ``"checkpoint"``: the serialized tracker ingest state
(:func:`tracker_checkpoint_to_wire`), health-machine snapshot, session
stats, and last applied seq.  A later ``open_session`` with
``"resume": <checkpoint>`` rebuilds the session deterministically, so
columns served across a killed-and-resumed connection are
``np.array_equal`` to an uninterrupted run.

**Bit-exactness over JSON.**  Bulk float arrays — samples and
spectral columns — cross the wire packed (base64 little-endian
float64); the decoder also accepts plain number lists from clients.
The codec itself lives in :mod:`repro.encoding`, shared with the
on-disk capture format (:mod:`repro.capture`), and is re-exported here
unchanged — same wire format, same bit-exactness guarantees.  Either
way the served-vs-offline ``np.array_equal`` contract holds across the
socket.
"""

from __future__ import annotations

import json
import math
from typing import Any

import numpy as np

from repro import errors
from repro.encoding import (
    decode_samples,
    encode_samples,
    float_array_from_wire as _float_array_from_wire,
    pack_floats,
    unpack_floats,
)
from repro.errors import ProtocolError, ReproError
from repro.runtime.tracker import SpectrogramColumn, TrackerCheckpoint

__all__ = [  # noqa: F822 - the codec names are re-exported imports
    "encode_frame",
    "decode_frame",
    "require_field",
    "pack_floats",
    "unpack_floats",
    "encode_samples",
    "decode_samples",
    "column_to_wire",
    "column_from_wire",
    "counter_from_wire",
    "tracker_checkpoint_to_wire",
    "tracker_checkpoint_from_wire",
    "error_frame",
    "raise_wire_error",
]

# Frame types, client -> server.
OPEN_SESSION = "open_session"
PUSH_BLOCKS = "push_blocks"
CLOSE_SESSION = "close_session"
PING = "ping"
SERVER_STATS = "server_stats"
TELEMETRY_SNAPSHOT = "telemetry_snapshot"

# Frame types, server -> client.
SESSION_OPENED = "session_opened"
SPECTROGRAM_COLUMNS = "spectrogram_columns"
SESSION_CLOSED = "session_closed"
PONG = "pong"
SERVER_STATS_REPLY = "server_stats_reply"
TELEMETRY_SNAPSHOT_REPLY = "telemetry_snapshot_reply"
ERROR = "error"

#: Hard ceiling on one encoded frame (bytes).  A push of
#: :data:`MAX_PUSH_SAMPLES` complex samples stays far below this;
#: anything larger is a protocol violation, not a bigger buffer.
MAX_FRAME_BYTES = 8 * 1024 * 1024
#: The most complex samples one ``push_blocks`` frame may carry.
MAX_PUSH_SAMPLES = 16384


def encode_frame(frame: dict[str, Any]) -> bytes:
    """Serialize one frame to its wire line (compact JSON + newline)."""
    return (json.dumps(frame, separators=(",", ":")) + "\n").encode("utf-8")


def decode_frame(
    line: bytes | str, max_bytes: int = MAX_FRAME_BYTES
) -> dict[str, Any]:
    """Parse one wire line into a frame dict.

    Raises:
        ProtocolError: the line is not valid UTF-8, not a JSON object
            with a string ``"type"``, or exceeds ``max_bytes``.
    """
    if len(line) > max_bytes:
        raise ProtocolError(f"frame of {len(line)} bytes exceeds {max_bytes}")
    if isinstance(line, (bytes, bytearray)):
        # Decode explicitly so a corrupted frame draws a *typed* error
        # naming the actual violation instead of raising through the
        # reader loop.
        try:
            line = bytes(line).decode("utf-8")
        except UnicodeDecodeError:
            raise ProtocolError("frame is not valid UTF-8") from None
    try:
        frame = json.loads(line)
    except (ValueError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"frame is not valid JSON: {exc}") from None
    if not isinstance(frame, dict):
        raise ProtocolError("frame must be a JSON object")
    kind = frame.get("type")
    if not isinstance(kind, str):
        raise ProtocolError('frame is missing a string "type"')
    return frame


def require_field(frame: dict[str, Any], name: str) -> Any:
    """Fetch a required frame field or raise :class:`ProtocolError`."""
    if name not in frame:
        raise ProtocolError(f'{frame.get("type", "?")} frame is missing "{name}"')
    return frame[name]


def column_to_wire(column: SpectrogramColumn) -> dict[str, Any]:
    """One spectrogram column as its wire dict."""
    return {
        "index": column.index,
        "start_sample": column.start_sample,
        "time_s": column.time_s,
        "power": pack_floats(np.asarray(column.power, dtype=float)),
        "num_sources": int(column.num_sources),
        "estimator": column.estimator,
    }


def column_from_wire(payload: dict[str, Any]) -> SpectrogramColumn:
    """Rebuild a :class:`SpectrogramColumn` from its wire dict."""
    try:
        return SpectrogramColumn(
            index=int(payload["index"]),
            start_sample=int(payload["start_sample"]),
            time_s=float(payload["time_s"]),
            power=_float_array_from_wire(payload["power"], "power"),
            num_sources=int(payload["num_sources"]),
            estimator=str(payload["estimator"]),
        )
    except ProtocolError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"malformed column payload: {exc}") from None


def counter_from_wire(value: Any, name: str) -> int:
    """A checkpoint counter: a non-negative JSON integer, never a bool.

    Raises:
        ValueError: anything else — ``int()`` would read ``true`` as 1,
            ``"5"`` as 5 and 41.9 as 41.
    """
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ValueError(f"{name} must be a non-negative integer, not {value!r}")
    return value


def tracker_checkpoint_to_wire(checkpoint: TrackerCheckpoint) -> dict[str, Any]:
    """A :class:`TrackerCheckpoint` as its wire dict (bit-exact)."""
    return {
        "buffered": encode_samples(checkpoint.buffered),
        "next_start": int(checkpoint.next_start),
        "column_index": int(checkpoint.column_index),
        "samples_seen": int(checkpoint.samples_seen),
        "start_time_s": float(checkpoint.start_time_s),
        "use_music": bool(checkpoint.use_music),
    }


def start_time_from_wire(value: Any) -> float:
    """A session's ``start_time_s`` as read from the wire.

    JSON's ``NaN`` and ``Infinity`` decode as floats, but every window
    time would read nan or inf, so only a finite number that is not a
    bool passes.

    Raises:
        ProtocolError: the value is a bool, not a number, or not finite.
    """
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or not math.isfinite(value)
    ):
        raise ProtocolError(f"start_time_s must be a finite number, not {value!r}")
    return float(value)


def tracker_checkpoint_from_wire(payload: Any) -> TrackerCheckpoint:
    """Rebuild a :class:`TrackerCheckpoint` from its wire dict.

    Raises:
        ProtocolError: the payload is not a well-formed checkpoint: a
            field is missing or of the wrong JSON type.
    """
    if not isinstance(payload, dict):
        raise ProtocolError("tracker checkpoint must be a JSON object")
    try:
        use_music = payload["use_music"]
        if not isinstance(use_music, bool):
            raise ValueError(f"use_music must be a boolean, not {use_music!r}")
        return TrackerCheckpoint(
            buffered=decode_samples(payload["buffered"]),
            next_start=counter_from_wire(payload["next_start"], "next_start"),
            column_index=counter_from_wire(payload["column_index"], "column_index"),
            samples_seen=counter_from_wire(payload["samples_seen"], "samples_seen"),
            start_time_s=start_time_from_wire(payload["start_time_s"]),
            use_music=use_music,
        )
    except ProtocolError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"malformed tracker checkpoint: {exc}") from None


def error_frame(
    exc: BaseException,
    session: str | None = None,
    seq: int | None = None,
) -> dict[str, Any]:
    """An ``error`` frame carrying the taxonomy class of ``exc``.

    Non-:class:`~repro.errors.ReproError` exceptions are reported as
    plain ``ReproError`` so a server bug never leaks an unmappable
    class name to clients.
    """
    name = type(exc).__name__ if isinstance(exc, ReproError) else "ReproError"
    frame: dict[str, Any] = {"type": ERROR, "error": name, "message": str(exc)}
    if session is not None:
        frame["session"] = session
    if seq is not None:
        frame["seq"] = seq
    return frame


def raise_wire_error(frame: dict[str, Any]) -> None:
    """Re-raise the taxonomy exception an ``error`` frame names.

    Unknown class names (or names that are not ``ReproError``
    subclasses exported by :mod:`repro.errors`) degrade to the base
    :class:`~repro.errors.ReproError` rather than failing opaquely.
    """
    name = frame.get("error", "ReproError")
    message = frame.get("message", "remote error")
    cls = getattr(errors, str(name), None)
    if not (isinstance(cls, type) and issubclass(cls, ReproError)):
        cls = ReproError
    try:
        raise cls(str(message))
    except TypeError:  # pragma: no cover - classes with extra args
        raise ReproError(f"{name}: {message}") from None
