"""The shared packed-float64 codec for bulk sample/spectrum arrays.

Two subsystems move large float arrays through JSON-shaped records and
need the transfer to be *bit-exact*: the serving wire protocol
(:mod:`repro.serve.protocol`) and the on-disk capture format
(:mod:`repro.capture.format`).  The encoders always write one
encoding; the decoder accepts two:

* **packed**: base64 of the raw little-endian float64 bytes.
  Bit-exact by construction, ~40% smaller than decimal text, and three
  orders of magnitude cheaper to encode than per-float ``repr`` — the
  profiling result that made it the only encoding written.
* **plain lists** of JSON numbers, which a client may send for
  debuggability (a frame stays readable with ``jq``).  Still
  bit-exact: Python serializes floats via ``repr``, the shortest
  decimal string that round-trips to the identical IEEE-754 double
  (non-finite values ride the stdlib JSON extension literals
  ``NaN``/``Infinity``).

Complex sample streams interleave as ``re, im`` pairs.  The raw-bytes
helpers (:func:`floats_to_bytes` / :func:`floats_from_bytes`) are the
layer the capture format checksums: CRC32 over exactly the bytes that
base64 wraps, so a flipped bit anywhere in a stored chunk is caught
before the samples reach a tracker.

Malformed payloads raise :class:`~repro.errors.ProtocolError` — the
taxonomy's "this encoded blob violates its format" error.  Consumers
with their own failure vocabulary (the capture reader) catch it and
re-raise with context.
"""

from __future__ import annotations

import base64
import binascii
from typing import Any

import numpy as np

from repro.errors import ProtocolError


def floats_to_bytes(values: np.ndarray) -> bytes:
    """Float64 array -> its raw little-endian bytes (bit-exact)."""
    return np.ascontiguousarray(values, dtype="<f8").tobytes()


def floats_from_bytes(raw: bytes) -> np.ndarray:
    """Inverse of :func:`floats_to_bytes`.

    Raises:
        ProtocolError: the byte run is not whole float64s.
    """
    if len(raw) % 8 != 0:
        raise ProtocolError("packed floats are not whole float64s")
    return np.frombuffer(raw, dtype="<f8").astype(float)


def pack_floats(values: np.ndarray) -> str:
    """Float64 array -> base64 of its little-endian bytes (bit-exact)."""
    return base64.b64encode(floats_to_bytes(values)).decode("ascii")


def unpack_floats(payload: str) -> np.ndarray:
    """Inverse of :func:`pack_floats`.

    Raises:
        ProtocolError: not valid base64, or not whole float64s.
    """
    try:
        raw = base64.b64decode(payload.encode("ascii"), validate=True)
    except (binascii.Error, UnicodeEncodeError):
        raise ProtocolError("packed floats are not valid base64") from None
    return floats_from_bytes(raw)


def float_array_from_wire(payload: Any, what: str) -> np.ndarray:
    """Decode either encoding of a float array field.

    Raises:
        ProtocolError: the payload is neither a packed string nor a
            flat list of numbers (``what`` names the field).
    """
    if isinstance(payload, str):
        return unpack_floats(payload)
    if not isinstance(payload, list):
        raise ProtocolError(f"{what} must be a list of numbers or a packed string")
    try:
        values = np.asarray(payload, dtype=float)
    except (TypeError, ValueError):
        raise ProtocolError(f"{what} must contain only numbers") from None
    if values.ndim != 1:
        raise ProtocolError(f"{what} must be a flat list")
    return values


def interleave_complex(samples: np.ndarray) -> np.ndarray:
    """Complex samples -> interleaved ``re, im`` float64 pairs."""
    samples = np.asarray(samples, dtype=complex)
    if samples.ndim != 1:
        raise ValueError("samples must be one-dimensional")
    interleaved = np.empty(2 * len(samples), dtype=float)
    interleaved[0::2] = samples.real
    interleaved[1::2] = samples.imag
    return interleaved


def deinterleave_complex(interleaved: np.ndarray) -> np.ndarray:
    """Inverse of :func:`interleave_complex`.

    Raises:
        ProtocolError: the run has odd length.
    """
    if len(interleaved) % 2 != 0:
        raise ProtocolError("samples must interleave an even run of floats")
    # Assemble via the component views, not ``re + 1j * im``: the
    # multiply turns an infinite imaginary part into a NaN real part,
    # corrupting the non-finite samples fault injection relies on.
    samples = np.empty(len(interleaved) // 2, dtype=complex)
    samples.real = interleaved[0::2]
    samples.imag = interleaved[1::2]
    return samples


def samples_to_bytes(samples: np.ndarray) -> bytes:
    """Complex samples -> raw interleaved little-endian float64 bytes."""
    return floats_to_bytes(interleave_complex(samples))


def samples_from_bytes(raw: bytes) -> np.ndarray:
    """Inverse of :func:`samples_to_bytes`.

    Raises:
        ProtocolError: not whole float64s, or an odd run of them.
    """
    return deinterleave_complex(floats_from_bytes(raw))


def encode_samples(samples: np.ndarray) -> str:
    """Complex samples -> interleaved ``re, im`` pairs, packed."""
    return pack_floats(interleave_complex(samples))


def decode_samples(payload: Any) -> np.ndarray:
    """Interleaved re/im floats (either encoding) -> complex128 samples.

    Raises:
        ProtocolError: the payload is not an even-length run of floats.
    """
    return deinterleave_complex(float_array_from_wire(payload, "samples"))
