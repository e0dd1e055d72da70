"""Deterministic replay: re-derive a capture's columns and prove it.

A capture (:mod:`repro.capture.format`) holds the delivered sample
stream bit-exactly plus the columns the original run emitted.  Replay
rebuilds the original tracker from the capture header, feeds the
recorded chunks back — re-enacting each recorded gap as the tracker
reset the live pipeline performed — and the **determinism gate**
(:func:`verify_capture`) proves every replayed column matches its
recorded original bit for bit (``np.array_equal``; the comparison is
on the raw float64 bytes, which is the same predicate made NaN-safe).

Two consumers drive replays:

* :func:`replay_columns` — a bare :class:`~repro.runtime.tracker.
  StreamingTracker`, the cheapest gate.
* :func:`replay_serve` — the capture pushed through a *live*
  :class:`~repro.serve.server.SensingServer` session over the socket,
  closing the loop end to end: record once, replay anywhere, same
  columns.

:func:`promote_to_fixture` is the corpus flywheel's one-call step: it
runs the gate and, only on a clean pass, freezes the capture into a
compressed bundle under ``tests/fixtures/captures/`` where the
regression suite replays it forever.
"""

from __future__ import annotations

import asyncio
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.capture.format import (
    BUNDLE_SUFFIX,
    CaptureHeader,
    CaptureReader,
    write_bundle,
)
from repro.capture.recorder import EVENT_COLUMN, EVENT_GAP
from repro.core.tracking import TrackingConfig
from repro.encoding import floats_to_bytes, unpack_floats
from repro.errors import (
    CaptureFormatError,
    CaptureIntegrityError,
    ProtocolError,
)
from repro.runtime.tracker import SpectrogramColumn, StreamingTracker
from repro.serve.client import AsyncServeClient
from repro.serve.session import CONFIGURABLE_FIELDS

#: Where :func:`promote_to_fixture` freezes bundles by default (the
#: repo's regression-fixture corpus).
DEFAULT_FIXTURE_DIR = (
    Path(__file__).resolve().parents[3] / "tests" / "fixtures" / "captures"
)


def tracker_for(header: CaptureHeader) -> StreamingTracker:
    """The tracker the capture was recorded against, rebuilt exactly."""
    return StreamingTracker(
        config=header.tracking_config(),
        start_time_s=header.start_time_s,
        use_music=header.use_music,
    )


def gap_map(reader: CaptureReader) -> dict[int, int]:
    """Recorded gaps as ``{block start_index: dropped samples}``."""
    gaps: dict[int, int] = {}
    for record in reader.iter_events(EVENT_GAP):
        try:
            index = int(record["block_index"])
            dropped = int(record["dropped_samples"])
        except (KeyError, TypeError, ValueError) as exc:
            raise CaptureFormatError(f"malformed gap event: {exc}") from None
        gaps[index] = gaps.get(index, 0) + dropped
    return gaps


def recorded_columns(reader: CaptureReader) -> list[SpectrogramColumn]:
    """The columns the original run emitted, decoded and CRC-checked."""
    columns: list[SpectrogramColumn] = []
    for record in reader.iter_events(EVENT_COLUMN):
        try:
            payload = record["power"]
            crc = int(record["power_crc32"])
        except (KeyError, TypeError, ValueError) as exc:
            raise CaptureFormatError(f"malformed column event: {exc}") from None
        try:
            power = unpack_floats(payload)
        except ProtocolError as exc:
            raise CaptureIntegrityError(
                f"column event {record.get('index')}: {exc}"
            ) from None
        if zlib.crc32(floats_to_bytes(power)) != crc:
            raise CaptureIntegrityError(
                f"column event {record.get('index')} fails its CRC32 check"
            )
        try:
            columns.append(
                SpectrogramColumn(
                    index=int(record["index"]),
                    start_sample=int(record["start_sample"]),
                    time_s=float(record["time_s"]),
                    power=power,
                    num_sources=int(record["num_sources"]),
                    estimator=str(record["estimator"]),
                )
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise CaptureFormatError(f"malformed column event: {exc}") from None
    return columns


# ----------------------------------------------------------------------
# Replay drivers
# ----------------------------------------------------------------------


def replay_columns(
    reader: CaptureReader, tracker: StreamingTracker | None = None
) -> list[SpectrogramColumn]:
    """Feed the capture through a tracker; return the columns it emits.

    Gaps are re-enacted exactly as the live pipeline handled them: the
    tracker resets before the chunk the gap was charged to, so window
    alignment after every drop matches the original run.
    """
    if tracker is None:
        tracker = tracker_for(reader.header)
    gaps = gap_map(reader)
    columns: list[SpectrogramColumn] = []
    for chunk in reader.iter_chunks():
        if chunk.start_index in gaps:
            tracker.reset()
        columns.extend(tracker.push(chunk.samples))
    return columns


def serve_config_overrides(header: CaptureHeader) -> dict[str, float | int]:
    """The ``open_session`` config that reproduces a capture's tracker.

    Raises:
        CaptureFormatError: the capture's config differs from the
            server defaults on a field clients cannot override — a live
            session could never reproduce its columns.
    """
    config = header.tracking_config()
    overrides: dict[str, float | int] = {
        name: getattr(config, name) for name in CONFIGURABLE_FIELDS
    }
    servable = TrackingConfig(**overrides)
    blocked = [
        name
        for name in header.config
        if getattr(servable, name) != getattr(config, name)
    ]
    if blocked:
        raise CaptureFormatError(
            f"capture {header.capture_id} sets non-configurable field(s) "
            f"{', '.join(sorted(blocked))}; a serve session cannot "
            "reproduce it"
        )
    return overrides


async def replay_serve_async(
    reader: CaptureReader, host: str, port: int
) -> list[SpectrogramColumn]:
    """Push the capture through a live serve session; return its columns.

    Raises:
        CaptureFormatError: the capture recorded stream gaps (a serve
            session has no mid-stream reset hook, so a gapped stream
            cannot replay over the wire) or a non-servable config.
    """
    if gap_map(reader):
        raise CaptureFormatError(
            f"capture {reader.header.capture_id} contains stream gaps; "
            "replay it offline (replay_columns) instead of through serve"
        )
    overrides = serve_config_overrides(reader.header)
    header = reader.header
    client = AsyncServeClient(host, port)
    await client.connect()
    try:
        await client.open_session(
            config=overrides,
            use_music=header.use_music,
            start_time_s=header.start_time_s,
        )
        columns: list[SpectrogramColumn] = []
        for chunk in reader.iter_chunks():
            reply = await client.push(chunk.samples)
            columns.extend(reply.columns)
        await client.close_session()
        return columns
    finally:
        await client.aclose()


def replay_serve(
    reader: CaptureReader, host: str, port: int
) -> list[SpectrogramColumn]:
    """Blocking wrapper over :func:`replay_serve_async`."""
    return asyncio.run(replay_serve_async(reader, host, port))


# ----------------------------------------------------------------------
# The determinism gate
# ----------------------------------------------------------------------


@dataclass
class ReplayVerification:
    """The determinism gate's verdict for one capture.

    ``ok`` iff the replayed columns match the recorded ones bit for
    bit; ``mismatches`` names every divergence (bounded detail, full
    count) so a failed gate is diagnosable.
    """

    capture_id: str
    num_columns: int
    mismatches: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches


def _bit_equal(a: np.ndarray, b: np.ndarray) -> bool:
    # Byte-level equality of the float64 payloads: the same predicate
    # as np.array_equal on these arrays, but NaN positions compare
    # equal to themselves (replay must reproduce even the NaNs).
    return a.shape == b.shape and floats_to_bytes(a) == floats_to_bytes(b)


def compare_columns(
    recorded: list[SpectrogramColumn],
    replayed: list[SpectrogramColumn],
    max_details: int = 10,
) -> list[str]:
    """Field-by-field, bit-for-bit column comparison."""
    mismatches: list[str] = []
    if len(recorded) != len(replayed):
        mismatches.append(
            f"column count: recorded {len(recorded)}, replayed {len(replayed)}"
        )
    for original, replay in zip(recorded, replayed):
        detail: list[str] = []
        for name in ("index", "start_sample", "num_sources", "estimator"):
            if getattr(original, name) != getattr(replay, name):
                detail.append(name)
        if original.time_s != replay.time_s:
            detail.append("time_s")
        if not _bit_equal(
            np.asarray(original.power, dtype=float),
            np.asarray(replay.power, dtype=float),
        ):
            detail.append("power")
        if detail:
            mismatches.append(
                f"column {original.index}: {', '.join(detail)} differ"
            )
            if len(mismatches) >= max_details:
                mismatches.append("... further mismatches suppressed")
                break
    return mismatches


def verify_capture(
    reader: CaptureReader, tracker: StreamingTracker | None = None
) -> ReplayVerification:
    """Replay offline and compare every column against the record.

    Raises:
        CaptureIntegrityError: the capture itself fails verification
            (truncated, corrupt chunk, inconsistent totals) before any
            replay runs.
    """
    reader.verify()
    recorded = recorded_columns(reader)
    replayed = replay_columns(reader, tracker)
    return ReplayVerification(
        capture_id=reader.header.capture_id,
        num_columns=len(recorded),
        mismatches=compare_columns(recorded, replayed),
    )


def verify_serve(
    reader: CaptureReader, host: str, port: int
) -> ReplayVerification:
    """The live-session determinism gate: replay over the wire."""
    reader.verify()
    recorded = recorded_columns(reader)
    replayed = replay_serve(reader, host, port)
    return ReplayVerification(
        capture_id=reader.header.capture_id,
        num_columns=len(recorded),
        mismatches=compare_columns(recorded, replayed),
    )


# ----------------------------------------------------------------------
# The corpus flywheel
# ----------------------------------------------------------------------


def promote_to_fixture(
    capture: CaptureReader | str | Path,
    dest_dir: str | Path | None = None,
    name: str | None = None,
) -> Path:
    """Gate a capture and freeze it as a regression fixture bundle.

    Runs the full determinism gate (:func:`verify_capture`) and, only
    on a clean pass, writes the compressed bundle — by default under
    ``tests/fixtures/captures/`` as ``<capture_id>.capture.ndjson.gz``.
    A capture that fails the gate is refused: the fixture corpus only
    ever accumulates captures the replayer provably reproduces.

    Raises:
        CaptureIntegrityError: the capture is damaged or its replay
            diverges from the recorded columns.
    """
    reader = capture if isinstance(capture, CaptureReader) else CaptureReader(capture)
    verification = verify_capture(reader)
    if not verification.ok:
        raise CaptureIntegrityError(
            f"capture {verification.capture_id} failed the determinism "
            f"gate; not promoting: {'; '.join(verification.mismatches)}"
        )
    dest_dir = Path(dest_dir) if dest_dir is not None else DEFAULT_FIXTURE_DIR
    bundle_name = name if name is not None else reader.header.capture_id
    if not bundle_name.endswith(BUNDLE_SUFFIX):
        bundle_name += BUNDLE_SUFFIX
    return write_bundle(reader, dest_dir / bundle_name)
