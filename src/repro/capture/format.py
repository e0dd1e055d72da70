"""The versioned, chunked on-disk capture format.

A capture records what the tracker saw — the exact sample blocks, plus
the metadata needed to interpret and replay them — in a layout that
can be written and read as a stream: neither side ever holds a whole
capture in memory.

**Directory layout.**  A capture is a directory of four files::

    <capture_id>/
        header.json       one JSON object: format version, capture id,
                          git SHA, seed, sample rate, config snapshot
        samples.ndjson    one line per sample chunk: sequence number,
                          stream start index, packed little-endian
                          float64 samples (the repro.encoding codec
                          the serve wire already proved bit-exact),
                          and a CRC32 over the raw packed bytes
        manifest.ndjson   one line per metadata event, in stream
                          order: recorded spectrogram columns,
                          detections, health transitions, stream
                          gaps, the injected fault schedule
        footer.json       totals + ``"sealed": true`` — its presence
                          is the capture's completeness marker

A capture without a footer is *truncated* (the recorder died
mid-write); readers surface that as a typed
:class:`~repro.errors.CaptureIntegrityError` rather than silently
replaying a partial stream.

**Bundle layout.**  :func:`write_bundle` freezes a capture into a
single gzip-compressed NDJSON file (suffix ``.capture.ndjson.gz``)
whose records carry a ``"record"`` tag (``header``/``chunk``/``event``/
``footer``).  Bundles are the portable form — regression fixtures
under ``tests/fixtures/captures/`` — and :class:`CaptureReader` opens
either layout through the same API.

Every stored float crosses through :mod:`repro.encoding`, so a
capture read back is bit-identical to what was recorded: the
determinism gate (:mod:`repro.capture.replayer`) builds on exactly
that property.
"""

from __future__ import annotations

import gzip
import json
import subprocess
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Any, Iterator

import numpy as np

from repro.core.tracking import TrackingConfig
from repro.encoding import pack_floats, samples_from_bytes, samples_to_bytes
from repro.errors import CaptureFormatError, CaptureIntegrityError, ProtocolError
from repro.telemetry.events import jsonable

#: Current (and only) capture format version.  Readers reject other
#: versions with a typed error instead of guessing.
CAPTURE_FORMAT_VERSION = 1

HEADER_FILE = "header.json"
SAMPLES_FILE = "samples.ndjson"
MANIFEST_FILE = "manifest.ndjson"
FOOTER_FILE = "footer.json"

#: Suffix of single-file capture bundles (fixtures, artifacts).
BUNDLE_SUFFIX = ".capture.ndjson.gz"

#: TrackingConfig fields frozen into a capture header, in a stable
#: order.  Every field is a JSON scalar, so the snapshot round-trips
#: bit-exactly (floats serialize via repr).
CONFIG_SNAPSHOT_FIELDS = (
    "window_size",
    "hop",
    "assumed_speed_mps",
    "sample_period_s",
    "subarray_size",
    "max_sources",
    "theta_step_deg",
    "wavelength_m",
    "condition_limit",
)


def git_sha() -> str:
    """The current commit hash, or "unknown" outside a git checkout."""
    try:
        return (
            subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=Path(__file__).parent,
                capture_output=True,
                text=True,
                check=True,
                timeout=10,
            ).stdout.strip()
            or "unknown"
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def config_to_snapshot(config: TrackingConfig) -> dict[str, Any]:
    """Freeze a :class:`TrackingConfig` into its header snapshot."""
    return {name: getattr(config, name) for name in CONFIG_SNAPSHOT_FIELDS}


def config_from_snapshot(snapshot: dict[str, Any]) -> TrackingConfig:
    """Rebuild the :class:`TrackingConfig` a capture was recorded with.

    Raises:
        CaptureFormatError: unknown fields, missing fields, or a
            combination the config itself rejects.
    """
    if not isinstance(snapshot, dict):
        raise CaptureFormatError("config snapshot must be a JSON object")
    unknown = sorted(set(snapshot) - set(CONFIG_SNAPSHOT_FIELDS))
    if unknown:
        raise CaptureFormatError(
            f"config snapshot has unknown field(s): {', '.join(unknown)}"
        )
    missing = sorted(set(CONFIG_SNAPSHOT_FIELDS) - set(snapshot))
    if missing:
        raise CaptureFormatError(
            f"config snapshot is missing field(s): {', '.join(missing)}"
        )
    try:
        return TrackingConfig(**snapshot)
    except (TypeError, ValueError) as exc:
        raise CaptureFormatError(f"invalid config snapshot: {exc}") from None


@dataclass(frozen=True)
class CaptureHeader:
    """Everything needed to interpret (and replay) a capture's chunks.

    Attributes:
        capture_id: the store-unique name of this capture.
        created_ts: wall-clock seconds when recording started.
        git_sha: the commit the recording process ran.
        seed: the run's top-level random seed (None when unseeded).
        sample_rate_hz: channel-sample rate of the recorded stream.
        source: which tap recorded it ("stream", "serve", ...).
        config: the :data:`CONFIG_SNAPSHOT_FIELDS` snapshot.
        use_music: estimator family of the original run.
        start_time_s: the tracker's time origin.
        dsp_backend: name of the DSP backend the recording process was
            running — replay on the same backend reproduces columns
            bit for bit; a different backend reproduces them within
            that backend's budget.  None on captures recorded before
            backends existed (treated as the float64 default).
        extra: free-form provenance (fault seed, session id, ...).
        format_version: on-disk layout version.
    """

    capture_id: str
    created_ts: float
    git_sha: str
    seed: int | None
    sample_rate_hz: float
    source: str
    config: dict[str, Any]
    use_music: bool = True
    start_time_s: float = 0.0
    dsp_backend: str | None = None
    extra: dict[str, Any] = field(default_factory=dict)
    format_version: int = CAPTURE_FORMAT_VERSION

    def tracking_config(self) -> TrackingConfig:
        return config_from_snapshot(self.config)

    def to_dict(self) -> dict[str, Any]:
        return {
            "format_version": self.format_version,
            "capture_id": self.capture_id,
            "created_ts": self.created_ts,
            "git_sha": self.git_sha,
            "seed": self.seed,
            "sample_rate_hz": self.sample_rate_hz,
            "source": self.source,
            "config": dict(self.config),
            "use_music": self.use_music,
            "start_time_s": self.start_time_s,
            "dsp_backend": self.dsp_backend,
            "extra": jsonable(self.extra),
        }

    @classmethod
    def from_dict(cls, payload: Any) -> "CaptureHeader":
        """Parse and validate a header record.

        Raises:
            CaptureFormatError: not an object, wrong types, or an
                unsupported format version.
        """
        if not isinstance(payload, dict):
            raise CaptureFormatError("capture header must be a JSON object")
        version = payload.get("format_version")
        if version != CAPTURE_FORMAT_VERSION:
            raise CaptureFormatError(
                f"unsupported capture format version {version!r} "
                f"(this reader speaks version {CAPTURE_FORMAT_VERSION})"
            )
        try:
            capture_id = payload["capture_id"]
            if not isinstance(capture_id, str) or not capture_id:
                raise ValueError("capture_id must be a non-empty string")
            seed = payload.get("seed")
            if seed is not None:
                seed = int(seed)
            config = payload["config"]
            if not isinstance(config, dict):
                raise ValueError("config must be a JSON object")
            extra = payload.get("extra", {})
            if not isinstance(extra, dict):
                raise ValueError("extra must be a JSON object")
            dsp_backend = payload.get("dsp_backend")
            if dsp_backend is not None:
                dsp_backend = str(dsp_backend)
            return cls(
                capture_id=capture_id,
                created_ts=float(payload["created_ts"]),
                git_sha=str(payload.get("git_sha", "unknown")),
                seed=seed,
                sample_rate_hz=float(payload["sample_rate_hz"]),
                source=str(payload.get("source", "unknown")),
                config=config,
                use_music=bool(payload.get("use_music", True)),
                start_time_s=float(payload.get("start_time_s", 0.0)),
                dsp_backend=dsp_backend,
                extra=extra,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise CaptureFormatError(f"malformed capture header: {exc}") from None


@dataclass(frozen=True)
class CaptureChunk:
    """One verified sample chunk read back from a capture."""

    seq: int
    start_index: int
    samples: np.ndarray

    def __len__(self) -> int:
        return len(self.samples)


def _dump(payload: dict[str, Any]) -> str:
    return json.dumps(payload, separators=(",", ":"))


class CaptureWriter:
    """Streams one capture to disk, chunk by chunk.

    Opens the directory eagerly, appends each chunk/event line as it
    arrives (bounded memory no matter how long the recording runs),
    and writes the footer on :meth:`seal`.  As a context manager it
    seals on clean exit and leaves the capture *unsealed* when the
    body raised — an honest record of a recording that died, which
    readers report as truncated.
    """

    def __init__(self, path: str | Path, header: CaptureHeader):
        self.path = Path(path)
        self.header = header
        if self.path.exists():
            raise CaptureFormatError(f"capture path {self.path} already exists")
        self.path.mkdir(parents=True)
        (self.path / HEADER_FILE).write_text(
            json.dumps(header.to_dict(), indent=2) + "\n"
        )
        self._samples: IO[str] | None = (self.path / SAMPLES_FILE).open(
            "w", encoding="utf-8"
        )
        self._manifest: IO[str] | None = (self.path / MANIFEST_FILE).open(
            "w", encoding="utf-8"
        )
        self.num_chunks = 0
        self.num_samples = 0
        self.num_events = 0
        self.sealed = False

    def _require_open(self) -> None:
        if self._samples is None or self._manifest is None:
            raise CaptureFormatError(
                f"capture {self.header.capture_id} is already sealed"
            )

    def append_chunk(self, samples: np.ndarray, start_index: int) -> dict[str, Any]:
        """Record one sample block exactly as the consumer saw it."""
        self._require_open()
        samples = np.asarray(samples, dtype=complex)
        if samples.ndim != 1 or len(samples) == 0:
            raise ValueError("a chunk must be a non-empty 1-D sample array")
        raw = samples_to_bytes(samples)
        record = {
            "seq": self.num_chunks,
            "start_index": int(start_index),
            "num_samples": len(samples),
            "crc32": zlib.crc32(raw),
            "samples": pack_floats(np.frombuffer(raw, dtype="<f8")),
        }
        self._samples.write(_dump(record) + "\n")
        self.num_chunks += 1
        self.num_samples += len(samples)
        return record

    def append_event(self, kind: str, **fields: Any) -> dict[str, Any]:
        """Record one manifest event (column, health, gap, schedule...)."""
        self._require_open()
        if not kind:
            raise ValueError("event kind must be a non-empty string")
        record = {"seq": self.num_events, "kind": str(kind)}
        for key, value in fields.items():
            record[key] = jsonable(value)
        self._manifest.write(_dump(record) + "\n")
        self.num_events += 1
        return record

    def seal(self, **totals: Any) -> dict[str, Any]:
        """Close the streams and write the completeness footer."""
        self._require_open()
        self._samples.close()
        self._manifest.close()
        self._samples = None
        self._manifest = None
        footer = {
            "sealed": True,
            "num_chunks": self.num_chunks,
            "num_samples": self.num_samples,
            "num_events": self.num_events,
        }
        for key, value in totals.items():
            footer[key] = jsonable(value)
        (self.path / FOOTER_FILE).write_text(json.dumps(footer, indent=2) + "\n")
        self.sealed = True
        return footer

    def abort(self) -> None:
        """Close the streams without sealing (the capture stays truncated)."""
        if self._samples is not None:
            self._samples.close()
            self._samples = None
        if self._manifest is not None:
            self._manifest.close()
            self._manifest = None

    def __enter__(self) -> "CaptureWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.abort()
        elif not self.sealed:
            self.seal()


def _parse_line(line: str, where: str, number: int) -> dict[str, Any]:
    try:
        record = json.loads(line)
    except ValueError:
        raise CaptureIntegrityError(
            f"{where} line {number} is not valid JSON (truncated capture?)"
        ) from None
    if not isinstance(record, dict):
        raise CaptureFormatError(f"{where} line {number} must be a JSON object")
    return record


def _decode_chunk(record: dict[str, Any], where: str) -> CaptureChunk:
    """Verify and decode one chunk record.

    Raises:
        CaptureFormatError: the record is missing fields.
        CaptureIntegrityError: bad base64, CRC mismatch, or a sample
            count that contradicts the payload.
    """
    try:
        seq = int(record["seq"])
        start_index = int(record["start_index"])
        num_samples = int(record["num_samples"])
        crc = int(record["crc32"])
        payload = record["samples"]
    except (KeyError, TypeError, ValueError) as exc:
        raise CaptureFormatError(f"malformed chunk record in {where}: {exc}") from None
    if not isinstance(payload, str):
        raise CaptureFormatError(f"chunk {seq} in {where} must pack its samples")
    try:
        import base64 as _base64

        raw = _base64.b64decode(payload.encode("ascii"), validate=True)
    except Exception:
        raise CaptureIntegrityError(
            f"chunk {seq} in {where} is not valid base64"
        ) from None
    if zlib.crc32(raw) != crc:
        raise CaptureIntegrityError(
            f"chunk {seq} in {where} fails its CRC32 check (stored {crc})"
        )
    try:
        samples = samples_from_bytes(raw)
    except ProtocolError as exc:
        raise CaptureIntegrityError(f"chunk {seq} in {where}: {exc}") from None
    if len(samples) != num_samples:
        raise CaptureIntegrityError(
            f"chunk {seq} in {where} decodes to {len(samples)} samples, "
            f"record claims {num_samples}"
        )
    return CaptureChunk(seq=seq, start_index=start_index, samples=samples)


class CaptureReader:
    """Streaming reader over either capture layout (directory or bundle).

    Chunk iteration verifies as it goes — CRC32, base64 validity,
    sample counts, and sequence contiguity — so a corrupt or truncated
    capture raises a typed error at the first bad record instead of
    feeding damaged samples to a tracker.  Iterators re-open their
    file on every call; nothing is cached in memory.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.is_bundle = self.path.name.endswith(BUNDLE_SUFFIX)
        if self.is_bundle:
            if not self.path.is_file():
                raise CaptureFormatError(f"no capture bundle at {self.path}")
        elif not (self.path / HEADER_FILE).is_file():
            raise CaptureFormatError(f"no capture header under {self.path}")
        self.header = CaptureHeader.from_dict(self._read_header())
        self.footer = self._read_footer()

    # ------------------------------------------------------------------
    # Layout plumbing
    # ------------------------------------------------------------------

    def _bundle_records(self, tag: str) -> Iterator[dict[str, Any]]:
        with gzip.open(self.path, "rt", encoding="utf-8") as handle:
            for number, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                record = _parse_line(line, self.path.name, number)
                if record.get("record") == tag:
                    yield record

    def _file_records(self, name: str) -> Iterator[dict[str, Any]]:
        path = self.path / name
        if not path.is_file():
            return
        with path.open("r", encoding="utf-8") as handle:
            for number, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                yield _parse_line(line, name, number)

    def _read_header(self) -> Any:
        if self.is_bundle:
            for record in self._bundle_records("header"):
                return {k: v for k, v in record.items() if k != "record"}
            raise CaptureFormatError(f"bundle {self.path.name} has no header record")
        try:
            return json.loads((self.path / HEADER_FILE).read_text())
        except ValueError:
            raise CaptureFormatError(
                f"unparsable capture header under {self.path}"
            ) from None

    def _read_footer(self) -> dict[str, Any] | None:
        if self.is_bundle:
            for record in self._bundle_records("footer"):
                return {k: v for k, v in record.items() if k != "record"}
            return None
        path = self.path / FOOTER_FILE
        if not path.is_file():
            return None
        try:
            footer = json.loads(path.read_text())
        except ValueError:
            raise CaptureIntegrityError(
                f"unparsable capture footer under {self.path}"
            ) from None
        if not isinstance(footer, dict):
            raise CaptureFormatError("capture footer must be a JSON object")
        return footer

    # ------------------------------------------------------------------
    # Content
    # ------------------------------------------------------------------

    @property
    def sealed(self) -> bool:
        """Whether the recorder finished cleanly (footer present)."""
        return self.footer is not None and bool(self.footer.get("sealed"))

    def require_sealed(self) -> None:
        """Raise the typed truncation error unless the capture sealed."""
        if not self.sealed:
            raise CaptureIntegrityError(
                f"capture {self.header.capture_id} is truncated: no footer "
                "(the recorder did not seal it)"
            )

    def iter_chunks(self) -> Iterator[CaptureChunk]:
        """Verified sample chunks, in recording order.

        Raises:
            CaptureIntegrityError: CRC mismatch, bad payload, or a
                sequence discontinuity (a dropped or re-ordered line).
        """
        where = SAMPLES_FILE if not self.is_bundle else self.path.name
        records = (
            self._bundle_records("chunk")
            if self.is_bundle
            else self._file_records(SAMPLES_FILE)
        )
        expected_seq = 0
        for record in records:
            chunk = _decode_chunk(record, where)
            if chunk.seq != expected_seq:
                raise CaptureIntegrityError(
                    f"chunk sequence jumps from {expected_seq} to {chunk.seq} "
                    f"in {where} (missing or re-ordered chunk)"
                )
            expected_seq += 1
            yield chunk

    def iter_events(self, kind: str | None = None) -> Iterator[dict[str, Any]]:
        """Manifest events in recording order, optionally one kind."""
        records = (
            self._bundle_records("event")
            if self.is_bundle
            else self._file_records(MANIFEST_FILE)
        )
        for record in records:
            if kind is None or record.get("kind") == kind:
                if self.is_bundle:
                    record = {k: v for k, v in record.items() if k != "record"}
                yield record

    def events(self, kind: str | None = None) -> list[dict[str, Any]]:
        """Manifest events as a list (small captures / tests)."""
        return list(self.iter_events(kind))

    def verify(self) -> dict[str, Any]:
        """Walk the whole capture, checking every record and the totals.

        Returns the verified totals (chunks, samples, events).

        Raises:
            CaptureIntegrityError: truncation, corrupt chunk, or a
                footer whose totals contradict the files.
        """
        self.require_sealed()
        num_chunks = 0
        num_samples = 0
        for chunk in self.iter_chunks():
            num_chunks += 1
            num_samples += len(chunk)
        num_events = sum(1 for _ in self.iter_events())
        assert self.footer is not None
        for name, counted in (
            ("num_chunks", num_chunks),
            ("num_samples", num_samples),
            ("num_events", num_events),
        ):
            stored = self.footer.get(name)
            if stored is not None and int(stored) != counted:
                raise CaptureIntegrityError(
                    f"capture {self.header.capture_id} footer claims "
                    f"{name}={stored} but the files hold {counted}"
                )
        return {
            "num_chunks": num_chunks,
            "num_samples": num_samples,
            "num_events": num_events,
        }


def write_bundle(reader: CaptureReader, dest: str | Path) -> Path:
    """Freeze a capture into a single compressed bundle file.

    The bundle interleaves nothing: header record, then every chunk,
    then every event, then the footer, each line tagged ``"record"``.
    ``mtime=0`` keeps the gzip byte-identical across rebuilds, so a
    promoted fixture diffs cleanly in review.

    Raises:
        CaptureIntegrityError: the source capture is truncated.
    """
    reader.require_sealed()
    dest = Path(dest)
    if not dest.name.endswith(BUNDLE_SUFFIX):
        raise CaptureFormatError(f"bundle name must end with {BUNDLE_SUFFIX}")
    dest.parent.mkdir(parents=True, exist_ok=True)
    # filename="" keeps the gzip FNAME field out of the header (and
    # mtime=0 the timestamp), so identical content means identical
    # bytes whatever the bundle is called.
    with dest.open("wb") as sink, gzip.GzipFile(
        filename="", mode="wb", fileobj=sink, mtime=0
    ) as raw:
        def write(record: dict[str, Any]) -> None:
            raw.write((_dump(record) + "\n").encode("utf-8"))

        write({"record": "header", **reader.header.to_dict()})
        where = "bundle source"
        records = (
            reader._bundle_records("chunk")
            if reader.is_bundle
            else reader._file_records(SAMPLES_FILE)
        )
        for record in records:
            _decode_chunk(record, where)  # verify before freezing
            write({"record": "chunk", **{k: v for k, v in record.items() if k != "record"}})
        for record in reader.iter_events():
            write({"record": "event", **{k: v for k, v in record.items() if k != "record"}})
        assert reader.footer is not None
        write({"record": "footer", **reader.footer})
    return dest
