"""The retention-managed capture store.

A store is a directory of capture directories (one per
:mod:`repro.capture.format` capture) plus an always-on audit log.
It answers the operational questions a recording deployment raises:

* **Where do captures go?**  ``store.create(...)`` mints a unique
  capture id, stamps the header (created time, git SHA, seed, config
  snapshot) and hands back a streaming writer.
* **How do they not eat the disk?**  :class:`RetentionPolicy` bounds
  the store three ways — capture count, total bytes, and age — and
  :meth:`CaptureStore.prune` enforces it oldest-first.  Removal is
  atomic: a capture is renamed to a dot-prefixed tombstone (one
  ``rename``, so no reader ever sees a half-deleted capture) before
  its files go.  Unsealed captures are never pruned — one may be a
  recording in progress.
* **Who touched what?**  Every create/read/prune/list appends one
  NDJSON line to ``<root>/audit.ndjson`` *and* mirrors the record
  through :mod:`repro.telemetry` as a ``capture.audit`` event when
  telemetry is enabled.  The file is the durable trail; the telemetry
  mirror joins the store's activity to the run's trace/span picture.
"""

from __future__ import annotations

import json
import shutil
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator

try:  # pragma: no cover - always present on POSIX
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None  # type: ignore[assignment]

from repro.capture.format import (
    FOOTER_FILE,
    HEADER_FILE,
    CaptureHeader,
    CaptureReader,
    CaptureWriter,
    git_sha,
)
from repro.core.tracking import TrackingConfig
from repro.capture.format import config_to_snapshot
from repro.dsp.backend import active_backend_name
from repro.errors import CaptureFormatError, CaptureNotFoundError
from repro.telemetry.context import get_telemetry

AUDIT_FILE = "audit.ndjson"

#: Store-wide advisory lock file.  Every mutation that must be atomic
#: across *processes* — capture-id mint + writer construction, audit
#: appends, prune renames — runs under an exclusive ``flock`` on it,
#: so N fleet shard workers can share one ``--record`` store.
STORE_LOCK_FILE = ".store.lock"

#: Tombstone prefix of a capture mid-removal (never listed, swept on
#: the next prune).
_TOMBSTONE_PREFIX = ".prune-"


@dataclass(frozen=True)
class RetentionPolicy:
    """Bounds the store enforces on :meth:`CaptureStore.prune`.

    ``None`` disables a bound.  Attributes:
        max_captures: keep at most this many sealed captures.
        max_total_bytes: keep the store's total size under this.
        max_age_s: drop sealed captures older than this.
    """

    max_captures: int | None = None
    max_total_bytes: int | None = None
    max_age_s: float | None = None

    def __post_init__(self) -> None:
        if self.max_captures is not None and self.max_captures < 0:
            raise ValueError("max_captures cannot be negative")
        if self.max_total_bytes is not None and self.max_total_bytes < 0:
            raise ValueError("max_total_bytes cannot be negative")
        if self.max_age_s is not None and self.max_age_s < 0:
            raise ValueError("max_age_s cannot be negative")

    @property
    def unbounded(self) -> bool:
        return (
            self.max_captures is None
            and self.max_total_bytes is None
            and self.max_age_s is None
        )


@dataclass(frozen=True)
class CaptureInfo:
    """One store entry as the listing reports it."""

    capture_id: str
    created_ts: float
    num_bytes: int
    sealed: bool
    source: str
    path: Path


class CaptureStore:
    """A directory of captures with retention and an audit trail.

    Args:
        root: the store directory (created if absent).
        policy: the default retention policy :meth:`prune` applies.
        clock: wall-clock seconds source — injectable so retention
            tests can age captures without sleeping.
    """

    def __init__(
        self,
        root: str | Path,
        policy: RetentionPolicy | None = None,
        clock: Callable[[], float] = time.time,
    ):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.policy = policy if policy is not None else RetentionPolicy()
        self._clock = clock
        self._id_counter = 0
        self._lock_depth = 0

    # ------------------------------------------------------------------
    # Cross-process serialization
    # ------------------------------------------------------------------

    @contextmanager
    def _lock(self) -> Iterator[None]:
        """Exclusive advisory lock over the store directory.

        Reentrant within one store instance (``create`` audits while
        already holding the lock; ``flock`` on a second fd of the same
        file would self-deadlock).  Where ``fcntl`` is unavailable the
        lock degrades to a no-op — single-writer stores are unaffected,
        and multi-process recording is a POSIX deployment anyway.
        """
        self._lock_depth += 1
        try:
            if self._lock_depth > 1 or fcntl is None:
                yield
                return
            with (self.root / STORE_LOCK_FILE).open("a") as handle:
                fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
                try:
                    yield
                finally:
                    fcntl.flock(handle.fileno(), fcntl.LOCK_UN)
        finally:
            self._lock_depth -= 1

    # ------------------------------------------------------------------
    # Audit
    # ------------------------------------------------------------------

    def _audit(self, action: str, capture_id: str | None, **fields: Any) -> None:
        record: dict[str, Any] = {
            "ts": round(float(self._clock()), 6),
            "action": action,
        }
        if capture_id is not None:
            record["capture_id"] = capture_id
        record.update(fields)
        with self._lock():
            with (self.root / AUDIT_FILE).open("a", encoding="utf-8") as handle:
                handle.write(json.dumps(record, separators=(",", ":")) + "\n")
        telemetry = get_telemetry()
        if telemetry.enabled:
            telemetry.events.emit("capture.audit", **record)

    def audit_records(self) -> list[dict[str, Any]]:
        """The audit trail, oldest first (small file; ops and tests)."""
        path = self.root / AUDIT_FILE
        if not path.is_file():
            return []
        records = []
        with path.open("r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if line:
                    records.append(json.loads(line))
        return records

    # ------------------------------------------------------------------
    # Creation
    # ------------------------------------------------------------------

    def new_capture_id(self) -> str:
        """A store-unique, time-sortable capture id."""
        while True:
            stamp = int(self._clock() * 1000)
            capture_id = f"cap-{stamp:013d}-{self._id_counter:03d}"
            self._id_counter += 1
            if not (self.root / capture_id).exists():
                return capture_id

    def create(
        self,
        source: str,
        config: TrackingConfig,
        sample_rate_hz: float,
        seed: int | None = None,
        use_music: bool = True,
        start_time_s: float = 0.0,
        dsp_backend: str | None = None,
        extra: dict[str, Any] | None = None,
        capture_id: str | None = None,
    ) -> CaptureWriter:
        """Mint a capture and return its streaming writer.

        The header is stamped here — id, creation time, git SHA,
        config snapshot, active DSP backend — so every recording tap
        writes provenance without knowing about the store.
        ``dsp_backend`` defaults to the process-wide active backend.
        """
        with self._lock():
            # Mint and mkdir under one lock span: the id's uniqueness
            # check is only meaningful if the directory exists before
            # any concurrent writer re-runs the check.
            if capture_id is None:
                capture_id = self.new_capture_id()
            if not capture_id or "/" in capture_id or capture_id.startswith("."):
                raise CaptureFormatError(f"invalid capture id {capture_id!r}")
            header = CaptureHeader(
                capture_id=capture_id,
                created_ts=float(self._clock()),
                git_sha=git_sha(),
                seed=seed,
                sample_rate_hz=float(sample_rate_hz),
                source=source,
                config=config_to_snapshot(config),
                use_music=use_music,
                start_time_s=start_time_s,
                dsp_backend=(
                    dsp_backend
                    if dsp_backend is not None
                    else active_backend_name()
                ),
                extra=dict(extra or {}),
            )
            writer = CaptureWriter(self.root / capture_id, header)
            self._audit("create", capture_id, source=source, seed=seed)
        return writer

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def _info(self, path: Path) -> CaptureInfo | None:
        header_path = path / HEADER_FILE
        if not header_path.is_file():
            return None
        try:
            header = CaptureHeader.from_dict(json.loads(header_path.read_text()))
        except (ValueError, CaptureFormatError):
            return None
        num_bytes = sum(
            entry.stat().st_size for entry in path.iterdir() if entry.is_file()
        )
        return CaptureInfo(
            capture_id=header.capture_id,
            created_ts=header.created_ts,
            num_bytes=num_bytes,
            sealed=(path / FOOTER_FILE).is_file(),
            source=header.source,
            path=path,
        )

    def list_captures(self, audit: bool = True) -> list[CaptureInfo]:
        """Every readable capture, oldest first."""
        infos = []
        for path in sorted(self.root.iterdir()):
            if not path.is_dir() or path.name.startswith("."):
                continue
            info = self._info(path)
            if info is not None:
                infos.append(info)
        infos.sort(key=lambda info: (info.created_ts, info.capture_id))
        if audit:
            self._audit("list", None, captures=len(infos))
        return infos

    def total_bytes(self) -> int:
        return sum(info.num_bytes for info in self.list_captures(audit=False))

    def open(self, capture_id: str) -> CaptureReader:
        """Open a capture for reading (audited).

        Raises:
            CaptureNotFoundError: no such capture in this store.
        """
        path = self.root / capture_id
        if not (path / HEADER_FILE).is_file():
            raise CaptureNotFoundError(
                f"store {self.root} has no capture {capture_id!r}"
            )
        reader = CaptureReader(path)
        self._audit("read", capture_id)
        return reader

    # ------------------------------------------------------------------
    # Retention
    # ------------------------------------------------------------------

    def _remove(self, info: CaptureInfo, reason: str) -> None:
        # Atomic removal: one rename makes the capture invisible to
        # every reader at once; deleting the tombstone's files can then
        # take as long as it likes (or crash — the sweep below finishes
        # the job on the next prune).
        tombstone = self.root / f"{_TOMBSTONE_PREFIX}{info.capture_id}"
        info.path.rename(tombstone)
        self._audit(
            "prune",
            info.capture_id,
            reason=reason,
            num_bytes=info.num_bytes,
            created_ts=info.created_ts,
        )
        shutil.rmtree(tombstone, ignore_errors=True)

    def _sweep_tombstones(self) -> None:
        for path in self.root.iterdir():
            if path.is_dir() and path.name.startswith(_TOMBSTONE_PREFIX):
                shutil.rmtree(path, ignore_errors=True)

    def prune(self, policy: RetentionPolicy | None = None) -> list[CaptureInfo]:
        """Enforce retention; returns the captures removed, oldest first.

        Age violations go first, then the oldest sealed captures until
        both the count and the byte bounds hold.  Unsealed captures are
        never removed (one may be a recording in progress) but still
        count against the byte bound — an abandoned half-capture
        cannot silently exempt the store from its budget.
        """
        policy = policy if policy is not None else self.policy
        with self._lock():
            return self._prune_locked(policy)

    def _prune_locked(self, policy: RetentionPolicy) -> list[CaptureInfo]:
        self._sweep_tombstones()
        if policy.unbounded:
            return []
        removed: list[CaptureInfo] = []
        infos = self.list_captures(audit=False)
        now = float(self._clock())

        def survivors() -> list[CaptureInfo]:
            return [info for info in infos if info not in removed]

        if policy.max_age_s is not None:
            for info in infos:
                if info.sealed and now - info.created_ts > policy.max_age_s:
                    self._remove(info, "age")
                    removed.append(info)
        if policy.max_captures is not None:
            keep = survivors()
            excess = len([i for i in keep if i.sealed]) - policy.max_captures
            for info in keep:
                if excess <= 0:
                    break
                if info.sealed:
                    self._remove(info, "count")
                    removed.append(info)
                    excess -= 1
        if policy.max_total_bytes is not None:
            keep = survivors()
            total = sum(info.num_bytes for info in keep)
            for info in keep:
                if total <= policy.max_total_bytes:
                    break
                if info.sealed:
                    self._remove(info, "bytes")
                    removed.append(info)
                    total -= info.num_bytes
        return removed
