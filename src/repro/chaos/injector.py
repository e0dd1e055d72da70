"""Applies a chaos schedule at the transport/runtime boundary.

Two injectors split the taxonomy by where the damage is done:

* :class:`ClientChaos` mangles a client's *outbound pushes* — the
  operation domain is the push index.  It never touches the socket
  itself; the resilient client (:mod:`repro.serve.resilient`) asks it
  what to do to push *n* and for the mangled bytes, then performs the
  writes/aborts, so the injector stays a pure, deterministic function
  of (schedule, seed, op).
* :class:`ServerChaos` stalls the *server's own runtime* — delayed
  scheduler ticks (exercising the watchdog's serial degraded path) and
  artificial reply latency (exercising client read timeouts).  Its
  operation domains are the tick index and the reply index.

Both keep an append-only ``log`` of every event actually applied,
mirroring :class:`repro.faults.injector.FaultInjector`.  A client log
is bit-for-bit reproducible across runs: the op domain is the push
index and every magnitude/choice comes from child generators seeded
``(seed, op, kind)``.  A server log is schedule-deterministic (same
seed, same planned events) but application-dependent — how many ticks
a run takes depends on load timing — which is why the chaos-soak
determinism gate compares client logs and schedules, not server
application logs (see DESIGN.md §11).

Corruption is deliberately *guaranteed-invalid*: a random bit flip in
a base64 samples field could decode to different-but-valid samples and
silently diverge the served columns, so :meth:`ClientChaos.corrupt`
only applies mutations a conforming server must reject (non-UTF-8
lead byte, broken JSON punctuation, an amputated closing brace).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.chaos.schedule import (
    CLIENT_KINDS,
    KIND_ORDER,
    SERVER_KINDS,
    ChaosEvent,
    ChaosKind,
    ChaosSchedule,
)
from repro.telemetry.context import get_telemetry


@dataclass(frozen=True)
class ChaosLogEntry:
    """One applied chaos action, as recorded by an injector."""

    op_index: int
    kind: ChaosKind
    detail: str

    def describe(self) -> str:
        return f"op {self.op_index} {self.kind.value}: {self.detail}"


class ClientChaos:
    """Deterministic push-mangling plan for one client session.

    Every decision — which corruption variant, where to cut a
    truncated frame, whether a disconnect strikes before or after the
    bytes went out — is drawn from a child generator seeded
    ``(seed, op_index, kind_index)``, so the applied log depends only
    on the schedule and the op sequence, never on timing.
    """

    def __init__(self, schedule: ChaosSchedule, seed: int):
        self.schedule = schedule
        self.seed = int(seed)
        self.log: list[ChaosLogEntry] = []
        self._by_op: dict[int, list[ChaosEvent]] = {}
        for event in schedule.events_of(CLIENT_KINDS):
            self._by_op.setdefault(event.op_index, []).append(event)

    def plan_for(self, op_index: int) -> list[ChaosEvent]:
        """The client-side events striking push ``op_index``."""
        return list(self._by_op.get(op_index, ()))

    def _rng(self, op_index: int, kind: ChaosKind) -> np.random.Generator:
        return np.random.default_rng(
            [self.seed, int(op_index), KIND_ORDER.index(kind)]
        )

    def record(self, op_index: int, kind: ChaosKind, detail: str) -> None:
        """Log one applied action (and count it in telemetry)."""
        self.log.append(ChaosLogEntry(op_index=op_index, kind=kind, detail=detail))
        telemetry = get_telemetry()
        if telemetry.enabled:
            telemetry.metrics.counter(f"chaos.client.{kind.value}").inc()

    # ------------------------------------------------------------------
    # Mangling primitives (pure; the resilient client does the I/O)
    # ------------------------------------------------------------------

    def corrupt(self, data: bytes, op_index: int) -> tuple[bytes, str]:
        """A guaranteed-invalid mutation of one encoded frame.

        Returns the corrupted line (newline framing preserved, so the
        server's reader recovers on the next line) and a detail string
        for the log.
        """
        variant = int(self._rng(op_index, ChaosKind.CORRUPT_FRAME).integers(0, 3))
        body = bytearray(data)
        if variant == 0:
            body[0] = 0xFF  # not valid UTF-8
            detail = "non-utf8 lead byte"
        elif variant == 1:
            body[0] = ord("#")  # not valid JSON
            detail = "broken JSON punctuation"
        else:
            # Drop the closing brace, keep the newline.
            brace = bytes(body).rfind(b"}")
            if brace >= 0:
                del body[brace]
            detail = "amputated closing brace"
        return bytes(body), detail

    def truncate(
        self, data: bytes, event: ChaosEvent
    ) -> tuple[bytes, str]:
        """The torn prefix of a frame (no newline — framing is lost)."""
        keep = max(1, int(len(data) * event.magnitude))
        keep = min(keep, len(data) - 1)  # never the full line
        torn = data[:keep]
        if torn.endswith(b"\n"):
            torn = torn[:-1]
        # Log the seeded fraction, not byte counts: frame length varies
        # with the width of the server-assigned session id, and the log
        # must be bit-identical across runs against a shared server.
        return torn, f"kept fraction {event.magnitude:.4f}"

    def oversize_frame(self, limit_bytes: int) -> tuple[bytes, str]:
        """A syntactically plausible frame just beyond the size limit."""
        prefix = b'{"type":"ping","pad":"'
        suffix = b'"}\n'
        pad = limit_bytes + 1 - len(prefix) - len(suffix)
        return (
            prefix + b"A" * max(pad, 1) + suffix,
            f"{limit_bytes + 1} bytes vs limit {limit_bytes}",
        )

    def disconnect_after_send(self, op_index: int) -> bool:
        """Whether a disconnect strikes after the push bytes went out.

        ``True`` is the nastier half: the server may have applied the
        push and the reply is lost, so resume idempotency (replay from
        the pre-push checkpoint) is what keeps the columns equal.
        """
        return bool(self._rng(op_index, ChaosKind.DISCONNECT).integers(0, 2))


class ServerChaos:
    """Self-inflicted runtime stalls for a chaos-mode server."""

    def __init__(self, schedule: ChaosSchedule):
        self.schedule = schedule
        self.log: list[ChaosLogEntry] = []
        self._tick_op = 0
        self._reply_op = 0
        self._by_op: dict[tuple[ChaosKind, int], list[ChaosEvent]] = {}
        for event in schedule.events_of(SERVER_KINDS):
            self._by_op.setdefault((event.kind, event.op_index), []).append(event)

    def _events(self, kind: ChaosKind, op: int) -> list[ChaosEvent]:
        # Re-apply the schedule modulo its horizon, so a long-lived
        # server keeps injecting however many ticks/replies it serves.
        if self.schedule.horizon_ops > 0:
            op = op % self.schedule.horizon_ops
        return self._by_op.get((kind, op), [])

    def _record(self, op: int, kind: ChaosKind, detail: str) -> None:
        self.log.append(ChaosLogEntry(op_index=op, kind=kind, detail=detail))
        telemetry = get_telemetry()
        if telemetry.enabled:
            telemetry.metrics.counter(f"chaos.server.{kind.value}").inc()
            telemetry.events.emit(
                "chaos.injected", kind=kind.value, op_index=op, detail=detail
            )

    async def before_tick(self) -> None:
        """Called by the scheduler loop before each tick; may stall it."""
        import asyncio

        op = self._tick_op
        self._tick_op += 1
        for event in self._events(ChaosKind.STALL_TICK, op):
            self._record(op, event.kind, f"stalled tick {event.magnitude:.3f}s")
            await asyncio.sleep(event.magnitude)

    async def before_reply(self) -> None:
        """Called by the server before each reply write; may delay it."""
        import asyncio

        op = self._reply_op
        self._reply_op += 1
        for event in self._events(ChaosKind.REPLY_LATENCY, op):
            self._record(op, event.kind, f"delayed reply {event.magnitude:.3f}s")
            await asyncio.sleep(event.magnitude)
