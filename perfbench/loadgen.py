"""The load generator: one process, at most ``nproc`` connections, one thread.

It speaks the NDJSON wire through :mod:`repro.serve.protocol` and
drives ``repro serve`` or ``repro fleet`` in one of two ways:

* **closed loop** (``serve-bulk``, ``fleet-bulk``): each connection
  round-robins its session slots, sending a slot's next push only once
  the previous request on that connection was answered.  A slot whose
  trace runs out closes its session and opens one on the next trace.
* **open loop** (``serve-realtime``): every device pushes one hop at a
  fixed phase of each 80 ms period, whether or not earlier pushes were
  answered; requests are pipelined on the connections and replies,
  which the server sends in order per connection, are matched first in
  first out.

Every request records when it was due, sent and answered.  Replies are
decoded on arrival (to see errors at once) and their columns are
checked against the offline reference after the run, off the clock.
"""

from __future__ import annotations

import asyncio
import collections
import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from inputs import BULK_PUSH_SAMPLES, CONFIG, HOP_S, Device, Stream, columns_after
from repro.errors import ProtocolError
from repro.serve import protocol

#: How long the generator waits for outstanding replies after the last send.
DRAIN_GRACE_S = 20.0


@dataclass
class Request:
    """One request and what became of it."""

    kind: str
    due: float
    session: "Session | None" = None
    samples: int = 0
    sent: float = 0.0
    done: float = 0.0
    reply: dict[str, Any] | None = None
    error: str | None = None
    future: asyncio.Future | None = None

    @property
    def columns(self) -> int:
        return len(self.reply.get("columns", ())) if self.reply else 0


@dataclass
class Session:
    """One wire session: the stream it plays and the replies it received."""

    stream: Stream
    conn: int = 0
    routing_key: str | None = None
    session_id: str | None = None
    pushed: int = 0
    seq: int = 0
    pushes: list[Request] = field(default_factory=list)
    dead: bool = False

    def open_frame(self) -> dict[str, Any]:
        frame: dict[str, Any] = {
            "type": protocol.OPEN_SESSION,
            "use_music": self.stream.use_music,
            "start_time_s": 0.0,
        }
        if self.stream.resumable:
            frame["resumable"] = True
        if self.routing_key is not None:
            frame["routing_key"] = self.routing_key
        return frame

    def push_frame(self, block: np.ndarray) -> bytes:
        self.seq += 1
        return protocol.encode_frame(
            {
                "type": protocol.PUSH_BLOCKS,
                "session": self.session_id,
                "seq": self.seq,
                "samples": protocol.encode_samples(block),
            }
        )


class Connection:
    """One socket with a first-in-first-out queue of outstanding requests."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self.reader = reader
        self.writer = writer
        self.outstanding: collections.deque[Request] = collections.deque()
        self.task: asyncio.Task | None = None

    @classmethod
    async def open(cls, host: str, port: int) -> "Connection":
        reader, writer = await asyncio.open_connection(
            host, port, limit=protocol.MAX_FRAME_BYTES
        )
        conn = cls(reader, writer)
        conn.task = asyncio.create_task(conn._read_replies())
        return conn

    def send(self, request: Request, data: bytes) -> None:
        """Queue ``data`` on the socket without waiting (open loop never blocks)."""
        request.sent = time.perf_counter()
        self.outstanding.append(request)
        self.writer.write(data)

    async def exchange(self, request: Request, data: bytes, timeout_s: float) -> Request:
        """Send and wait for the reply (closed loop)."""
        request.future = asyncio.get_running_loop().create_future()
        self.send(request, data)
        try:
            await asyncio.wait_for(asyncio.shield(request.future), timeout_s)
        except asyncio.TimeoutError:
            request.error = request.error or "Timeout"
        return request

    async def _read_replies(self) -> None:
        try:
            while True:
                line = await self.reader.readline()
                now = time.perf_counter()
                if not line:
                    break
                if not self.outstanding:
                    raise ProtocolError("reply with no outstanding request")
                request = self.outstanding.popleft()
                request.done = now
                try:
                    reply = protocol.decode_frame(line)
                except ProtocolError:
                    request.error = "ProtocolError"
                else:
                    if reply.get("type") == protocol.ERROR:
                        request.error = str(reply.get("error", "ReproError"))
                    request.reply = reply
                if request.error is not None and request.session is not None:
                    request.session.dead = True
                if request.future is not None and not request.future.done():
                    request.future.set_result(None)
        except (ConnectionError, OSError, ProtocolError):
            pass
        finally:
            while self.outstanding:
                request = self.outstanding.popleft()
                request.error = request.error or "ConnectionError"
                if request.future is not None and not request.future.done():
                    request.future.set_result(None)

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass
        if self.task is not None:
            await self.task


@dataclass
class Phases:
    """Wall-clock edges of the run: warm-up [start, t0), timed [t0, t1)."""

    start: float
    t0: float
    t1: float

    def of(self, when: float) -> str:
        if when < self.t0:
            return "warmup"
        return "timed" if when < self.t1 else "drain"

    def cuts(self, chunks: int) -> list[float]:
        """``chunks + 1`` evenly spaced times from ``t0`` to ``t1``."""
        step = (self.t1 - self.t0) / chunks
        return [self.t0 + i * step for i in range(chunks)] + [self.t1]


@dataclass
class LoadResult:
    """Everything the generator saw; the run turns it into metrics."""

    phases: Phases
    requests: list[Request]
    sessions: list[Session]
    stats: dict[str, dict[str, Any]]
    open_loop: bool


def bulk_slots(streams: list[Stream], seed: int, keyed: bool):
    """Closed-loop session slots: slot ``s`` plays pool trace ``(s + c) % P`` in cycle ``c``."""

    def make(slot: int, cycle: int, conn: int) -> Session:
        key = f"perfbench-{seed}-{slot}-{cycle}" if keyed else None
        return Session(
            stream=streams[(slot + cycle) % len(streams)], conn=conn, routing_key=key
        )

    return make


async def _edges(phases: Phases, chunks: int, on_edge) -> None:
    """Call ``on_edge()`` at each of the timed phase's ``chunks + 1`` cuts."""
    for when in phases.cuts(chunks):
        delay = when - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        on_edge()


async def _request(conn: Connection, kind: str, frame: dict, session=None) -> Request:
    request = Request(kind=kind, due=time.perf_counter(), session=session)
    return await conn.exchange(request, protocol.encode_frame(frame), DRAIN_GRACE_S)


async def _open(conn: Connection, session: Session, log: list[Request]) -> bool:
    request = await _request(conn, "open", session.open_frame(), session)
    log.append(request)
    if request.error is None:
        session.session_id = request.reply.get("session")
    return request.error is None


async def run_closed(
    host: str,
    port: int,
    connections: int,
    slots: int,
    make_session,
    warmup_s: float,
    seconds: float,
    chunks: int,
    on_edge,
) -> LoadResult:
    """Closed loop: each connection round-robins its slots until the clock runs out."""
    conns = [await Connection.open(host, port) for _ in range(connections)]
    log: list[Request] = []
    sessions: list[Session] = []
    stats: dict[str, dict] = {}
    start = time.perf_counter()
    phases = Phases(start, start + warmup_s, start + warmup_s + seconds)
    edges = asyncio.create_task(_edges(phases, chunks, on_edge))

    async def drive(index: int, conn: Connection) -> None:
        mine = list(range(index, slots, connections))
        cycles = {slot: 0 for slot in mine}
        current: dict[int, Session] = {}
        taken = set()
        while True:
            for slot in mine:
                now = time.perf_counter()
                if index == 0:
                    for edge, when in (("t0", phases.t0), ("t1", phases.t1)):
                        if edge not in taken and now >= when:
                            taken.add(edge)
                            stats[edge] = await _stats(conn)
                if now >= phases.t1:
                    return
                session = current.get(slot)
                if session is None:
                    session = make_session(slot, cycles[slot], index)
                    cycles[slot] += 1
                    sessions.append(session)
                    if not await _open(conn, session, log):
                        session.dead = True
                        continue
                    current[slot] = session
                block = session.stream.samples[
                    session.pushed : session.pushed + BULK_PUSH_SAMPLES
                ]
                request = Request(
                    kind="push",
                    due=time.perf_counter(),
                    session=session,
                    samples=len(block),
                )
                await conn.exchange(request, session.push_frame(block), DRAIN_GRACE_S)
                log.append(request)
                session.pushes.append(request)
                if request.error is not None:
                    del current[slot]
                    continue
                session.pushed += len(block)
                if session.pushed >= len(session.stream.samples):
                    del current[slot]
                    log.append(
                        await _request(
                            conn,
                            "close",
                            {"type": protocol.CLOSE_SESSION, "session": session.session_id},
                            session,
                        )
                    )

    await asyncio.gather(*(drive(i, conn) for i, conn in enumerate(conns)))
    await edges
    for session in sessions:
        if session.session_id is not None and not session.dead and session.pushed < len(
            session.stream.samples
        ):
            # Still open when the clock ran out: close it, off the clock.
            await _request(
                conns[session.conn],
                "close",
                {"type": protocol.CLOSE_SESSION, "session": session.session_id},
            )
    for conn in conns:
        await conn.close()
    return LoadResult(
        phases=phases,
        requests=log,
        sessions=sessions,
        stats=stats,
        open_loop=False,
    )


async def _stats(conn: Connection) -> dict[str, Any]:
    request = await _request(conn, "stats", {"type": protocol.SERVER_STATS})
    return request.reply or {}


async def run_open(
    host: str,
    port: int,
    connections: int,
    devices: list[Device],
    warmup_s: float,
    seconds: float,
    chunks: int,
    on_edge,
) -> LoadResult:
    """Open loop: every device pushes one hop per 80 ms on its own phase."""
    conns = [await Connection.open(host, port) for _ in range(connections)]
    log: list[Request] = []
    sessions = [
        Session(stream=device.stream, conn=device.index % connections) for device in devices
    ]
    for session in sessions:
        if not await _open(conns[session.conn], session, log):
            session.dead = True
    # Frames are encoded ahead of the schedule, so sending costs the
    # generator one socket write.
    pushes = len(devices[0].stream.samples) // CONFIG.hop
    frames = [
        [
            session.push_frame(session.stream.samples[k * CONFIG.hop : (k + 1) * CONFIG.hop])
            for k in range(pushes)
        ]
        for session in sessions
    ]
    start = time.perf_counter() + 0.05
    phases = Phases(start, start + warmup_s, start + warmup_s + seconds)
    edges = asyncio.create_task(_edges(phases, chunks, on_edge))
    schedule = sorted(
        (start + device.phase_s + k * HOP_S, k, device.index)
        for device in devices
        for k in range(pushes)
        if start + device.phase_s + k * HOP_S < phases.t1
    )
    t0_stats: Request | None = None
    for due, k, index in schedule:
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        if t0_stats is None and due >= phases.t0:
            t0_stats = Request(kind="stats", due=due)
            conns[0].send(t0_stats, protocol.encode_frame({"type": protocol.SERVER_STATS}))
        session = sessions[index]
        if session.dead:
            continue
        request = Request(
            kind="push", due=due, session=session, samples=CONFIG.hop
        )
        conns[session.conn].send(request, frames[index][k])
        log.append(request)
        session.pushes.append(request)
    deadline = time.perf_counter() + DRAIN_GRACE_S
    while any(conn.outstanding for conn in conns) and time.perf_counter() < deadline:
        await asyncio.sleep(0.005)
    await edges
    for conn in conns:
        for request in conn.outstanding:
            request.error = request.error or "Timeout"
    stats = {"t0": t0_stats.reply or {} if t0_stats else {}, "t1": await _stats(conns[0])}
    for session in sessions:
        if session.session_id is not None and not session.dead:
            await _request(
                conns[session.conn],
                "close",
                {"type": protocol.CLOSE_SESSION, "session": session.session_id},
            )
    for conn in conns:
        await conn.close()
    return LoadResult(
        phases=phases,
        requests=log,
        sessions=sessions,
        stats=stats,
        open_loop=True,
    )


def verify(result: LoadResult) -> tuple[int, int]:
    """Check every received column against the offline reference.

    Returns ``(columns_checked, diverged)``.  A column whose power or
    estimator differs in any bit from the reference has diverged.  A
    push whose reply carries other than the columns its samples
    completed is marked failed with ``IncompleteStream``.
    """
    checked = diverged = 0
    for session in result.sessions:
        reference = session.stream
        pushed = 0
        for request in session.pushes:
            if request.error is not None:
                continue
            expected = columns_after(pushed + request.samples) - columns_after(pushed)
            first = columns_after(pushed)
            pushed += request.samples
            columns = request.reply.get("columns", [])
            if len(columns) != expected:
                request.error = "IncompleteStream"
            for offset, payload in enumerate(columns):
                checked += 1
                column = protocol.column_from_wire(payload)
                row = first + offset
                if (
                    column.index != row
                    or row >= len(reference.power)
                    or column.estimator != reference.estimators[row]
                    or not np.array_equal(column.power, reference.power[row])
                ):
                    diverged += 1
    return checked, diverged
