"""Shard worker processes: one :class:`SensingServer` per fork.

Each shard is a real OS process running its own event loop, scheduler,
per-process DSP steering cache, and backend selection — the whole
single-process serving stack, unmodified, behind an ephemeral
loopback port.  The parent (:mod:`repro.fleet.frontend`) learns the
bound port over a one-shot pipe handshake, then talks plain wire
protocol; worker shutdown is a SIGTERM that triggers the server's own
graceful drain.

Fork (where available) keeps worker start cheap — the numpy/scipy
import cost is paid once in the parent — and the spec stays picklable
so the spawn fallback works on platforms without fork.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import signal
import time
from dataclasses import dataclass
from multiprocessing.connection import Connection
from typing import Any

from repro.serve.server import SensingServer, ServeConfig

__all__ = ["WorkerSpec", "WorkerHandle", "start_worker"]

#: How long the parent waits for a freshly started worker to report
#: its bound port before declaring the start failed.
START_TIMEOUT_S = 30.0


def _mp_context():
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


@dataclass(frozen=True)
class WorkerSpec:
    """Everything a shard process needs to boot (picklable).

    Attributes:
        name: stable shard name — the identity the hash ring places
            points for.  A restarted worker keeps its predecessor's
            name, so the assignment function survives crashes.
        serve: the worker's :class:`ServeConfig`.  ``port`` should be 0
            (ephemeral) and ``idle_timeout_s`` ``None`` — the frontend
            holds pooled connections open between relays, and the
            client-facing idle deadline is enforced at the frontend.
        telemetry_dir: when set, the worker runs an enabled telemetry
            session writing into this directory (one subdirectory per
            shard) and flushes it on graceful shutdown.
        dsp_backend: when set, the worker selects this DSP backend
            process-wide before serving (per-shard backend selection).
    """

    name: str
    serve: ServeConfig
    telemetry_dir: str | None = None
    dsp_backend: str | None = None


def _worker_main(spec: WorkerSpec, conn: Connection) -> None:
    """Entry point of the shard process."""
    # A forked worker inherits the frontend's signal handlers and its
    # event loop's wakeup fd, which would report this process's signals
    # to the frontend's loop.  Drop both: SIGTERM gets its default until
    # the worker's own loop takes it over, and SIGINT is ignored (the
    # frontend coordinates shutdown via SIGTERM).
    signal.set_wakeup_fd(-1)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    if spec.dsp_backend is not None:
        from repro.dsp.backend import use_backend

        use_backend(spec.dsp_backend)
    telemetry = None
    if spec.telemetry_dir is not None:
        from repro.telemetry import configure

        telemetry = configure(out_dir=spec.telemetry_dir)
    try:
        asyncio.run(_serve(spec, conn))
    finally:
        if telemetry is not None:
            telemetry.flush()


async def _serve(spec: WorkerSpec, conn: Connection) -> None:
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    loop.add_signal_handler(signal.SIGTERM, stop.set)
    server = SensingServer(spec.serve)
    try:
        port = await server.start()
    except OSError as exc:
        conn.send({"error": f"{type(exc).__name__}: {exc}"})
        conn.close()
        return
    conn.send({"port": port, "pid": os.getpid()})
    conn.close()
    await stop.wait()
    await server.shutdown()


class WorkerHandle:
    """The parent's view of one shard process."""

    def __init__(self, spec: WorkerSpec):
        self.spec = spec
        self.port: int = 0
        self.process: Any = None
        self._conn: Connection | None = None

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def pid(self) -> int | None:
        return self.process.pid if self.process is not None else None

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()

    async def start(self) -> int:
        """Fork the shard, await its port handshake, return the port."""
        ctx = _mp_context()
        parent_conn, child_conn = ctx.Pipe(duplex=False)
        self.process = ctx.Process(
            target=_worker_main,
            args=(self.spec, child_conn),
            name=f"repro-fleet-{self.spec.name}",
            daemon=True,
        )
        self.process.start()
        # The child owns its end now; closing ours makes a crashed
        # child observable as EOF instead of a hang.
        child_conn.close()
        self._conn = parent_conn
        deadline = time.monotonic() + START_TIMEOUT_S
        while not parent_conn.poll(0):
            if not self.process.is_alive():
                raise RuntimeError(
                    f"shard {self.name} died before reporting its port "
                    f"(exitcode {self.process.exitcode})"
                )
            if time.monotonic() > deadline:
                self.process.kill()
                raise RuntimeError(
                    f"shard {self.name} did not report a port within "
                    f"{START_TIMEOUT_S:.0f}s"
                )
            await asyncio.sleep(0.01)
        handshake = parent_conn.recv()
        parent_conn.close()
        self._conn = None
        if "error" in handshake:
            raise RuntimeError(
                f"shard {self.name} failed to bind: {handshake['error']}"
            )
        self.port = int(handshake["port"])
        return self.port

    async def stop(self, timeout_s: float = 15.0) -> None:
        """SIGTERM the shard (graceful drain) and reap it."""
        if self.process is None:
            return
        if self.process.is_alive():
            self.process.terminate()
        await self.join(timeout_s)
        if self.process.is_alive():  # pragma: no cover - drain hang
            self.process.kill()
            await self.join(5.0)

    def kill(self) -> None:
        """SIGKILL the shard (crash simulation / last resort)."""
        if self.process is not None and self.process.is_alive():
            self.process.kill()

    async def join(self, timeout_s: float) -> None:
        """Await process exit without blocking the event loop."""
        if self.process is None:
            return
        deadline = time.monotonic() + timeout_s
        while self.process.is_alive() and time.monotonic() < deadline:
            await asyncio.sleep(0.02)
        if not self.process.is_alive():
            self.process.join(timeout=0)


async def start_worker(spec: WorkerSpec) -> WorkerHandle:
    """Boot one shard and return its handle once the port is known."""
    handle = WorkerHandle(spec)
    await handle.start()
    return handle
