"""Cross-session micro-batching of MUSIC windows — the serving core.

The continuous-batching pattern from inference serving, applied to the
Wi-Vi DSP hot path: every active session's completed windows land in
one bounded admission queue, and each scheduler *tick* drains up to
``max_batch_windows`` compatible windows — across sessions — into one
contiguous stack for a single :func:`repro.core.tracking.
estimate_windows_batch` pass (one smoothed-covariance matmul, one
stacked ``eigh``, one masked pseudospectrum projection).  The PR-4
batch-stability contract makes this free of correctness cost: each
window's row is bit-identical whether it is estimated alone, inside
its own session's batch, or sandwiched between two other tenants'
windows.

Batching happens naturally under load without timers: the batch
computation itself blocks the event loop, during which every pending
client push accumulates in socket buffers; when the tick finishes and
the loop turns, all of those pushes enqueue their windows before the
next tick drains them.  An idle scheduler sleeps on an event and adds
no latency to a lone window.

Three policies round out the serving story:

* **Admission** — the queue is bounded; :meth:`MicroBatchScheduler.
  admit` answers whether a push's windows fit *before* the session
  buffers a sample, so shedding never desynchronizes a tracker.
* **Load shedding** — a push that does not fit is refused whole with
  :class:`~repro.errors.ServeOverloadError`; the shed windows are
  counted, never silently dropped mid-window.
* **Graceful drain** — shutdown stops admissions, runs ticks until
  the queue is empty, and only then lets the server close, so every
  admitted window is answered.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.core.tracking import (
    ESTIMATOR_BEAMFORMING,
    SpectrogramFrame,
    TrackingConfig,
    estimate_windows_batch,
)
from repro.dsp.spectrum import beamform_batch
from repro.dsp.steering import steering_matrix
from repro.errors import ServeOverloadError
from repro.telemetry.context import get_telemetry
from repro.telemetry.metrics import Histogram

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.tracker import PendingWindow

#: Batch-occupancy histogram edges (windows per tick).
OCCUPANCY_BUCKETS: tuple[float, ...] = (1, 2, 4, 8, 16, 32, 64, 128, 256)

#: Windows waiting longer than this with no tick completing trip the
#: watchdog, which degrades to per-session serial DSP compute (one
#: window per pass) until batch ticks resume: the device's degraded
#: mode applied to the scheduler.  The watchdog shares the event
#: loop, so it covers ticks stalled *at an await* (injected chaos
#: stalls, wakeup bugs); a tick stalled inside a blocking numpy call
#: stalls the whole loop and no in-process watchdog can help.
WATCHDOG_TIMEOUT_S = 2.0


@dataclass(frozen=True)
class SchedulerConfig:
    """Knobs of the micro-batching scheduler.

    Attributes:
        max_batch_windows: most windows one tick stacks (1 turns the
            scheduler into the per-window serial-dispatch baseline the
            load benchmark compares against).
        queue_capacity: admission bound — total windows that may wait
            across all sessions before pushes are shed.

    The watchdog is always on; its timeout is
    :data:`WATCHDOG_TIMEOUT_S`.
    """

    max_batch_windows: int = 64
    queue_capacity: int = 512

    def __post_init__(self) -> None:
        if self.max_batch_windows < 1:
            raise ValueError(f"max_batch_windows must be positive, got {self.max_batch_windows}")
        if self.queue_capacity < self.max_batch_windows:
            raise ValueError(
                f"queue_capacity must hold at least one full batch of "
                f"{self.max_batch_windows} windows, got {self.queue_capacity}"
            )


@dataclass
class _Entry:
    """One queued window: its batch group, payload, and completion."""

    key: tuple[TrackingConfig, bool]
    config: TrackingConfig
    use_music: bool
    window: np.ndarray
    future: asyncio.Future


@dataclass
class SchedulerStats:
    """Always-on accounting (no telemetry session required)."""

    ticks: int = 0
    windows: int = 0
    shed_windows: int = 0
    max_queue_depth: int = 0
    watchdog_activations: int = 0
    serial_windows: int = 0
    occupancy: Histogram = field(
        default_factory=lambda: Histogram("serve.batch_windows", OCCUPANCY_BUCKETS)
    )

    @property
    def mean_batch_windows(self) -> float:
        return self.windows / self.ticks if self.ticks else 0.0


class MicroBatchScheduler:
    """Drains ready windows from all sessions into stacked DSP passes.

    Windows batch together when they share a *group key* — the frozen
    :class:`TrackingConfig` plus the MUSIC/beamforming choice — since a
    stack must agree on window size, smoothing geometry, and estimator.
    A tick serves the oldest queued group first and sweeps the whole
    queue for its key, so two interleaved tenants with the same config
    share every tick while a third, differently-configured tenant
    simply forms its own batches.  Per-session window order survives
    because one session maps to exactly one key.
    """

    def __init__(self, config: SchedulerConfig | None = None, chaos=None, hub=None):
        self.config = config if config is not None else SchedulerConfig()
        #: Optional :class:`repro.chaos.ServerChaos`; its ``before_tick``
        #: hook runs (and may stall) ahead of every batch tick.
        self.chaos = chaos
        #: Optional :class:`repro.observe.hub.TelemetryHub` tap for
        #: shed pushes and watchdog degradations; never blocks.
        self.hub = hub
        self.stats = SchedulerStats()
        self._queue: list[_Entry] = []
        self._wakeup = asyncio.Event()
        self._task: asyncio.Task | None = None
        self._watchdog_task: asyncio.Task | None = None
        self._watchdog_stop = asyncio.Event()
        self._last_progress = 0.0
        self._draining = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    @property
    def running(self) -> bool:
        return self._task is not None and not self._task.done()

    def start(self) -> None:
        """Launch the tick loop (and watchdog) on the running event loop."""
        if self.running:
            raise RuntimeError("scheduler is already running")
        self._draining = False
        self._last_progress = time.monotonic()
        self._task = asyncio.create_task(self._run(), name="serve-scheduler")
        self._watchdog_stop.clear()
        self._watchdog_task = asyncio.create_task(
            self._watchdog(), name="serve-scheduler-watchdog"
        )

    async def drain(self) -> None:
        """Graceful shutdown: refuse new work, finish everything queued.

        Every already-admitted window still gets its frame; only then
        does the tick loop exit.  Idempotent.
        """
        self._draining = True
        self._wakeup.set()
        if self._task is not None:
            await self._task
            self._task = None
        if self._watchdog_task is not None:
            # Ask, don't cancel: the watchdog may be mid serial-drain
            # and owns futures it must complete before exiting.
            self._watchdog_stop.set()
            await self._watchdog_task
            self._watchdog_task = None

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------

    def admit(self, num_windows: int) -> bool:
        """Whether ``num_windows`` more windows fit the admission queue."""
        if self._draining:
            return False
        return len(self._queue) + num_windows <= self.config.queue_capacity

    def shed(self, num_windows: int) -> ServeOverloadError:
        """Account a refused push; returns the error to send the client."""
        self.stats.shed_windows += num_windows
        if self.hub is not None:
            self.hub.publish(
                "serve.shed", windows=num_windows, queue_depth=len(self._queue)
            )
        return ServeOverloadError(
            f"admission queue at {len(self._queue)}/{self.config.queue_capacity} "
            f"windows cannot absorb {num_windows} more; retry later"
        )

    def submit(
        self, config: TrackingConfig, use_music: bool, pending: "PendingWindow"
    ) -> asyncio.Future:
        """Queue one ready window; the future resolves to its frame.

        Callers must have cleared :meth:`admit` for the whole push
        first — submit itself refuses (raises
        :class:`ServeOverloadError`) only as a backstop.
        """
        if self._draining or len(self._queue) >= self.config.queue_capacity:
            raise self.shed(1)
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._queue.append(
            _Entry(
                key=(config, use_music),
                config=config,
                use_music=use_music,
                window=pending.samples,
                future=future,
            )
        )
        self.stats.max_queue_depth = max(self.stats.max_queue_depth, len(self._queue))
        self._wakeup.set()
        return future

    # ------------------------------------------------------------------
    # The tick loop
    # ------------------------------------------------------------------

    def _take_batch(self) -> list[_Entry]:
        """Pop the oldest group's windows, up to ``max_batch_windows``.

        Sweeps the whole queue for entries sharing the head's group
        key, preserving arrival order within the batch and in the
        remainder.
        """
        key = self._queue[0].key
        limit = self.config.max_batch_windows
        batch: list[_Entry] = []
        remainder: list[_Entry] = []
        for entry in self._queue:
            if entry.key == key and len(batch) < limit:
                batch.append(entry)
            else:
                remainder.append(entry)
        self._queue = remainder
        return batch

    def _estimate_batch(self, batch: list[_Entry]) -> list[SpectrogramFrame]:
        """One stacked DSP pass over a compatible window batch."""
        config = batch[0].config
        windows = np.stack([entry.window for entry in batch])
        if batch[0].use_music:
            power, counts, estimators = estimate_windows_batch(windows, config)
            return [
                SpectrogramFrame(
                    power=power[i],
                    num_sources=int(counts[i]),
                    estimator=str(estimators[i]),
                )
                for i in range(len(batch))
            ]
        # Beamformed sessions: per-window mean removal exactly as
        # compute_beamformed_frame does it (scalar mean per window, so
        # the arithmetic is untouched by batching), then one batched
        # Eq. 5.1 projection — bit-identical by the stability contract.
        centered = np.stack([w - w.mean() for w in windows])
        steering = steering_matrix(
            config.theta_grid_deg,
            windows.shape[1],
            config.spacing_m,
            config.wavelength_m,
        )
        magnitudes = beamform_batch(centered, steering)
        return [
            SpectrogramFrame(
                power=magnitudes[i], num_sources=0, estimator=ESTIMATOR_BEAMFORMING
            )
            for i in range(len(batch))
        ]

    def _tick(self) -> None:
        """Drain one batch and complete its futures."""
        if not self._queue:
            # The watchdog (or a drain) emptied the queue while this
            # tick was stalled at an await; nothing left to do.
            return
        batch = self._take_batch()
        try:
            frames = self._estimate_batch(batch)
        except Exception as exc:  # noqa: BLE001 - forwarded to every waiter
            for entry in batch:
                if not entry.future.done():
                    entry.future.set_exception(exc)
            return
        for entry, frame in zip(batch, frames):
            if not entry.future.done():
                entry.future.set_result(frame)
        self.stats.ticks += 1
        self.stats.windows += len(batch)
        self.stats.occupancy.observe(len(batch))
        self._last_progress = time.monotonic()

    async def _run(self) -> None:
        while True:
            if not self._queue:
                if self._draining:
                    return
                self._wakeup.clear()
                # Even with an empty queue, progress is "now": a quiet
                # scheduler is idle, not stalled.
                self._last_progress = time.monotonic()
                await self._wakeup.wait()
                continue
            if self.chaos is not None:
                # Chaos may stall here — exactly the window in which
                # the watchdog's serial degraded path takes over.
                await self.chaos.before_tick()
            self._tick()
            # Yield one loop turn: handlers consume the frames just
            # completed and the reader callbacks that piled up during
            # the tick enqueue the next wave of windows.
            await asyncio.sleep(0)

    # ------------------------------------------------------------------
    # The watchdog
    # ------------------------------------------------------------------

    async def _serial_drain(self) -> None:
        """Degraded mode: complete queued windows one at a time.

        Each window is estimated as its own batch of one — by the PR-4
        batch-stability contract that is bit-identical to any stacked
        pass, so degrading costs throughput, never correctness.  A
        loop turn is yielded per window so waiting handlers stream
        their replies out while the drain proceeds.
        """
        while self._queue:
            entry = self._queue.pop(0)
            try:
                frames = self._estimate_batch([entry])
            except Exception as exc:  # noqa: BLE001 - forwarded to the waiter
                if not entry.future.done():
                    entry.future.set_exception(exc)
                continue
            if not entry.future.done():
                entry.future.set_result(frames[0])
            self.stats.serial_windows += 1
            self._last_progress = time.monotonic()
            await asyncio.sleep(0)

    async def _watchdog(self) -> None:
        """Degrade to serial compute when batch ticks stall.

        Fires when windows sit queued past :data:`WATCHDOG_TIMEOUT_S`
        with no tick completing — a stalled tick loop (chaos stall, a
        bug holding the wakeup) would otherwise wedge every waiting push.
        """
        timeout = WATCHDOG_TIMEOUT_S
        poll = min(timeout / 4.0, 0.05)
        while True:
            try:
                async with asyncio.timeout(poll):
                    await self._watchdog_stop.wait()
                return
            except TimeoutError:
                pass
            if (
                self._queue
                and time.monotonic() - self._last_progress > timeout
            ):
                self.stats.watchdog_activations += 1
                telemetry = get_telemetry()
                if telemetry.enabled:
                    telemetry.events.emit(
                        "serve.watchdog_degraded",
                        queued_windows=len(self._queue),
                        stalled_s=round(
                            time.monotonic() - self._last_progress, 3
                        ),
                    )
                if self.hub is not None:
                    self.hub.publish(
                        "serve.watchdog",
                        queued_windows=len(self._queue),
                        stalled_s=round(time.monotonic() - self._last_progress, 3),
                    )
                await self._serial_drain()
