"""The scheduler watchdog: stalled ticks degrade to serial compute.

A chaos-stalled tick loop must not wedge waiting pushes: the watchdog
notices no-progress-with-queued-windows and completes them one at a
time — bit-identically, by the batch-stability contract.
"""

import asyncio

import numpy as np
import pytest

from repro.chaos import ChaosEvent, ChaosKind, ChaosSchedule, ServerChaos
from repro.core.tracking import TrackingConfig, compute_spectrogram_frame
from repro.runtime.tracker import PendingWindow
from repro.serve import scheduler as scheduler_module
from repro.serve.scheduler import MicroBatchScheduler

CONFIG = TrackingConfig(window_size=64, hop=16, subarray_size=24)


@pytest.fixture(autouse=True)
def short_watchdog(monkeypatch):
    """A 50 ms watchdog, so a stalled tick trips it within the test."""
    monkeypatch.setattr(scheduler_module, "WATCHDOG_TIMEOUT_S", 0.05)


def _pending(rng, index=0):
    samples = rng.standard_normal(CONFIG.window_size) + 1j * rng.standard_normal(
        CONFIG.window_size
    )
    return PendingWindow(
        index=index,
        start_sample=index * CONFIG.hop,
        time_s=index * CONFIG.hop * CONFIG.sample_period_s,
        samples=samples,
    )


class _StallForever:
    """A chaos stand-in whose first tick never returns in time."""

    def __init__(self, delay_s):
        self.delay_s = delay_s
        self.calls = 0

    async def before_tick(self):
        self.calls += 1
        if self.calls == 1:
            await asyncio.sleep(self.delay_s)

    async def before_reply(self):  # pragma: no cover - not used here
        return None


class TestWatchdog:
    def test_stalled_tick_degrades_to_serial_and_stays_bit_exact(self, rng):
        pendings = [_pending(rng, index=i) for i in range(4)]

        async def run():
            scheduler = MicroBatchScheduler(chaos=_StallForever(0.6))
            scheduler.start()
            # Let the loop reach the chaos stall before submitting, so
            # the windows genuinely sit queued behind a stalled tick.
            await asyncio.sleep(0.01)
            futures = [scheduler.submit(CONFIG, True, p) for p in pendings]
            frames = await asyncio.wait_for(asyncio.gather(*futures), timeout=3.0)
            await scheduler.drain()
            return frames, scheduler

        frames, scheduler = asyncio.run(run())
        assert scheduler.stats.watchdog_activations >= 1
        assert scheduler.stats.serial_windows == len(pendings)
        for pending, frame in zip(pendings, frames):
            solo = compute_spectrogram_frame(pending.samples, CONFIG)
            assert np.array_equal(frame.power, solo.power)
            assert frame.estimator == solo.estimator

    def test_server_chaos_stall_tick_triggers_watchdog(self, rng):
        """The real injector wired in, not a test double."""
        schedule = ChaosSchedule(
            events=tuple(
                ChaosEvent(ChaosKind.STALL_TICK, op, magnitude=0.4)
                for op in range(8)
            ),
            horizon_ops=8,
        )
        chaos = ServerChaos(schedule)
        pendings = [_pending(rng, index=i) for i in range(3)]

        async def run():
            scheduler = MicroBatchScheduler(chaos=chaos)
            scheduler.start()
            await asyncio.sleep(0.01)
            futures = [scheduler.submit(CONFIG, True, p) for p in pendings]
            frames = await asyncio.wait_for(asyncio.gather(*futures), timeout=5.0)
            await scheduler.drain()
            return frames, scheduler

        frames, scheduler = asyncio.run(run())
        assert len(frames) == 3
        assert scheduler.stats.watchdog_activations >= 1
        assert any(e.kind is ChaosKind.STALL_TICK for e in chaos.log)

    def test_quiet_scheduler_never_activates_watchdog(self, rng):
        async def run():
            scheduler = MicroBatchScheduler()
            scheduler.start()
            frame = await scheduler.submit(CONFIG, True, _pending(rng))
            # Idle well past the timeout: idleness is not a stall.
            await asyncio.sleep(0.2)
            await scheduler.drain()
            return frame, scheduler

        frame, scheduler = asyncio.run(run())
        assert frame is not None
        assert scheduler.stats.watchdog_activations == 0
        assert scheduler.stats.serial_windows == 0
