"""The DSP thread budget: one BLAS thread, pool threads only for large stacks.

Every DSP pass, of any size, first pins every mapped OpenBLAS to one
thread (:mod:`repro.dsp.blas`); :mod:`repro.dsp.pool` runs a stack of
more than ``UNIT_WINDOWS`` windows as ``UNIT_WINDOWS``-row units that
the calling thread and a process-wide thread pool take from one cursor.
A forked child (a fleet worker) must discard the inherited pool and
build its own; one that kept it would queue units for threads the fork
did not copy and hang.
"""

import multiprocessing
import subprocess
import sys
import textwrap
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields

import numpy as np
import pytest

from repro.core.tracking import TrackingConfig, compute_spectrogram, estimate_windows_batch
from repro.dsp import blas, pool
from repro.dsp.backend import NumpyFloat64Backend, get_backend

from tests.helpers import synthetic_trace

CONFIG = TrackingConfig(window_size=32, hop=8, subarray_size=12)
#: Seconds a forked child may take before the test fails it as hung.
CHILD_TIMEOUT_S = 60.0
#: Peak traced bytes one more window may add to a default-config
#: ``compute_spectrogram``: its outputs (a 181-angle float64 row is
#: 1,448 bytes) and their copies, not its intermediates (about 173 KB
#: a window when a whole stack's are alive at once).
PEAK_BYTES_PER_WINDOW = 8 * 1024


def _stack(num_windows):
    rng = np.random.default_rng(num_windows)
    shape = (num_windows, CONFIG.window_size)
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _pool_threads():
    return sum(
        t.name.startswith(pool.THREAD_NAME_PREFIX) for t in threading.enumerate()
    )


def _run_forked(target):
    """Run ``target`` in a forked child, as the fleet starts its workers."""
    child = multiprocessing.get_context("fork").Process(target=target)
    child.start()
    child.join(CHILD_TIMEOUT_S)
    if child.is_alive():
        child.kill()
        child.join()
        pytest.fail(f"forked child still running after {CHILD_TIMEOUT_S} s")
    assert child.exitcode == 0


def test_every_openblas_runs_one_thread_after_a_pooled_pass(monkeypatch):
    monkeypatch.setattr(pool, "cores", lambda: 2)
    estimate_windows_batch(_stack(2 * pool.UNIT_WINDOWS), CONFIG)
    counts = blas.blas_thread_counts()
    if not counts:
        pytest.skip("no OpenBLAS mapped into this process")
    assert set(counts.values()) == {1}, counts


def _run_fresh(script):
    # A fresh interpreter, as a serve or streaming process starts: this
    # test process may have pinned BLAS already, and a fork would
    # inherit that.
    result = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)],
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    assert result.returncode == 0, result.stderr


def test_one_window_music_pass_pins_every_openblas():
    _run_fresh(
        """
        import numpy as np

        from repro.core.tracking import TrackingConfig, estimate_windows_batch
        from repro.dsp.blas import blas_thread_counts

        config = TrackingConfig(window_size=32, hop=8, subarray_size=12)
        rng = np.random.default_rng(0)
        window = rng.normal(size=(1, 32)) + 1j * rng.normal(size=(1, 32))
        estimate_windows_batch(window, config)
        assert set(blas_thread_counts().values()) <= {1}, blas_thread_counts()

        # Gesture decoding loads scipy, and with it any OpenBLAS of its
        # own, after that first pass: the next pass pins it too.
        from repro.core.gestures import robust_noise_sigma

        robust_noise_sigma(rng.normal(size=100))
        estimate_windows_batch(window, config)
        assert set(blas_thread_counts().values()) <= {1}, blas_thread_counts()
        """
    )


@pytest.mark.parametrize(
    "call",
    [
        "compute_beamformed_frame(window, config)",
        # Every window non-finite: the pass runs only the fallback.
        "estimate_windows_batch(np.full((1, 32), np.nan + 0j), config, "
        "backend=get_backend('numpy-float32'))",
    ],
    ids=["beamformed-frame", "float32-fallback"],
)
def test_beamforming_alone_pins_every_openblas(call):
    # A beamforming-only pass never reaches a MUSIC pass.
    _run_fresh(
        f"""
        import numpy as np

        from repro.core.tracking import (
            TrackingConfig, compute_beamformed_frame, estimate_windows_batch,
        )
        from repro.dsp.backend import get_backend
        from repro.dsp.blas import blas_thread_counts

        config = TrackingConfig(window_size=32, hop=8, subarray_size=12)
        window = np.random.default_rng(0).normal(size=32) + 0j
        {call}
        assert set(blas_thread_counts().values()) <= {{1}}, blas_thread_counts()
        """
    )


def test_forked_child_runs_its_own_pool_on_one_blas_thread(monkeypatch):
    monkeypatch.setattr(pool, "cores", lambda: 2)
    stack = _stack(4 * pool.UNIT_WINDOWS)
    expected = estimate_windows_batch(stack, CONFIG)
    assert _pool_threads() >= 1

    def child():
        assert _pool_threads() == 0
        result = estimate_windows_batch(stack, CONFIG)
        for got, want in zip(result, expected):
            assert np.array_equal(got, want)
        assert _pool_threads() == 1
        assert set(blas.blas_thread_counts().values()) <= {1}

    _run_forked(child)


def test_one_window_stack_starts_no_pool_thread(monkeypatch):
    # Forked so the pool starts out absent, as in a fresh serve process.
    monkeypatch.setattr(pool, "cores", lambda: 2)

    def child():
        estimate_windows_batch(_stack(1), CONFIG)
        estimate_windows_batch(_stack(pool.UNIT_WINDOWS), CONFIG)
        assert _pool_threads() == 0
        estimate_windows_batch(_stack(pool.UNIT_WINDOWS + 1), CONFIG)
        assert _pool_threads() == 1

    _run_forked(child)


def test_concurrent_callers_share_one_pool_and_keep_exact_rows(monkeypatch):
    # More calling threads than cores, released together and switching
    # every microsecond, over more configs than the float32 steering
    # memo holds: every caller gets its rows bit for bit, and the forked
    # child builds exactly one pool.  A caller whose helper is still
    # queued when its last unit is done cancels the helper.
    monkeypatch.setattr(pool, "cores", lambda: 2)
    backend = get_backend("numpy-float32")
    configs = [
        TrackingConfig(window_size=32, hop=8, subarray_size=12, theta_step_deg=1.0 + 0.05 * k)
        for k in range(18)
    ]
    stack = _stack(2 * pool.UNIT_WINDOWS)
    expected = [estimate_windows_batch(stack, c, backend=backend)[0] for c in configs]
    callers = 6

    def child():
        built, submitted = [], []

        class CountingExecutor(ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                built.append(self)
                super().__init__(*args, **kwargs)

            def submit(self, *args, **kwargs):
                future = super().submit(*args, **kwargs)
                submitted.append(future)
                return future

        pool.ThreadPoolExecutor = CountingExecutor  # this forked child only
        release = threading.Barrier(callers)
        results, errors = {}, []

        def call(first):
            try:
                release.wait(CHILD_TIMEOUT_S)
                for k in range(first, len(configs), callers):
                    results[k] = estimate_windows_batch(stack, configs[k], backend=backend)[0]
            except Exception as error:  # surfaced by the assertion below
                errors.append(error)

        threads = [threading.Thread(target=call, args=(i,)) for i in range(callers)]
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(CHILD_TIMEOUT_S)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        for k, want in enumerate(expected):
            assert np.array_equal(results[k], want)
        assert len(built) == 1

        # The pool's one thread is busy elsewhere: the caller runs both
        # units itself and returns without waiting for that thread.
        unblock = threading.Event()
        blocker = pool._executor().submit(unblock.wait, CHILD_TIMEOUT_S)
        rows = []
        try:
            caller = threading.Thread(
                target=lambda: rows.append(
                    estimate_windows_batch(stack, configs[0], backend=backend)[0]
                )
            )
            caller.start()
            caller.join(CHILD_TIMEOUT_S / 4)
            assert not caller.is_alive()
            assert submitted[-1] is not blocker and submitted[-1].cancelled()
            assert np.array_equal(rows[0], expected[0])
        finally:
            unblock.set()
        assert blocker.result(CHILD_TIMEOUT_S)
        assert len(built) == 1

    _run_forked(child)


def _peak_traced_bytes(num_windows):
    config = TrackingConfig()
    num_samples = config.window_size + (num_windows - 1) * config.hop
    series = synthetic_trace(np.random.default_rng(num_windows), num_samples)
    tracemalloc.start()
    try:
        spectrogram = compute_spectrogram(series, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert spectrogram.num_windows == num_windows
    return peak


def test_pass_memory_does_not_grow_with_the_trace(monkeypatch):
    # A 25 s trace is 309 windows; a service's traces grow with uptime.
    # Beyond its outputs, a pass holds one unit's intermediates per
    # thread, so an extra window costs what its row of output needs.
    monkeypatch.setattr(pool, "cores", lambda: 2)
    _peak_traced_bytes(64)  # fills the steering tables and index caches
    small, large = _peak_traced_bytes(512), _peak_traced_bytes(2048)
    assert (large - small) / (2048 - 512) <= PEAK_BYTES_PER_WINDOW, (small, large)


class _UnitFailure(Exception):
    """What :class:`_FailingBackend` raises in a failing unit."""


class _FailingBackend(NumpyFloat64Backend):
    """Logs each unit's start and end; units 1 and 2 meet, then raise.

    A unit is identified by its offset into ``stack``, whose rows the
    pool hands on as views.
    """

    def __init__(self, stack):
        self.stack = stack
        self.failing = True
        self.events = []
        self._events_lock = threading.Lock()
        self._meet = threading.Barrier(2)

    def _log(self, kind, unit):
        with self._events_lock:
            self.events.append((kind, unit))

    def music_batch(self, windows, config):
        offset = windows.__array_interface__["data"][0] - self.stack.ctypes.data
        unit = offset // self.stack.strides[0] // pool.UNIT_WINDOWS
        self._log("start", unit)
        try:
            if self.failing and unit in (1, 2):
                # Both failing units run at once, so both raise; unit 2
                # raises last and the call must wait for it.
                self._meet.wait(CHILD_TIMEOUT_S / 4)
                if unit == 2:
                    time.sleep(0.1)
                self._log("raise", unit)
                raise _UnitFailure(unit)
            return super().music_batch(windows, config)
        finally:
            self._log("end", unit)


def test_a_failing_unit_stops_the_pass_and_leaves_the_pool_usable(monkeypatch):
    monkeypatch.setattr(pool, "cores", lambda: 2)
    stack = _stack(10 * pool.UNIT_WINDOWS)
    backend = _FailingBackend(stack)
    with pytest.raises(_UnitFailure) as raised:
        pool.music_batch(backend, stack, CONFIG)
    events = list(backend.events)
    # The lowest-index unit's exception, once every started unit ended;
    # after the first raise no further unit started.
    assert raised.value.args == (1,)
    started = [unit for kind, unit in events if kind == "start"]
    assert sorted(started) == sorted(unit for kind, unit in events if kind == "end")
    assert sorted(started) == [0, 1, 2]
    first_raise = next(n for n, (kind, _) in enumerate(events) if kind == "raise")
    assert all(kind != "start" for kind, _ in events[first_raise:])

    backend.failing = False
    result = pool.music_batch(backend, stack, CONFIG)
    expected = backend.music_batch(stack, CONFIG)
    for field in fields(result):
        assert np.array_equal(getattr(result, field.name), getattr(expected, field.name))
