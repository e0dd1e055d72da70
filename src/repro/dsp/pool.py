"""One DSP compute thread per core, fed 32-window units from one cursor.

The DSP's parallelism is across windows, not inside BLAS (every BLAS
call in the kernel stack is small; see :mod:`repro.dsp.blas`): by the
batch-stability contract each window's result is independent of the
batch it rides in, so a stack cut into units and run on separate cores
gives the same rows, bit for bit.

:func:`music_batch` runs a backend's fused MUSIC pass over a stack,
after :func:`~repro.dsp.blas.pin_blas` has set every mapped OpenBLAS to
one thread.  A stack of more than ``UNIT_WINDOWS`` windows is cut into
units of ``UNIT_WINDOWS`` rows; the calling thread and up to
``cores() - 1`` threads of a lazily created process-wide pool take unit
indexes from one shared cursor (numpy releases the GIL inside
``matmul`` and ``eigh``).  So the intermediates in flight are bounded
by one unit per thread however long the stack is, and the cores stay
busy until the last unit.  A stack of one unit — a streaming frame, a
serve tick of a few windows — runs inline and starts no thread.

A forked child (fleet workers, campaign processes) discards the
inherited pool, whose threads did not survive the fork, and creates
its own on first use.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import fields
from typing import Any

import numpy as np

from repro.dsp.backend import DspBackend, MusicBatchResult
from repro.dsp.blas import pin_blas

#: Windows per work unit: a stack of at most this many runs inline.
UNIT_WINDOWS = 32

#: Name prefix of the pool's threads.
THREAD_NAME_PREFIX = "repro-dsp"

_lock = threading.Lock()
_pool: ThreadPoolExecutor | None = None


def cores() -> int:
    """CPUs this process may run on: the most threads one stack runs on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _executor() -> ThreadPoolExecutor:
    global _pool
    with _lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(
                max_workers=max(cores() - 1, 1), thread_name_prefix=THREAD_NAME_PREFIX
            )
        return _pool


def _forget_pool() -> None:
    global _lock, _pool
    _lock = threading.Lock()
    _pool = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def music_batch(backend: DspBackend, windows: np.ndarray, config: Any) -> MusicBatchResult:
    """``backend.music_batch(windows, config)``, in ``UNIT_WINDOWS``-row units.

    Rows come back in input order and bit-identical to one unsplit
    pass (the batch-stability contract every backend keeps).  Once a
    unit raises, no further unit starts; the call returns or raises
    only once every started unit has finished, and raises the
    exception of the lowest-index unit that raised.
    """
    pin_blas()
    units = -(-len(windows) // UNIT_WINDOWS)
    if units < 2:
        return backend.music_batch(windows, config)
    results: list[MusicBatchResult | None] = [None] * units
    errors: dict[int, Exception] = {}
    cursor = iter(range(units))
    cursor_lock = threading.Lock()
    stop = threading.Event()

    def run_units() -> None:
        while not stop.is_set():
            with cursor_lock:
                index = next(cursor, None)
            if index is None:
                return
            start = index * UNIT_WINDOWS
            try:
                results[index] = backend.music_batch(
                    windows[start : start + UNIT_WINDOWS], config
                )
            except Exception as error:
                errors[index] = error
                stop.set()

    pool = _executor()
    helpers = [pool.submit(run_units) for _ in range(min(cores(), units) - 1)]
    try:
        run_units()
    finally:
        # A helper still queued behind another caller's units would find
        # no unit left: cancel it rather than wait for a thread to take
        # it, and wait only for the helpers already running.
        stop.set()
        wait([helper for helper in helpers if not helper.cancel()])
    if errors:
        raise errors[min(errors)]
    return MusicBatchResult(
        **{
            field.name: np.concatenate([getattr(result, field.name) for result in results])
            for field in fields(MusicBatchResult)
        }
    )
