"""One DSP compute thread per core.

The DSP's parallelism is across windows, not inside BLAS (every BLAS
call in the kernel stack is small; see :mod:`repro.dsp.blas`): by the
batch-stability contract each window's result is independent of the
batch it rides in, so a stack cut into contiguous chunks and run on
separate cores gives the same rows, bit for bit.

:func:`music_batch` runs a backend's fused MUSIC pass over a stack,
after :func:`~repro.dsp.blas.pin_blas` has set every mapped OpenBLAS to
one thread.  A stack of at least ``2 * MIN_CHUNK`` windows is cut into
at most one contiguous chunk per core (:func:`cores`); the calling
thread runs the first chunk and a lazily created process-wide thread
pool the rest (numpy releases the GIL inside ``matmul`` and ``eigh``).
Smaller stacks — a streaming frame, a serve tick of a few windows —
run inline and start no thread.

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

#: Fewest windows a chunk holds: stacks under twice this run inline.
MIN_CHUNK = 32

#: Name prefix of the pool's threads.
THREAD_NAME_PREFIX = "repro-dsp"

_lock = threading.Lock()
_pool: ThreadPoolExecutor | None = None


def cores() -> int:
    """CPUs this process may run on: the most chunks a stack is cut into."""
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
    """``backend.music_batch(windows, config)``, one contiguous chunk per core.

    Rows come back in input order and bit-identical to one unsplit
    pass (the batch-stability contract every backend keeps).  The call
    returns only once every chunk has finished, on any outcome.
    """
    pin_blas()
    chunks = min(cores(), len(windows) // MIN_CHUNK)
    if chunks < 2:
        return backend.music_batch(windows, config)
    parts = np.array_split(windows, chunks)
    pool = _executor()
    futures = [pool.submit(backend.music_batch, part, config) for part in parts[1:]]
    try:
        results = [backend.music_batch(parts[0], config)]
    finally:
        wait(futures)
    results += [future.result() for future in futures]
    return MusicBatchResult(
        **{
            field.name: np.concatenate([getattr(result, field.name) for result in results])
            for field in fields(MusicBatchResult)
        }
    )
