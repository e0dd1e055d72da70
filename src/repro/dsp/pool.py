"""One DSP compute thread per core.

Every BLAS call in the kernel stack is small — a w' x w' ``eigh``
(32 x 32 at the default config) or a (num_angles, w') projection — so
OpenBLAS's own threads add CPU time and no throughput.  The DSP's real
parallelism is across windows: by the batch-stability contract each
window's result is independent of the batch it rides in, so a stack
cut into contiguous chunks and run on separate cores gives the same
rows, bit for bit.  This module does both halves:

* :func:`music_batch` runs a backend's fused MUSIC pass over a stack.
  A stack of at least ``2 * MIN_CHUNK`` windows is cut into at most
  one contiguous chunk per core (:func:`cores`); the calling thread
  runs the first chunk and a lazily created process-wide thread pool
  the rest (numpy releases the GIL inside ``matmul`` and ``eigh``).
* :func:`pin_blas` sets every OpenBLAS mapped into the process to one
  thread whenever a stack is split, so the chunks do not also fan out
  inside BLAS.  numpy's library maps when numpy is imported; scipy's
  maps on the first ``find_peaks`` or ``erfinv`` call, which can come
  after the first split, so each split pins whatever has mapped since
  the last one.

Smaller stacks — a streaming frame, a serve tick of a few windows —
run inline, start no thread and leave BLAS as the process set it up:
a process that never splits a stack keeps its library defaults.

A forked child (fleet workers, campaign processes) discards the
inherited pool, whose threads did not survive the fork, and creates
its own on first use.  The OpenBLAS setting is process memory and is
inherited as it is.
"""

from __future__ import annotations

import ctypes
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import fields
from typing import Any

import numpy as np

from repro.dsp.backend import DspBackend, MusicBatchResult

#: Fewest windows a chunk holds: stacks under twice this run inline.
MIN_CHUNK = 32

#: Name prefix of the pool's threads.
THREAD_NAME_PREFIX = "repro-dsp"

_lock = threading.Lock()
#: ``len(sys.modules)`` when :func:`pin_blas` last scanned; -1 before.
_pinned_at = -1
_pool: ThreadPoolExecutor | None = None


def cores() -> int:
    """CPUs this process may run on: the most chunks a stack is cut into."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _openblas_libraries() -> dict[str, ctypes.CDLL]:
    """Every OpenBLAS shared library mapped into this process, by path.

    Reads ``/proc/self/maps`` (Linux; elsewhere this finds none) and
    opens each match with ``RTLD_NOLOAD``, so nothing new is loaded.
    """
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split(maxsplit=5)[-1].strip() for line in maps}
    except OSError:
        return {}
    libraries = {}
    for path in sorted(paths):
        name = os.path.basename(path)
        if "openblas" not in name.lower() or ".so" not in name:
            continue
        try:
            libraries[path] = ctypes.CDLL(path, mode=os.RTLD_NOLOAD | os.RTLD_LAZY)
        except OSError:
            continue
    return libraries


def _entry_point(library: ctypes.CDLL, verb: str) -> Any:
    """A library's own ``openblas_{verb}_num_threads`` C entry point, or None.

    numpy's and scipy's wheels rename the symbols (``scipy_`` prefix,
    ``64_`` suffix for the ILP64 build numpy uses); plain OpenBLAS
    keeps the bare name.
    """
    for prefix in ("", "scipy_"):
        for suffix in ("", "64_"):
            try:
                return getattr(library, f"{prefix}openblas_{verb}_num_threads{suffix}")
            except AttributeError:
                continue
    return None


def pin_blas() -> None:
    """Set every OpenBLAS mapped into the process to one thread.

    Every library this program maps arrives by an import, so the
    ``/proc/self/maps`` scan reruns only when ``sys.modules`` has changed
    since the last one; otherwise the call costs one ``len``.
    """
    global _pinned_at
    modules = len(sys.modules)
    if modules == _pinned_at:
        return
    with _lock:
        if modules == _pinned_at:
            return
        for library in _openblas_libraries().values():
            setter = _entry_point(library, "set")
            if setter is not None:
                setter.argtypes = [ctypes.c_int]
                setter.restype = None
                setter(1)
        _pinned_at = modules


def blas_thread_counts() -> dict[str, int]:
    """The thread count each mapped OpenBLAS reports, by library path."""
    counts = {}
    for path, library in _openblas_libraries().items():
        getter = _entry_point(library, "get")
        if getter is not None:
            getter.argtypes = []
            getter.restype = ctypes.c_int
            counts[path] = getter()
    return counts


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
    chunks = min(cores(), len(windows) // MIN_CHUNK)
    if chunks < 2:
        return backend.music_batch(windows, config)
    pin_blas()
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
