"""One BLAS thread per DSP pass.

Every BLAS call in the kernel stack is small — a w' x w' ``eigh``
(32 x 32 at the default config) or a (num_angles, w') projection — so
OpenBLAS's own threads add CPU time and no throughput: at batch one a
second thread mostly spins.  :func:`pin_blas` sets every OpenBLAS
mapped into the process to one thread, and the kernel entry points
that carry every DSP BLAS call on the serving, streaming and offline
paths call it first: :func:`repro.dsp.pool.music_batch`,
:func:`repro.dsp.spectrum.beamform_batch` and the float32 backend's own
Eq. 5.1 projection.

numpy's library maps when numpy is imported; scipy's maps on the first
``find_peaks`` or ``erfinv`` call, which can come after the first pass,
so each pass pins whatever has mapped since the last scan.  The setting
is process memory, so a forked child inherits it as it is.

This module imports nothing from :mod:`repro.dsp`, so every kernel
module can import it.
"""

from __future__ import annotations

import ctypes
import os
import sys
import threading
from typing import Any

_lock = threading.Lock()
#: ``len(sys.modules)`` when :func:`pin_blas` last scanned; -1 before.
_pinned_at = -1


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


def _renew_lock() -> None:
    # A thread that held the lock across a fork does not exist in the child.
    global _lock
    _lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_renew_lock)
