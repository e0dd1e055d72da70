"""Spans recorded from outside the program, by wrapping its public calls.

:func:`install` replaces a fixed set of functions and methods with
timing wrappers before the program runs.  Each process keeps its spans
in memory and writes them to ``<span_dir>/spans-<pid>.json`` once its
``SensingServer.shutdown`` or ``FleetServer.shutdown`` returns (the
offline worker calls :meth:`SpanStore.dump` itself).  Forked fleet
workers inherit the wrappers and start with an empty store.

A span is ``[name, start, end, parent, n, k, cpu]``: ``parent`` is the
index of the enclosing span in the same process (-1 at top level), ``n``
the units of work the call did (windows, samples, columns; 1 otherwise),
``k`` a call-specific count (windows MUSIC accepted, frame bytes, bad
blocks) and ``cpu`` the CPU seconds all the process's threads spent
during a top-level span (0 for nested ones).  Times are
``time.perf_counter()`` seconds, which on Linux is CLOCK_MONOTONIC and
so comparable across processes.  Besides spans the
store keeps scheduler waits (``submit`` until the window's future
completes) and the values fed to the server's always-on histograms.
"""

from __future__ import annotations

import functools
import json
import os
from time import perf_counter, process_time
from typing import Any, Callable

#: Always-on histograms whose observations the store keeps.
OBSERVED_HISTOGRAMS = ("serve.request_latency_ms", "serve.batch_windows")

_UNSET = object()


class SpanStore:
    """One process's spans, waits and histogram observations."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.reset()

    def reset(self) -> None:
        self.spans: list[list | None] = []
        self.stack: list[int] = []
        self.waits: list[tuple[str, float, float]] = []
        self.observations: list[tuple[str, float, float]] = []

    def dump(self) -> str:
        """Write this process's records; returns the file path."""
        pid = os.getpid()
        path = os.path.join(self.out_dir, f"spans-{pid}.json")
        with open(path + ".tmp", "w") as handle:
            json.dump(
                {
                    "pid": pid,
                    "spans": self.spans,
                    "waits": self.waits,
                    "observations": self.observations,
                },
                handle,
            )
        os.replace(path + ".tmp", path)
        return path

    def timed(
        self,
        name: str,
        fn: Callable,
        measure: Callable[[tuple, Any, Any], tuple[int, int]] | None = None,
        prepare: Callable[[tuple], Any] | None = None,
    ) -> Callable:
        """``fn`` wrapped to record one span per call."""
        store = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans = store.spans
            stack = store.stack
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            before = prepare(args) if prepare is not None else None
            result = _UNSET
            cpu = process_time() if parent < 0 else 0.0
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                if parent < 0:
                    cpu = process_time() - cpu
                stack.pop()
                if result is _UNSET:
                    n, k = 0, 0
                elif measure is not None:
                    n, k = measure(args, result, before)
                else:
                    n, k = 1, 0
                spans[index] = [name, start, end, parent, n, k, cpu]

        return wrapper


def _rows(position: int) -> Callable:
    return lambda args, result, before: (len(args[position]), 0)


def _patch_method(store: SpanStore, cls: type, attr: str, name: str, **kw) -> None:
    setattr(cls, attr, store.timed(name, cls.__dict__[attr], **kw))


def install(span_dir: str) -> SpanStore:
    """Wrap the program's layer boundaries; returns the process's store."""
    import numpy as np

    from repro.core import tracking
    from repro.dsp import backend as dsp_backend
    from repro.dsp.eig import REASON_OK
    from repro.fleet.frontend import FleetServer
    from repro.runtime.pipeline import ConditionStage
    from repro.serve import protocol, scheduler
    from repro.serve.server import SensingServer
    from repro.serve.session import ServeSession
    from repro.telemetry.metrics import Histogram

    store = SpanStore(span_dir)
    os.register_at_fork(after_in_child=store.reset)

    # repro.dsp: the active backend's kernels, on every class that
    # defines them, plus beamform_batch as the scheduler calls it.
    kernels = {
        "smoothed_covariance_batch": ("covariance", {"measure": _rows(1)}),
        "eigh_descending_batch": ("eigh", {"measure": _rows(1)}),
        "classify_covariance_batch": (
            "classify",
            {
                "measure": lambda args, result, before: (
                    len(args[1]),
                    int(np.count_nonzero(result == REASON_OK)),
                )
            },
        ),
        "estimate_source_counts_batch": (
            "source_counts",
            {"measure": lambda args, result, before: (0, 0)},
        ),
        "music_pseudospectra_batch": ("pseudospectra", {"measure": _rows(2)}),
        "beamform_fallback_batch": ("beamform", {"measure": _rows(1)}),
    }
    classes = {dsp_backend.DspBackend}
    for info in dsp_backend.backend_infos():
        if info.available:
            classes.update(type(dsp_backend.get_backend(info.name)).__mro__)
    for cls in classes:
        for attr, (name, kw) in kernels.items():
            if attr in cls.__dict__:
                _patch_method(store, cls, attr, name, **kw)
    scheduler.beamform_batch = store.timed(
        "beamform", scheduler.beamform_batch, measure=_rows(0)
    )

    # repro.core.tracking, including the scheduler's imported name.
    estimate = store.timed(
        "estimate_windows_batch", tracking.estimate_windows_batch, measure=_rows(0)
    )
    tracking.estimate_windows_batch = estimate
    scheduler.estimate_windows_batch = estimate
    tracking.compute_spectrogram = store.timed(
        "compute_spectrogram",
        tracking.compute_spectrogram,
        measure=lambda args, result, before: (result.num_windows, 0),
    )

    # repro.serve.protocol + repro.encoding (callers use module attributes).
    protocol.decode_frame = store.timed(
        "decode_frame",
        protocol.decode_frame,
        measure=lambda args, result, before: (1, len(args[0])),
    )
    protocol.encode_frame = store.timed(
        "encode_frame",
        protocol.encode_frame,
        measure=lambda args, result, before: (1, len(result)),
    )
    protocol.decode_samples = store.timed(
        "decode_samples",
        protocol.decode_samples,
        measure=lambda args, result, before: (len(result), 0),
    )
    protocol.column_to_wire = store.timed("column_to_wire", protocol.column_to_wire)

    # repro.serve.session + repro.runtime.
    _patch_method(
        store,
        ServeSession,
        "ingest",
        "ingest",
        measure=lambda args, result, before: (len(result.pending), 0),
    )
    _patch_method(store, ServeSession, "resolve", "resolve")
    _patch_method(store, ServeSession, "checkpoint", "checkpoint")
    _patch_method(
        store,
        ConditionStage,
        "process",
        "screen",
        prepare=lambda args: args[0].bad_block_count,
        measure=lambda args, result, before: (1, args[0].bad_block_count - before),
    )

    # repro.serve.scheduler: submit until the window's future completes.
    submit = scheduler.MicroBatchScheduler.submit

    @functools.wraps(submit)
    def timed_submit(self, *args, **kwargs):
        start = perf_counter()
        future = submit(self, *args, **kwargs)
        future.add_done_callback(
            lambda _: store.waits.append(("submit", start, perf_counter()))
        )
        return future

    scheduler.MicroBatchScheduler.submit = timed_submit

    # The always-on request and batch-occupancy histograms.
    observe = Histogram.observe

    @functools.wraps(observe)
    def observed(self, value):
        if self.name in OBSERVED_HISTOGRAMS:
            store.observations.append((self.name, perf_counter(), float(value)))
        return observe(self, value)

    Histogram.observe = observed

    # Write the records once a server or fleet frontend has shut down.
    for cls in (SensingServer, FleetServer):
        shutdown = cls.shutdown

        async def dumping_shutdown(self, _shutdown=shutdown):
            try:
                return await _shutdown(self)
            finally:
                store.dump()

        cls.shutdown = functools.wraps(shutdown)(dumping_shutdown)
    return store
