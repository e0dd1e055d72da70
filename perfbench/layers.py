"""Per-layer metrics from the traced run's spans, stats frames and ``/proc``.

Only records that start inside the timed phase count.  Busy times are
self time (a span minus its wrapped children) per unit of work, in
microseconds unless the name ends in ``_ms``.  A layer that does not
run on a workload reads 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any

from stats import percentile, self_times

#: Every per-layer metric, in BENCHMARK.json order, with its unit.
PER_LAYER = {
    "dsp.covariance_us": "us",
    "dsp.eigh_us": "us",
    "dsp.guard_us": "us",
    "dsp.pseudospectrum_us": "us",
    "dsp.beamform_us": "us",
    "dsp.windows_per_call": "windows",
    "dsp.music_accept_ratio": "ratio",
    "tracking.self_us": "us",
    "scheduler.batch_windows_mean": "windows",
    "scheduler.batch_windows_p99": "windows",
    "scheduler.wait_ms_p50": "ms",
    "scheduler.wait_ms_p99": "ms",
    "scheduler.shed_windows": "count",
    "scheduler.serial_windows": "count",
    "session.ingest_us": "us",
    "session.screen_us": "us",
    "session.resolve_us": "us",
    "session.checkpoint_us": "us",
    "session.bad_blocks": "count",
    "protocol.decode_us": "us",
    "protocol.encode_us": "us",
    "protocol.samples_us": "us",
    "protocol.column_us": "us",
    "protocol.bytes_per_column": "bytes",
    "server.request_ms_p50": "ms",
    "server.request_ms_p99": "ms",
    "server.transport_ms_p50": "ms",
    "server.untraced_share": "ratio",
    "fleet.relay_us": "us",
    "fleet.hop_ms_p50": "ms",
    "fleet.frontend_cpu_ms": "ms",
    "fleet.worker_cpu_ms": "ms",
    "fleet.shard_skew": "ratio",
    "fleet.relay_errors": "count",
    "fleet.migrations": "count",
    "proc.cpu_utilization": "CPU-s/s",
    "proc.threads_max": "count",
    "load.lateness_ms_p99": "ms",
    "load.cpu_utilization": "CPU-s/s",
    "trace.overhead_share": "ratio",
}


@dataclass
class Totals:
    """One span name's calls, self time and counts inside the timed phase."""

    calls: int = 0
    self_s: float = 0.0
    n: int = 0
    k: int = 0
    top_level: int = 0
    top_level_n: int = 0
    top_level_cpu_s: float = 0.0

    def per_call_us(self) -> float:
        """Self time per call, in microseconds."""
        return self.self_s / self.calls * 1e6 if self.calls else 0.0

    def per_unit_us(self) -> float:
        """Self time per unit of work (window, sample, column), in microseconds."""
        return self.self_s / self.n * 1e6 if self.n else 0.0


@dataclass
class ProcessRecords:
    """What one program process recorded inside the timed phase."""

    totals: dict[str, Totals] = field(default_factory=dict)
    waits_ms: list[float] = field(default_factory=list)
    observations: dict[str, list[float]] = field(default_factory=dict)

    def total(self, name: str) -> Totals:
        return self.totals.get(name, Totals())


def summarize(record: dict[str, Any], t0: float, t1: float) -> ProcessRecords:
    """Fold one process's span file into per-name totals for [t0, t1)."""
    spans = record["spans"]
    selfs = self_times([s if s is not None else ("", 0.0, 0.0, -1) for s in spans])
    out = ProcessRecords()
    for span, own in zip(spans, selfs):
        if span is None or not t0 <= span[1] < t1:
            continue
        name, start, end, parent, n, k, cpu = span
        totals = out.totals.setdefault(name, Totals())
        totals.calls += 1
        totals.self_s += own
        totals.n += n
        totals.k += k
        if parent < 0:
            totals.top_level += 1
            totals.top_level_n += n
            totals.top_level_cpu_s += cpu
    out.waits_ms = [(end - start) * 1e3 for _, start, end in record["waits"] if t0 <= start < t1]
    for name, when, value in record["observations"]:
        if t0 <= when < t1:
            out.observations.setdefault(name, []).append(value)
    return out


def merge(parts: list[ProcessRecords]) -> ProcessRecords:
    out = ProcessRecords()
    for part in parts:
        for name, totals in part.totals.items():
            into = out.totals.setdefault(name, Totals())
            for attr in fields(Totals):
                setattr(into, attr.name, getattr(into, attr.name) + getattr(totals, attr.name))
        out.waits_ms.extend(part.waits_ms)
        for name, values in part.observations.items():
            out.observations.setdefault(name, []).extend(values)
    return out


def _pct(values: list[float], q: float) -> float:
    return percentile(values, q) if values else 0.0


def _delta(stats: dict[str, dict], *path: str) -> float:
    def read(snapshot):
        for key in path:
            snapshot = snapshot.get(key, {}) if isinstance(snapshot, dict) else {}
        return snapshot if isinstance(snapshot, (int, float)) else 0

    return read(stats.get("t1", {})) - read(stats.get("t0", {}))


def per_layer(
    records: dict[int, dict[str, Any]],
    server_pids: list[int],
    frontend_pid: int | None,
    traced: Any,
    untraced_sessions_per_core: float,
) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric of one traced pass.

    ``traced`` is the run's traced pass (``run.Pass``): its timed-phase
    edges, ``server_stats`` replies, ``/proc`` deltas and client timings.
    The tracing overhead compares its sessions per core (columns per
    program CPU-second) with the untraced pass's: on a closed loop,
    where the program is CPU-bound, that is the loss in columns per
    second; on an open loop, whose rate the schedule fixes, it is the
    CPU the wrappers add.
    """
    t0, t1 = traced.t0, traced.t1
    stats, cpu_s, columns = traced.stats, traced.cpu_s, traced.columns
    client_p50_ms = _pct(traced.send_latencies_ms, 50)
    wall = t1 - t0
    parts = {pid: summarize(records[pid], t0, t1) for pid in records}
    server = merge([parts[pid] for pid in server_pids if pid in parts])
    frontend = parts.get(frontend_pid) if frontend_pid is not None else None
    total = server.total
    estimate = total("estimate_windows_batch")
    beamform = total("beamform")
    # DSP passes: estimate_windows_batch calls plus the scheduler's own
    # beamform_batch calls (top-level beamform spans).
    passes = estimate.calls + beamform.top_level
    pass_windows = estimate.n + beamform.top_level_n
    request_ms = server.observations.get("serve.request_latency_ms", [])
    server_p50 = _pct(request_ms, 50)
    columns_served = total("column_to_wire").calls
    frame_bytes = total("decode_frame").k + total("encode_frame").k
    program_cpu = sum(cpu_s.values())
    covered = sum(
        totals.top_level_cpu_s for part in parts.values() for totals in part.totals.values()
    )
    shards0 = {s.get("shard"): s for s in stats.get("t0", {}).get("shards", [])}
    shard_columns = [
        s.get("columns_served", 0) - shards0.get(s.get("shard"), {}).get("columns_served", 0)
        for s in stats.get("t1", {}).get("shards", [])
    ]
    relayed = _delta(stats, "fleet", "requests_relayed")
    fleet = frontend_pid is not None
    worker_cpu = sum(cpu_s.get(pid, 0.0) for pid in server_pids)
    return {
        "dsp.covariance_us": total("covariance").per_unit_us(),
        "dsp.eigh_us": total("eigh").per_unit_us(),
        "dsp.guard_us": (total("classify").self_s + total("source_counts").self_s)
        / total("classify").n
        * 1e6
        if total("classify").n
        else 0.0,
        "dsp.pseudospectrum_us": total("pseudospectra").per_unit_us(),
        "dsp.beamform_us": beamform.per_unit_us(),
        "dsp.windows_per_call": pass_windows / passes if passes else 0.0,
        "dsp.music_accept_ratio": total("classify").k / estimate.n if estimate.n else 0.0,
        "tracking.self_us": (estimate.self_s + total("compute_spectrogram").self_s)
        / estimate.n
        * 1e6
        if estimate.n
        else 0.0,
        "scheduler.batch_windows_mean": _delta(stats, "scheduler", "windows")
        / _delta(stats, "scheduler", "ticks")
        if _delta(stats, "scheduler", "ticks")
        else 0.0,
        "scheduler.batch_windows_p99": _pct(
            server.observations.get("serve.batch_windows", []), 99
        ),
        "scheduler.wait_ms_p50": _pct(server.waits_ms, 50),
        "scheduler.wait_ms_p99": _pct(server.waits_ms, 99),
        "scheduler.shed_windows": _delta(stats, "scheduler", "shed_windows"),
        "scheduler.serial_windows": _delta(stats, "scheduler", "serial_windows"),
        "session.ingest_us": total("ingest").per_call_us(),
        "session.screen_us": total("screen").per_call_us(),
        "session.resolve_us": total("resolve").per_call_us(),
        "session.checkpoint_us": total("checkpoint").per_call_us(),
        "session.bad_blocks": total("screen").k,
        "protocol.decode_us": total("decode_frame").per_call_us(),
        "protocol.encode_us": total("encode_frame").per_call_us(),
        "protocol.samples_us": total("decode_samples").per_call_us(),
        "protocol.column_us": total("column_to_wire").per_call_us(),
        "protocol.bytes_per_column": frame_bytes / columns_served if columns_served else 0.0,
        "server.request_ms_p50": server_p50,
        "server.request_ms_p99": _pct(request_ms, 99),
        "server.transport_ms_p50": client_p50_ms - server_p50 if request_ms else 0.0,
        "server.untraced_share": 1.0 - covered / program_cpu if program_cpu else 0.0,
        "fleet.relay_us": (
            frontend.total("decode_frame").self_s + frontend.total("encode_frame").self_s
        )
        / relayed
        * 1e6
        if fleet and frontend is not None and relayed
        else 0.0,
        "fleet.hop_ms_p50": client_p50_ms - server_p50 if fleet and request_ms else 0.0,
        "fleet.frontend_cpu_ms": cpu_s.get(frontend_pid, 0.0) / columns * 1e3
        if fleet and columns
        else 0.0,
        "fleet.worker_cpu_ms": worker_cpu / columns * 1e3 if fleet and columns else 0.0,
        "fleet.shard_skew": max(shard_columns) / sum(shard_columns)
        if fleet and sum(shard_columns)
        else 0.0,
        "fleet.relay_errors": _delta(stats, "fleet", "relay_errors") if fleet else 0,
        "fleet.migrations": _delta(stats, "fleet", "drain_notices")
        + _delta(stats, "fleet", "crash_notices")
        if fleet
        else 0,
        "proc.cpu_utilization": max(cpu_s.values()) / wall if cpu_s else 0.0,
        "proc.threads_max": max(traced.threads.values()) if traced.threads else 0,
        "load.lateness_ms_p99": _pct(traced.lateness_ms, 99),
        "load.cpu_utilization": traced.load_cpu_s / wall,
        "trace.overhead_share": 1.0 - traced.sessions_per_core / untraced_sessions_per_core
        if untraced_sessions_per_core
        else 0.0,
    }
