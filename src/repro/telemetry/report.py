"""Summarize a telemetry run directory into a human-readable report.

``repro telemetry-report DIR`` front-ends :func:`summarize_run`, which
reads the files ``Telemetry.flush()`` wrote (any subset — a missing
file just drops its section) and reports:

* span totals per name (count, total, mean);
* per-stage latency percentiles from the fixed-bucket histograms;
* the health-machine timeline;
* nulling convergence (residual power per iteration, with a sparkline);
* injected faults, stream gaps, and detections.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path
from typing import Any

from repro.telemetry.events import read_jsonl_tolerant
from repro.telemetry.metrics import Histogram
from repro.telemetry.session import EVENTS_FILE, METRICS_FILE, SPANS_FILE, TRACE_FILE

_SPARK_LEVELS = " .:-=+*#%@"


def _sparkline(values: list[float]) -> str:
    """A log-scaled character strip of a positive decaying series."""
    import math

    if not values:
        return ""
    floors = [max(v, 1e-300) for v in values]
    logs = [math.log10(v) for v in floors]
    lo, hi = min(logs), max(logs)
    if hi - lo < 1e-12:
        return _SPARK_LEVELS[-1] * len(values)
    top = len(_SPARK_LEVELS) - 1
    return "".join(
        _SPARK_LEVELS[int(round((v - lo) / (hi - lo) * top))] for v in logs
    )


def _load_metrics(directory: Path) -> tuple[dict[str, dict[str, Any]], bool]:
    """``(metrics, unreadable)`` — a torn metrics.json drops its section."""
    path = directory / METRICS_FILE
    if not path.exists():
        return {}, False
    try:
        metrics = json.loads(path.read_text(encoding="utf-8"))
    except ValueError:
        return {}, True
    if not isinstance(metrics, dict):
        return {}, True
    return metrics, False


def _span_section(directory: Path, lines: list[str]) -> int:
    path = directory / SPANS_FILE
    if not path.exists():
        return 0
    spans, skipped = read_jsonl_tolerant(path)
    lines.append(f"spans: {len(spans)} recorded")
    if not spans:
        return skipped
    by_name: dict[str, list[float]] = defaultdict(list)
    for span in spans:
        by_name[span["name"]].append(span["duration_us"] / 1e3)
    lines.append(f"  {'span':<28} {'count':>6} {'total ms':>10} {'mean ms':>9}")
    for name in sorted(by_name, key=lambda n: -sum(by_name[n])):
        durations = by_name[name]
        lines.append(
            f"  {name:<28} {len(durations):>6} {sum(durations):>10.2f} "
            f"{sum(durations) / len(durations):>9.3f}"
        )
    return skipped


def _stage_section(metrics: dict[str, dict[str, Any]], lines: list[str]) -> None:
    prefix, suffix = "stage.", ".latency_ms"
    stage_names = [
        name[len(prefix) : -len(suffix)]
        for name in metrics
        if name.startswith(prefix)
        and name.endswith(suffix)
        and metrics[name].get("type") == "histogram"
    ]
    if not stage_names:
        return
    lines.append("stage latency percentiles (ms):")
    lines.append(
        f"  {'stage':<12} {'count':>7} {'p50':>9} {'p90':>9} {'p99':>9} {'errors':>7}"
    )
    for stage in sorted(stage_names):
        snap = metrics[f"{prefix}{stage}{suffix}"]
        histogram = Histogram.from_snapshot(stage, snap)
        errors = metrics.get(f"stage.{stage}.errors", {}).get("value", 0)
        lines.append(
            f"  {stage:<12} {histogram.count:>7} "
            f"{histogram.percentile(0.50):>9.3f} "
            f"{histogram.percentile(0.90):>9.3f} "
            f"{histogram.percentile(0.99):>9.3f} "
            f"{int(errors):>7}"
        )


def _health_section(events: list[dict[str, Any]], lines: list[str]) -> None:
    transitions = [e for e in events if e["kind"] == "health.transition"]
    if not transitions:
        return
    lines.append(f"health timeline: {len(transitions)} transitions")
    for event in transitions:
        where = event.get("capture_index", event.get("block_index", "?"))
        lines.append(
            f"  [{where}] {event.get('source', '?')} -> "
            f"{event.get('target', event.get('state', '?'))}: "
            f"{event.get('reason', '')}"
        )


def _nulling_section(events: list[dict[str, Any]], lines: list[str]) -> None:
    residuals = [e for e in events if e["kind"] == "nulling.residual"]
    if not residuals:
        return
    runs: dict[Any, list[dict[str, Any]]] = defaultdict(list)
    for event in residuals:
        runs[event.get("span_id")].append(event)
    lines.append(f"nulling convergence: {len(runs)} run(s)")
    for index, span_id in enumerate(sorted(runs, key=lambda s: str(s))):
        history = sorted(runs[span_id], key=lambda e: e.get("iteration", 0))
        powers = [e["residual_power"] for e in history]
        ratio = powers[-1] / powers[0] if powers[0] > 0 else float("nan")
        lines.append(
            f"  run {index + 1}: {len(powers) - 1} iterations, "
            f"{powers[0]:.3e} -> {powers[-1]:.3e} "
            f"({ratio:.2e}x)  |{_sparkline(powers)}|"
        )


def _event_counts_section(events: list[dict[str, Any]], lines: list[str]) -> None:
    faults = [e for e in events if e["kind"] == "fault.injected"]
    if faults:
        lines.append(f"fault injections: {len(faults)}")
        for event in faults:
            lines.append(
                f"  {event.get('time_s', 0.0):.3f}s {event.get('fault', '?')}: "
                f"{event.get('samples_touched', 0)} samples "
                f"({event.get('detail', '')})"
            )
    gaps = [e for e in events if e["kind"] == "stream.gap"]
    if gaps:
        dropped = sum(int(e.get("dropped_samples", 0)) for e in gaps)
        lines.append(f"stream gaps: {len(gaps)} ({dropped} samples lost)")
    detections = [e for e in events if e["kind"] == "stream.detection"]
    if detections:
        lines.append(f"detections: {len(detections)}")
    windows = [e for e in events if e["kind"] == "music.eigenvalues"]
    if windows:
        fallbacks = [e for e in events if e["kind"] == "music.fallback"]
        lines.append(
            f"music windows: {len(windows)} eigendecompositions, "
            f"{len(fallbacks)} degeneracy fallbacks"
        )


def summarize_run(directory: str | Path) -> str:
    """Render the report for one telemetry directory.

    Raises:
        FileNotFoundError: the directory does not exist or holds none
            of the telemetry files.
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise FileNotFoundError(f"telemetry directory {directory} does not exist")
    known = (SPANS_FILE, TRACE_FILE, EVENTS_FILE, METRICS_FILE)
    present = [name for name in known if (directory / name).exists()]
    if not present:
        raise FileNotFoundError(
            f"{directory} contains no telemetry files ({', '.join(known)})"
        )
    lines = [f"telemetry report: {directory}", f"files: {', '.join(present)}", ""]
    skipped_lines = _span_section(directory, lines)
    metrics, metrics_unreadable = _load_metrics(directory)
    _stage_section(metrics, lines)
    events_path = directory / EVENTS_FILE
    events: list[dict[str, Any]] = []
    if events_path.exists():
        events, skipped_events = read_jsonl_tolerant(events_path)
        skipped_lines += skipped_events
    _health_section(events, lines)
    _nulling_section(events, lines)
    _event_counts_section(events, lines)
    counters = [
        (name, snap["value"])
        for name, snap in metrics.items()
        if snap.get("type") == "counter" and not name.startswith("stage.")
    ]
    if counters:
        lines.append("counters:")
        for name, value in counters:
            lines.append(f"  {name:<28} {value:g}")
    if skipped_lines:
        lines.append(
            f"skipped {skipped_lines} truncated/partial JSONL line(s) "
            "(unflushed or interrupted writer)"
        )
    if metrics_unreadable:
        lines.append(f"{METRICS_FILE} was unreadable (truncated write?); skipped")
    return "\n".join(lines)
