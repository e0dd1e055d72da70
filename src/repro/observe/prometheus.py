"""Render registry snapshots in the Prometheus text exposition format.

Input is the plain-dict snapshot shape every repro instrument speaks
(``{"type": "counter"|"gauge"|"histogram", ...}``), so one renderer
covers the telemetry registry, ``ServerStats``, ``SchedulerStats``,
and the hub's own accounting.  Histograms come out as cumulative
``le``-labelled buckets ending in ``+Inf`` plus ``_sum``/``_count``,
which is what makes scrape-side p50/p90/p99 (``histogram_quantile``)
work; floats are emitted with ``repr`` so they round-trip exactly —
the exposition-equals-offline-aggregates test depends on it.
"""

from __future__ import annotations

import re
from typing import Any

_NAME_RE = re.compile(r"[^a-zA-Z0-9_]")


def sanitize_metric_name(name: str, prefix: str = "repro") -> str:
    """``server.requests`` -> ``repro_server_requests``."""
    cleaned = _NAME_RE.sub("_", name)
    if not cleaned or cleaned[0].isdigit():
        cleaned = f"_{cleaned}"
    return f"{prefix}_{cleaned}" if prefix else cleaned


def format_value(value: Any) -> str:
    """A Prometheus-parseable number that round-trips floats exactly."""
    if value is None:
        return "NaN"
    number = float(value)
    if number == float("inf"):
        return "+Inf"
    if number == float("-inf"):
        return "-Inf"
    if number.is_integer() and abs(number) < 1e15:
        return str(int(number))
    return repr(number)


def _label_block(snap: dict[str, Any]) -> str:
    """``{k="v",...}`` from an optional ``labels`` mapping on the snap.

    Info-style samples (``repro_dsp_backend_info{backend="..."} 1``)
    carry their identity in labels; ordinary instruments have none and
    render unchanged.  Label values are sanitized to the same
    no-escaping subset :func:`parse_exposition` reads back.
    """
    labels = snap.get("labels")
    if not labels:
        return ""
    pairs = ",".join(
        f'{_NAME_RE.sub("_", str(key))}="{str(value).replace(chr(34), "_")}"'
        for key, value in sorted(labels.items())
    )
    return f"{{{pairs}}}"


def _sample_lines(name: str, snap: dict[str, Any], lines: list[str]) -> None:
    """One sample line — or several, for a labeled family.

    A snap carrying ``"samples": [{"labels": {...}, "value": v}, ...]``
    is a *family*: one ``# TYPE`` line, one sample per entry (the shape
    per-shard fleet gauges use, since a dict key can only name a family
    once).  Ordinary single-value snaps render unchanged.
    """
    samples = snap.get("samples")
    if samples is None:
        lines.append(f"{name}{_label_block(snap)} {format_value(snap['value'])}")
        return
    for sample in samples:
        lines.append(
            f"{name}{_label_block(sample)} {format_value(sample['value'])}"
        )


def _render_counter(name: str, snap: dict[str, Any], lines: list[str]) -> None:
    lines.append(f"# TYPE {name} counter")
    _sample_lines(name, snap, lines)


def _render_gauge(name: str, snap: dict[str, Any], lines: list[str]) -> None:
    lines.append(f"# TYPE {name} gauge")
    _sample_lines(name, snap, lines)


def _render_histogram(name: str, snap: dict[str, Any], lines: list[str]) -> None:
    lines.append(f"# TYPE {name} histogram")
    cumulative = 0
    for edge, count in zip(snap["buckets"], snap["counts"]):
        cumulative += count
        lines.append(f'{name}_bucket{{le="{format_value(edge)}"}} {cumulative}')
    lines.append(f'{name}_bucket{{le="+Inf"}} {snap["count"]}')
    lines.append(f"{name}_sum {format_value(snap['sum'])}")
    lines.append(f"{name}_count {snap['count']}")


def render_prometheus(
    snapshot: dict[str, dict[str, Any]], prefix: str = "repro"
) -> str:
    """The full exposition for one name->snapshot mapping, sorted."""
    lines: list[str] = []
    for raw_name in sorted(snapshot):
        snap = snapshot[raw_name]
        name = sanitize_metric_name(raw_name, prefix)
        kind = snap.get("type")
        if kind == "counter":
            _render_counter(name, snap, lines)
        elif kind == "gauge":
            _render_gauge(name, snap, lines)
        elif kind == "histogram":
            _render_histogram(name, snap, lines)
        else:
            raise ValueError(f"unknown metric type {kind!r} for {raw_name!r}")
    return "\n".join(lines) + "\n" if lines else ""


def parse_exposition(text: str) -> dict[str, float]:
    """Sample name+labels -> value, for tests and the bench consumer.

    Parses the subset this module emits (no escaping inside label
    values); the key is the sample name including its label block,
    e.g. ``repro_server_request_latency_ms_bucket{le="1"}``.
    """
    samples: dict[str, float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.rpartition(" ")
        if not key:
            continue
        samples[key] = float(value)
    return samples
