"""Counters, gauges, fixed-bucket histograms, and stage accounting.

The registry is the cross-process half of the telemetry story: every
metric can :meth:`~MetricsRegistry.snapshot` itself into a plain JSON
dict and a registry can :meth:`~MetricsRegistry.merge` such snapshots
back in — counters add, histograms add bucket-wise, gauges keep the
most recent write.  A ProcessPool worker therefore records locally,
ships the snapshot home with its result (pickle-friendly), and the
parent's merged totals equal a serial run's exactly (enforced by
test).

This module also owns the per-stage accounting the streaming runtime
charges (:class:`StageMetrics` / :class:`StageTimer` /
:class:`RuntimeMetrics`).  Stage timers gained error accounting: a
stage that *raises* still pays its wall time but credits no output
items, and the failure is counted in ``StageMetrics.errors``.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.telemetry.context import get_telemetry

#: Default latency buckets (milliseconds): roughly log-spaced from
#: 50 us to 10 s, the range between a no-op stage call and a stuck one.
LATENCY_BUCKETS_MS: tuple[float, ...] = (
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0,
    100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0, 10000.0,
)


@dataclass
class Counter:
    """A monotonically-increasing count."""

    name: str
    value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount

    def snapshot(self) -> dict[str, Any]:
        return {"type": "counter", "value": self.value}

    def merge(self, snap: dict[str, Any]) -> None:
        self.value += snap["value"]


@dataclass
class Gauge:
    """A point-in-time value (last write wins, also on merge)."""

    name: str
    value: float = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def snapshot(self) -> dict[str, Any]:
        return {"type": "gauge", "value": self.value}

    def merge(self, snap: dict[str, Any]) -> None:
        self.value = snap["value"]


class Histogram:
    """A fixed-bucket histogram with Prometheus-style ``le`` edges.

    ``buckets`` are ascending upper edges; a value lands in the first
    bucket whose edge is **>= value** (edges are inclusive), and values
    above the last edge land in the implicit overflow bucket, so
    ``counts`` has ``len(buckets) + 1`` entries.  Alongside the bucket
    counts the histogram tracks count/sum/min/max, which makes merged
    percentile estimates and exact means possible.
    """

    def __init__(self, name: str, buckets: tuple[float, ...] = LATENCY_BUCKETS_MS):
        if not buckets:
            raise ValueError("need at least one bucket edge")
        edges = tuple(float(edge) for edge in buckets)
        if any(b <= a for a, b in zip(edges, edges[1:])):
            raise ValueError("bucket edges must be strictly ascending")
        self.name = name
        self.buckets = edges
        self.counts = [0] * (len(edges) + 1)
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf

    @classmethod
    def from_snapshot(cls, name: str, snap: dict[str, Any]) -> Histogram:
        """The histogram a :meth:`snapshot` describes, rebuilt by :meth:`merge`."""
        histogram = cls(name, tuple(snap["buckets"]))
        histogram.merge(snap)
        return histogram

    def observe(self, value: float) -> None:
        value = float(value)
        index = len(self.buckets)
        for i, edge in enumerate(self.buckets):
            if value <= edge:
                index = i
                break
        self.counts[index] += 1
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Bucket-resolution quantile estimate, ``q`` in [0, 1].

        Returns the upper edge of the bucket holding the q-th
        observation (the overflow bucket reports the observed max);
        exact to within one bucket width, which is what fixed-bucket
        histograms buy in exchange for constant memory.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        if self.count == 0:
            return 0.0
        rank = max(1, math.ceil(q * self.count))
        seen = 0
        for i, bucket_count in enumerate(self.counts):
            seen += bucket_count
            if seen >= rank:
                if i < len(self.buckets):
                    return self.buckets[i]
                return self.max
        return self.max  # pragma: no cover - rank <= count by construction

    def snapshot(self) -> dict[str, Any]:
        return {
            "type": "histogram",
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.sum,
            "min": None if self.count == 0 else self.min,
            "max": None if self.count == 0 else self.max,
        }

    def merge(self, snap: dict[str, Any]) -> None:
        if tuple(snap["buckets"]) != self.buckets:
            raise ValueError(
                f"cannot merge histogram {self.name!r}: bucket edges differ"
            )
        for i, count in enumerate(snap["counts"]):
            self.counts[i] += count
        self.count += snap["count"]
        self.sum += snap["sum"]
        if snap["min"] is not None and snap["min"] < self.min:
            self.min = snap["min"]
        if snap["max"] is not None and snap["max"] > self.max:
            self.max = snap["max"]


class MetricsRegistry:
    """A named collection of counters, gauges, and histograms.

    ``counter``/``gauge``/``histogram`` create on first use and return
    the live instrument; a name can hold only one instrument kind.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}

    def _get(self, name: str, kind: type, factory):
        metric = self._metrics.get(name)
        if metric is None:
            metric = factory()
            self._metrics[name] = metric
        elif not isinstance(metric, kind):
            raise TypeError(
                f"metric {name!r} is a {type(metric).__name__}, "
                f"not a {kind.__name__}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter, lambda: Counter(name))

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge, lambda: Gauge(name))

    def histogram(
        self, name: str, buckets: tuple[float, ...] = LATENCY_BUCKETS_MS
    ) -> Histogram:
        histogram = self._get(name, Histogram, lambda: Histogram(name, buckets))
        if histogram.buckets != tuple(float(b) for b in buckets):
            raise ValueError(f"histogram {name!r} already exists with other buckets")
        return histogram

    def names(self) -> list[str]:
        return sorted(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    def get(self, name: str) -> Counter | Gauge | Histogram | None:
        return self._metrics.get(name)

    def snapshot(self) -> dict[str, dict[str, Any]]:
        """A plain-JSON view of every metric, keyed by name, sorted."""
        return {name: self._metrics[name].snapshot() for name in sorted(self._metrics)}

    def merge(self, snapshot: dict[str, dict[str, Any]]) -> None:
        """Fold a :meth:`snapshot` (possibly from another process) in.

        Unknown names are created with the snapshot's own shape, so a
        fresh registry can absorb any set of worker snapshots.
        """
        for name, snap in snapshot.items():
            kind = snap["type"]
            if kind == "counter":
                self.counter(name).merge(snap)
            elif kind == "gauge":
                self.gauge(name).merge(snap)
            elif kind == "histogram":
                self.histogram(name, tuple(snap["buckets"])).merge(snap)
            else:
                raise ValueError(f"unknown metric type {kind!r} for {name!r}")

    def export_json(self, path: str | Path) -> Path:
        path = Path(path)
        path.write_text(json.dumps(self.snapshot(), indent=2), encoding="utf-8")
        return path


def diff_snapshot(
    prev: dict[str, dict[str, Any]], cur: dict[str, dict[str, Any]]
) -> dict[str, dict[str, Any]]:
    """The delta between two registry snapshots, in merge form.

    Feeding every delta of a snapshot chain (starting from ``{}``) to
    :meth:`MetricsRegistry.merge` reproduces the final snapshot: counter
    values and histogram bucket counts are integer-valued in practice so
    their subtract-then-add round trip is exact; histogram ``min``/``max``
    carry the running extrema (merge keeps extrema, so cumulative values
    merge exactly); gauges carry the current value (last write wins).
    Histogram ``sum`` telescopes up to float rounding.  Metrics that did
    not change since ``prev`` are omitted; metrics never shrink, so a
    name present in ``prev`` but not ``cur`` cannot happen with a live
    registry and is ignored.
    """
    delta: dict[str, dict[str, Any]] = {}
    for name, snap in cur.items():
        kind = snap["type"]
        before = prev.get(name)
        if before is not None and before["type"] != kind:
            raise ValueError(
                f"metric {name!r} changed type {before['type']!r} -> {kind!r}"
            )
        if kind == "counter":
            base = before["value"] if before else 0.0
            if snap["value"] != base:
                delta[name] = {"type": "counter", "value": snap["value"] - base}
        elif kind == "gauge":
            if before is None or before["value"] != snap["value"]:
                delta[name] = {"type": "gauge", "value": snap["value"]}
        elif kind == "histogram":
            if before is not None and list(before["buckets"]) != list(snap["buckets"]):
                raise ValueError(f"histogram {name!r} bucket edges changed")
            base_count = before["count"] if before else 0
            if snap["count"] == base_count:
                continue
            base_counts = before["counts"] if before else [0] * len(snap["counts"])
            delta[name] = {
                "type": "histogram",
                "buckets": list(snap["buckets"]),
                "counts": [c - b for c, b in zip(snap["counts"], base_counts)],
                "count": snap["count"] - base_count,
                "sum": snap["sum"] - (before["sum"] if before else 0.0),
                "min": snap["min"],
                "max": snap["max"],
            }
        else:
            raise ValueError(f"unknown metric type {kind!r} for {name!r}")
    return delta


# ----------------------------------------------------------------------
# Stage accounting (absorbed from the retired runtime metrics module)
# ----------------------------------------------------------------------


@dataclass
class StageMetrics:
    """Work accounting for one pipeline stage.

    Attributes:
        name: stage label ("source", "track", ...).
        invocations: how many times the stage ran.
        items_in: units consumed (samples for the source/condition
            stages, columns for detect/sink).
        items_out: units produced.
        busy_s: total wall time spent inside the stage.
        errors: invocations that raised (their wall time is still
            charged, but no output items are credited).
    """

    name: str
    invocations: int = 0
    items_in: int = 0
    items_out: int = 0
    busy_s: float = 0.0
    errors: int = 0

    def charge(
        self,
        elapsed_s: float,
        items_in: int = 0,
        items_out: int = 0,
        error: bool = False,
    ) -> None:
        """Record one invocation of the stage."""
        if elapsed_s < 0:
            raise ValueError("elapsed time cannot be negative")
        self.invocations += 1
        self.items_in += items_in
        self.items_out += 0 if error else items_out
        self.busy_s += elapsed_s
        if error:
            self.errors += 1

    @property
    def mean_latency_s(self) -> float:
        """Mean wall time per invocation (0 before the first one)."""
        if self.invocations == 0:
            return 0.0
        return self.busy_s / self.invocations

    @property
    def throughput_per_s(self) -> float:
        """Items produced per busy second (0 when the stage never ran)."""
        if self.busy_s <= 0.0:
            return 0.0
        return self.items_out / self.busy_s

    def describe(self) -> str:
        line = (
            f"{self.name}: {self.invocations} calls, "
            f"{self.items_in} in -> {self.items_out} out, "
            f"{1e3 * self.mean_latency_s:.3f} ms/call, "
            f"{self.throughput_per_s:.1f} items/s busy"
        )
        if self.errors:
            line += f", {self.errors} errors"
        return line

    def snapshot(self) -> dict[str, Any]:
        return {
            "invocations": self.invocations,
            "items_in": self.items_in,
            "items_out": self.items_out,
            "busy_s": self.busy_s,
            "errors": self.errors,
        }

    def merge(self, snap: dict[str, Any]) -> None:
        self.invocations += snap["invocations"]
        self.items_in += snap["items_in"]
        self.items_out += snap["items_out"]
        self.busy_s += snap["busy_s"]
        self.errors += snap.get("errors", 0)


class StageTimer:
    """Context manager charging a block's wall time to a stage.

    Usage::

        with StageTimer(metrics, items_in=len(block)) as timer:
            columns = tracker.push(block)
            timer.items_out = len(columns)

    On an exception the elapsed time is still charged (it was really
    spent) but ``items_out`` is *not* credited and the stage's
    ``errors`` count goes up — a stage that dies mid-block must not
    report the work it failed to finish.

    When telemetry is active the elapsed time is additionally observed
    into the global ``stage.<name>.latency_ms`` histogram (and errors
    into ``stage.<name>.errors``); when it is not, the only cost over
    the raw charge is one enabled-flag check.
    """

    def __init__(self, metrics: StageMetrics, items_in: int = 0, items_out: int = 0):
        self.metrics = metrics
        self.items_in = items_in
        self.items_out = items_out
        self._start = 0.0

    def __enter__(self) -> StageTimer:
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        elapsed = time.perf_counter() - self._start
        failed = exc_type is not None
        self.metrics.charge(
            elapsed,
            items_in=self.items_in,
            items_out=self.items_out,
            error=failed,
        )
        telemetry = get_telemetry()
        if telemetry.enabled:
            telemetry.metrics.histogram(
                f"stage.{self.metrics.name}.latency_ms", LATENCY_BUCKETS_MS
            ).observe(elapsed * 1e3)
            if failed:
                telemetry.metrics.counter(f"stage.{self.metrics.name}.errors").inc()
        return False


@dataclass
class RuntimeMetrics:
    """The pipeline's full metric set, one :class:`StageMetrics` per stage."""

    stages: dict[str, StageMetrics] = field(default_factory=dict)

    def stage(self, name: str) -> StageMetrics:
        """The named stage's metrics, created on first use."""
        if name not in self.stages:
            self.stages[name] = StageMetrics(name=name)
        return self.stages[name]

    def describe(self) -> list[str]:
        """One deterministic-format line per stage, in creation order."""
        return [metrics.describe() for metrics in self.stages.values()]

    def snapshot(self) -> dict[str, dict[str, Any]]:
        """Plain-dict view, mergeable across processes."""
        return {name: stage.snapshot() for name, stage in self.stages.items()}

    def merge(self, snapshot: dict[str, dict[str, Any]]) -> None:
        """Fold another pipeline's :meth:`snapshot` into this one."""
        for name, snap in snapshot.items():
            self.stage(name).merge(snap)
