"""The benchmark's own arithmetic, kept free of I/O so it can be self-tested.

Everything here is a pure function of numbers the run collected:
percentiles, the choice of which percentile a sample supports, medians
over time-ordered chunks of a run, failure ratios, real-time sessions
per core, and span self time.
"""

from __future__ import annotations

import bisect
import math
from typing import Iterable, Sequence

#: The paper's real-time rate: one spectrogram column per 80 ms hop.
REALTIME_COLUMNS_PER_S = 12.5

#: A percentile is reported only when at least this many samples lie
#: beyond it.
MIN_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) with linear interpolation.

    Matches ``numpy.percentile``'s default method.

    Raises:
        ValueError: ``values`` is empty or ``q`` is outside [0, 100].
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile {q} outside [0, 100]")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def beyond(count: int, q: float) -> float:
    """How many of ``count`` samples lie beyond the ``q``-th percentile."""
    return count * (100.0 - q) / 100.0


def supported(count: int, q: float) -> bool:
    """Whether ``count`` samples put at least ten beyond the ``q``-th percentile."""
    return beyond(count, q) >= MIN_BEYOND - 1e-9


def tail_percentile(count: int) -> float | None:
    """The higher of p99 and p90 with ten samples beyond it, if either has."""
    for q in (99.0, 90.0):
        if supported(count, q):
            return q
    return None


def chunked_percentiles(values: Sequence[float], q: float, chunks: int = 10) -> list[float]:
    """Each time-ordered chunk's ``q``-th percentile.

    ``values`` are in the order they were measured.  They are cut into
    at most ``chunks`` equal runs, each long enough to hold ten samples
    beyond the percentile; with too few samples for two chunks there is
    one, the whole sample.

    Raises:
        ValueError: ``values`` is empty.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    per_chunk = MIN_BEYOND * 100.0 / (100.0 - q) if q < 100 else len(values)
    count = max(1, min(chunks, int(len(values) // per_chunk)))
    size = len(values) / count
    return [
        percentile(values[round(i * size) : round((i + 1) * size)], q) for i in range(count)
    ]


def chunk_amounts(
    events: Iterable[tuple[float, float, float]], edges: Sequence[float]
) -> list[float]:
    """The work done in each interval between consecutive ``edges``.

    ``events`` are ``(start, end, amount)``.  An instant event
    (``start == end``) counts whole in the half-open interval
    ``[edges[i], edges[i + 1])`` holding it; a longer one is spread
    evenly over ``[start, end]`` and counts in each interval by the
    share of it that lies there.  Work outside the edges is dropped.
    """
    amounts = [0.0] * (len(edges) - 1)
    for start, end, amount in events:
        if end <= start:
            index = bisect.bisect_right(edges, end) - 1
            if 0 <= index < len(amounts):
                amounts[index] += amount
            continue
        for index in range(len(amounts)):
            overlap = min(end, edges[index + 1]) - max(start, edges[index])
            if overlap > 0:
                amounts[index] += amount * overlap / (end - start)
    return amounts


def interpolate(samples: Sequence[tuple[float, float]], when: float) -> float:
    """Linear interpolation of time-ordered ``(time, value)`` samples at ``when``.

    Clamped to the first and last sample outside their range.

    Raises:
        ValueError: ``samples`` is empty.
    """
    if not samples:
        raise ValueError("interpolation needs at least one sample")
    times = [t for t, _ in samples]
    index = bisect.bisect_right(times, when)
    if index == 0:
        return samples[0][1]
    if index == len(samples):
        return samples[-1][1]
    (t0, v0), (t1, v1) = samples[index - 1], samples[index]
    return v0 + (v1 - v0) * (when - t0) / (t1 - t0) if t1 > t0 else v1


def chunk_rates(amounts: Sequence[float], edges: Sequence[float]) -> list[float]:
    """Each chunk's amount over its length in seconds."""
    return [amount / (hi - lo) for amount, (lo, hi) in zip(amounts, zip(edges, edges[1:]))]


def failed_ratio(attempted: int, failed: int) -> float:
    """Failed over attempted operations.

    Raises:
        ValueError: nothing was attempted, or the counts are inconsistent.
    """
    if attempted < 1:
        raise ValueError("failed_ratio needs at least one attempted operation")
    if not 0 <= failed <= attempted:
        raise ValueError(f"{failed} failures out of {attempted} attempts")
    return failed / attempted


def sessions_per_core(columns: int, cpu_seconds: float) -> float:
    """Real-time streams one core carries: columns / (12.5 x CPU-seconds).

    Raises:
        ValueError: no CPU time was measured.
    """
    if cpu_seconds <= 0.0:
        raise ValueError("sessions_per_core needs positive CPU time")
    return columns / (REALTIME_COLUMNS_PER_S * cpu_seconds)


def covered_time(intervals: Iterable[tuple[float, float]], start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to [start, end)."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo = max(lo, cursor)
        hi = min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def self_times(spans: Sequence[tuple]) -> list[float]:
    """Each span's duration minus the part of it its children cover.

    ``spans`` are ``(name, start, end, parent, ...)`` tuples of one
    process, where ``parent`` is the index of the enclosing span or -1.
    Children are clipped to their parent's interval and overlapping
    children are counted once.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[3] >= 0:
            children.setdefault(span[3], []).append((span[1], span[2]))
    return [
        (end - start) - covered_time(children.get(index, ()), start, end)
        for index, (_, start, end, *_rest) in enumerate(spans)
    ]
