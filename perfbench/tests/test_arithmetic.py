"""The benchmark's own arithmetic, checked against fakes with known timings.

Run: ``python3 -m pytest perfbench/tests -q``.
"""

import json
import statistics
import time

import numpy as np
import pytest

import layers
import run
import stats
from loadgen import Phases, Request
from tracing import SpanStore


# -- percentiles and the choice of which one a sample supports ----------


def test_percentile_matches_numpy_linear_interpolation():
    values = list(np.random.default_rng(3).exponential(size=257))
    for q in (0, 1, 50, 90, 99, 99.9, 100):
        assert stats.percentile(values, q) == pytest.approx(np.percentile(values, q))


@pytest.mark.parametrize(
    "count, expected",
    [(1000, 99.0), (999, 90.0), (100, 90.0), (99, None), (5, None)],
)
def test_tail_percentile_needs_ten_samples_beyond(count, expected):
    assert stats.tail_percentile(count) == expected


def test_supported_counts_samples_beyond():
    assert stats.beyond(250, 90) == pytest.approx(25.0)
    assert stats.supported(100, 90) and not stats.supported(99, 90)


def test_chunked_percentiles_confine_a_stall_to_its_chunk():
    steady = [1.0] * 1000
    stalled = steady[:800] + [500.0] * 200  # the last fifth stalled
    assert stats.chunked_percentiles(stalled, 90, chunks=5) == [1.0, 1.0, 1.0, 1.0, 500.0]
    # Their median, which the report prints, ignores the stall; the
    # whole-phase percentile does not.
    assert run.describe_latency(stalled, 90).startswith("latency_p90_ms: 1.000 ms")
    assert stats.percentile(stalled, 90) == 500.0
    # 150 samples hold one chunk for p90 (100 each), so the whole run counts.
    values = [float(v) for v in range(150)]
    assert stats.chunked_percentiles(values, 90) == [stats.percentile(values, 90)]
    # p50 needs only 20 per chunk.
    assert len(stats.chunked_percentiles(values, 50, chunks=5)) == 5


def test_chunk_amounts_counts_instants_whole_and_spreads_calls():
    edges = [0.0, 1.0, 2.0, 3.0]
    instants = [(0.0, 0.0, 5), (0.99, 0.99, 1), (1.0, 1.0, 2), (3.0, 3.0, 7), (-1, -1, 9)]
    # Half-open chunks: an event at an edge counts in the later chunk,
    # and one at the last edge or before the first counts nowhere.
    assert stats.chunk_amounts(instants, edges) == [6.0, 2.0, 0.0]
    # A 2 s call over [0.5, 2.5] with 100 windows: a quarter, half, quarter.
    assert stats.chunk_amounts([(0.5, 2.5, 100)], edges) == pytest.approx([25.0, 50.0, 25.0])
    assert stats.chunk_rates([25.0, 50.0], [0.0, 0.5, 1.5]) == [50.0, 50.0]


def test_interpolate_between_and_beyond_samples():
    samples = [(0.0, 0.0), (1.0, 2.0), (3.0, 4.0)]
    assert stats.interpolate(samples, 0.5) == pytest.approx(1.0)
    assert stats.interpolate(samples, 2.0) == pytest.approx(3.0)
    assert stats.interpolate(samples, -1.0) == 0.0
    assert stats.interpolate(samples, 9.0) == 4.0
    with pytest.raises(ValueError):
        stats.interpolate([], 1.0)


# -- failure ratio and real-time sessions per core ----------------------


def test_failed_ratio():
    assert stats.failed_ratio(200, 3) == pytest.approx(0.015)
    assert stats.failed_ratio(7, 0) == 0.0
    with pytest.raises(ValueError):
        stats.failed_ratio(0, 0)
    with pytest.raises(ValueError):
        stats.failed_ratio(5, 6)


def test_sessions_per_core_is_columns_over_realtime_rate_times_cpu():
    # 1250 columns on 2 CPU-seconds: 625 columns per CPU-second, i.e.
    # 50 streams of 12.5 columns/s per core.
    assert stats.sessions_per_core(1250, 2.0) == pytest.approx(50.0)
    with pytest.raises(ValueError):
        stats.sessions_per_core(10, 0.0)


# -- self time -----------------------------------------------------------


def test_self_time_subtracts_children_once():
    spans = [
        ("outer", 0.0, 10.0, -1),
        ("a", 1.0, 3.0, 0),
        ("b", 2.0, 5.0, 0),  # overlaps a: 1..5 is covered once
        ("c", 9.0, 12.0, 0),  # runs past its parent: only 9..10 counts
        ("leaf", 1.5, 2.0, 1),
    ]
    assert stats.self_times(spans) == pytest.approx([5.0, 1.5, 3.0, 3.0, 0.5])
    assert stats.covered_time([(1, 3), (2, 5), (9, 12)], 0, 10) == pytest.approx(5.0)


class FakeKernels:
    """A fake program layer whose calls take known times."""

    def outer(self, windows):
        time.sleep(0.04)
        self.inner(windows)
        self.inner(windows)
        return windows

    def inner(self, windows):
        time.sleep(0.03)
        return windows


def test_wrapped_fake_program_reports_known_self_times(tmp_path):
    store = SpanStore(str(tmp_path))
    FakeKernels.inner = store.timed(
        "inner", FakeKernels.inner, measure=lambda a, r, b: (len(a[1]), 0)
    )
    FakeKernels.outer = store.timed("outer", FakeKernels.outer)
    start = time.perf_counter()
    FakeKernels().outer([0] * 8)
    end = time.perf_counter()
    with open(store.dump()) as handle:
        record = json.load(handle)
    summary = layers.summarize(record, start, end)
    outer, inner = summary.total("outer"), summary.total("inner")
    assert (outer.calls, inner.calls, inner.n) == (1, 2, 16)
    assert outer.self_s == pytest.approx(0.04, abs=0.015)
    assert inner.per_unit_us() == pytest.approx(0.06 / 16 * 1e6, rel=0.25)
    # CPU is recorded once, on the top-level span, and covers its children.
    assert outer.top_level_cpu_s > 0.0 and inner.top_level_cpu_s == 0.0


def test_per_layer_divides_self_time_by_work_done():
    t0, t1 = 100.0, 110.0
    record = {
        "pid": 7,
        "spans": [
            ["estimate_windows_batch", 101.0, 101.5, -1, 16, 0, 0.5],
            ["covariance", 101.0, 101.1, 0, 16, 0, 0.0],
            ["eigh", 101.1, 101.3, 0, 16, 0, 0.0],
            ["classify", 101.3, 101.32, 0, 16, 12, 0.0],
            ["source_counts", 101.32, 101.34, 0, 0, 0, 0.0],
            ["pseudospectra", 101.34, 101.4, 0, 12, 0, 0.0],
            ["beamform", 101.4, 101.44, 0, 4, 0, 0.0],
            ["estimate_windows_batch", 120.0, 121.0, -1, 16, 0, 1.0],  # after t1
        ],
        "waits": [["submit", 101.0, 101.5], ["submit", 102.0, 102.1]],
        "observations": [["serve.request_latency_ms", 101.6, 2.0]],
    }
    traced = run.Pass(
        setup_s=[1.0],
        edges=[t0, t1],
        edge_cpu_s=[0.0, 2.0],
        chunk_columns=[16.0],
        latencies_ms=[3.5],
        send_latencies_ms=[3.5],
        cpu_s={7: 2.0},
        hwm_kb={7: 1024},
        threads={7: 3},
        load_cpu_s=1.0,
        lateness_ms=[],
        phases={},
        checked=16,
        diverged=0,
        problems=[],
    )
    # Traced: 16 columns on 2 CPU-seconds, 0.64 sessions per core.
    metrics = layers.per_layer({7: record}, [7], None, traced, untraced_sessions_per_core=0.8)
    assert set(metrics) == set(layers.PER_LAYER)
    assert metrics["dsp.covariance_us"] == pytest.approx(0.1 / 16 * 1e6)
    assert metrics["dsp.eigh_us"] == pytest.approx(0.2 / 16 * 1e6)
    assert metrics["dsp.guard_us"] == pytest.approx(0.04 / 16 * 1e6)
    assert metrics["dsp.pseudospectrum_us"] == pytest.approx(0.06 / 12 * 1e6)
    assert metrics["dsp.beamform_us"] == pytest.approx(0.04 / 4 * 1e6)
    assert metrics["dsp.music_accept_ratio"] == pytest.approx(12 / 16)
    assert metrics["tracking.self_us"] == pytest.approx(0.06 / 16 * 1e6)
    assert metrics["scheduler.wait_ms_p50"] == pytest.approx(300.0)
    assert metrics["server.request_ms_p50"] == pytest.approx(2.0)
    assert metrics["server.transport_ms_p50"] == pytest.approx(1.5)
    # One top-level span used 0.5 of the process's 2 CPU-seconds.
    assert metrics["server.untraced_share"] == pytest.approx(0.75)
    assert metrics["proc.cpu_utilization"] == pytest.approx(0.2)
    assert metrics["load.cpu_utilization"] == pytest.approx(0.1)
    assert metrics["trace.overhead_share"] == pytest.approx(0.2)
    assert metrics["fleet.relay_us"] == 0.0


# -- phases and end-to-end metrics of a fake run ------------------------


def _request(kind, due, done, error=None, sent=None):
    request = Request(kind=kind, due=due, sent=due if sent is None else sent, error=error)
    request.done = done
    return request


def test_phase_accounting_splits_warmup_and_timed_failures_by_class():
    phases = Phases(start=0.0, t0=2.0, t1=12.0)
    requests = [
        _request("open", 0.1, 0.2),
        _request("push", 1.0, 1.1, error="ServeOverloadError"),
        _request("push", 2.5, 2.6),
        _request("push", 3.0, 3.1, error="ServeTimeoutError"),
        _request("push", 4.0, 4.1, error="ServeTimeoutError"),
        _request("close", 11.9, 12.5),
        _request("stats", 5.0, 5.1),  # the benchmark's own probe
        _request("push", 12.5, 12.6),  # after the timed phase
    ]
    table = run.phase_accounting(requests, phases)
    assert table["warmup"] == {
        "attempted": 2,
        "succeeded": 1,
        "failed": 1,
        "errors": {"ServeOverloadError": 1},
    }
    assert table["timed"]["attempted"] == 4
    assert table["timed"]["errors"] == {"ServeTimeoutError": 2}
    assert stats.failed_ratio(table["timed"]["attempted"], table["timed"]["failed"]) == 0.5


def test_end_to_end_metrics_of_a_fake_run():
    latencies = [float(ms) for ms in range(1, 101)]  # 1..100 ms
    fake = run.Pass(
        setup_s=[1.2, 0.9, 1.0],
        edges=[0.0, 2.0, 4.0, 6.0, 8.0, 10.0],
        edge_cpu_s=[0.0, 0.8, 1.6, 2.4, 3.2, 4.0],
        chunk_columns=[1000.0] * 5,
        latencies_ms=latencies,
        send_latencies_ms=latencies,
        cpu_s={1: 3.0, 2: 1.0},
        hwm_kb={1: 1024 * 100, 2: 1024 * 50},
        threads={1: 3, 2: 2},
        load_cpu_s=0.5,
        lateness_ms=[],
        phases={},
        checked=5000,
        diverged=0,
        problems=[],
    )
    metrics = run.end_to_end(fake)
    assert set(metrics) == set(run.END_TO_END)
    assert metrics["columns_per_s"] == pytest.approx(500.0)
    # 100 samples: five chunks of 20 for p50 (a median of five chunk
    # medians), one chunk (the whole phase) for p90, too few for p99.
    assert run.describe_latency(latencies, 50).startswith("latency_p50_ms: 50.500 ms")
    assert run.describe_latency(latencies, 90).startswith("latency_p90_ms: 90.100 ms")
    assert run.describe_latency(latencies, 99).startswith("latency_p99_ms: unsupported")
    assert metrics["sessions_per_core"] == pytest.approx(5000 / (12.5 * 4.0))
    assert metrics["setup_s"] == pytest.approx(1.0)
    assert metrics["rss_mb"] == pytest.approx(150.0)
    assert run.validity(fake, open_loop=False) == []
    fake.load_cpu_s = 9.5
    assert run.validity(fake, open_loop=False)


def _chunked(columns_per_chunk: list[float]) -> "run.Pass":
    """A fake pass of one-second chunks, each on one CPU-second."""
    edges = [float(i) for i in range(len(columns_per_chunk) + 1)]
    return run.Pass(
        setup_s=[1.0],
        edges=edges,
        edge_cpu_s=list(edges),
        chunk_columns=columns_per_chunk,
        latencies_ms=[1.0],
        send_latencies_ms=[1.0],
        cpu_s={1: edges[-1]},
        hwm_kb={1: 1024},
        threads={1: 1},
        load_cpu_s=0.1,
        lateness_ms=[],
        phases={},
        checked=round(sum(columns_per_chunk)),
        diverged=0,
        problems=[],
    )


def test_rates_read_the_upper_decile_of_chunks():
    # A slow host phase over 16 of 20 seconds leaves the upper decile
    # at the fast phase's rate, where a median would read the slow one.
    fake = _chunked([300.0] * 8 + [500.0] * 4 + [300.0] * 8)
    assert statistics.median(stats.chunk_rates(fake.chunk_columns, fake.edges)) == 300.0
    assert fake.columns_per_s == pytest.approx(500.0)
    assert fake.sessions_per_core == pytest.approx(500.0 / 12.5)
    # Slow over all but one chunk: p90 of 20 sits between the 18th and
    # 19th values, both slow.
    assert _chunked([300.0] * 19 + [500.0]).columns_per_s == pytest.approx(300.0)
    # The percentile interpolates, as numpy's default does.
    assert _chunked([float(v) for v in range(11)]).columns_per_s == pytest.approx(9.0)
    assert run.rate_chunks(30.0) == 30 and run.rate_chunks(0.2) == 1


def test_chunk_percentiles_ignore_one_stalled_chunk():
    # The third second stalled: 50 columns on a full CPU-second.
    fake = _chunked([500.0, 500.0, 50.0, 500.0, 500.0])
    assert fake.columns == 2050
    assert fake.columns_per_s == pytest.approx(500.0)
    assert fake.sessions_per_core == pytest.approx(500.0 / 12.5)
