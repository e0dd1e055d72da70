"""Serving layer — cross-session micro-batching vs serial dispatch.

The number this bench exists for: **columns/s at 8 concurrent
sessions**, batched vs serial.  The serial baseline is the identical
server with ``max_batch_windows=1`` — every window pays its own
covariance/eigh/projection dispatch — so the ratio isolates exactly
what the continuous-batching scheduler buys, on the same hardware, the
same protocol, and the same client load.

The acceptance gate asserts the batched scheduler beats serial by
>= 2x; the committed baseline (``baselines/serve_load_baseline.json``)
gives CI a generous absolute floor on top.
"""

import asyncio
import json

from common import OUTPUT_DIR, SEED, emit, format_table, trial_count, write_bench_json
from repro.chaos import ChaosScheduleConfig
from repro.observe import ObserveConfig, ObserveGateway, TelemetryHub
from repro.observe.prometheus import parse_exposition
from repro.observe.wsclient import collect_live
from repro.serve import SchedulerConfig, SensingServer, ServeConfig
from repro.serve.load import run_load

SESSIONS = 8
BLOCK_SIZE = 400
MIN_BATCHED_SPEEDUP = 2.0
#: Chaos-mode knobs: enough sessions and faults that the recovery
#: percentiles are measured over dozens of reconnects, small enough to
#: stay in the CI time budget.
CHAOS_SEED = 7
CHAOS_SESSIONS = 6
CHAOS_BLOCK_SIZE = 200
CHAOS_SESSION_CONFIG = {"window_size": 64, "hop": 16, "subarray_size": 16}
#: Sessions run the 16-element subarray configuration: many small eigh
#: problems per tick is precisely the dispatch-bound regime the batched
#: DSP layer (PR 4) accelerates most, so it is the honest showcase for
#: what cross-session stacking buys.
SESSION_CONFIG = {"subarray_size": 16}


def _run_load_case(max_batch_windows: int, seconds: float):
    """One server + load-generator run, fully in-process."""

    async def run():
        server = SensingServer(
            ServeConfig(
                scheduler=SchedulerConfig(max_batch_windows=max_batch_windows)
            )
        )
        port = await server.start()
        try:
            return await run_load(
                "127.0.0.1",
                port,
                sessions=SESSIONS,
                seconds=seconds,
                block_size=BLOCK_SIZE,
                seed=SEED + 52,
                config=SESSION_CONFIG,
            )
        finally:
            await server.shutdown()

    return asyncio.run(run())


def bench_serve_load_batched_vs_serial():
    seconds = float(trial_count(3, 8))
    batched = _run_load_case(max_batch_windows=64, seconds=seconds)
    serial = _run_load_case(max_batch_windows=1, seconds=seconds)

    speedup = batched.columns_per_s / max(serial.columns_per_s, 1e-9)
    scheduler = batched.server_stats.get("scheduler", {})

    rows = [
        [
            "batched (64)",
            batched.columns,
            f"{batched.columns_per_s:.0f}",
            f"{batched.latency_percentile(0.5):.1f}",
            f"{batched.latency_percentile(0.99):.1f}",
            f"{scheduler.get('mean_batch_windows', 0):.1f}",
        ],
        [
            "serial (1)",
            serial.columns,
            f"{serial.columns_per_s:.0f}",
            f"{serial.latency_percentile(0.5):.1f}",
            f"{serial.latency_percentile(0.99):.1f}",
            f"{serial.server_stats.get('scheduler', {}).get('mean_batch_windows', 0):.1f}",
        ],
    ]
    table = format_table(
        ["scheduler", "columns", "cols/s", "p50 ms", "p99 ms", "batch"], rows
    )
    lines = [
        f"{SESSIONS} concurrent sessions, {BLOCK_SIZE}-sample pushes, "
        f"{seconds:.0f} s per case:",
        table,
        "",
        f"cross-session batching speedup: {speedup:.2f}x "
        f"(gate: >= {MIN_BATCHED_SPEEDUP:.1f}x)",
        f"shed requests: batched {batched.total('shed_requests')}, "
        f"serial {serial.total('shed_requests')}",
    ]
    emit("serve_load", "\n".join(lines))

    write_bench_json(
        "serve_load",
        {
            "sessions": SESSIONS,
            "block_size": BLOCK_SIZE,
            "subarray_size": SESSION_CONFIG["subarray_size"],
            "seconds_per_case": seconds,
            "columns_per_s": batched.columns_per_s,
            "columns_per_s_serial": serial.columns_per_s,
            "speedup_vs_serial": speedup,
            "latency_p50_ms": batched.latency_percentile(0.5),
            "latency_p99_ms": batched.latency_percentile(0.99),
            "batch_occupancy_mean": scheduler.get("mean_batch_windows", 0.0),
            "batch_occupancy_p99": scheduler.get("batch_p99", 0.0),
            "protocol_errors": batched.protocol_errors + serial.protocol_errors,
        },
    )

    assert batched.failures() == [], f"batched run failed: {batched.failures()}"
    assert serial.failures() == [], f"serial run failed: {serial.failures()}"
    assert batched.columns > 0, "batched run served no columns"
    assert speedup >= MIN_BATCHED_SPEEDUP, (
        f"cross-session batching speedup {speedup:.2f}x is below the "
        f"{MIN_BATCHED_SPEEDUP:.1f}x gate"
    )


def _run_chaos_case(pushes: int):
    """One chaos-mode run: hardened server + resilient clients."""

    async def run():
        server = SensingServer(ServeConfig(idle_timeout_s=5.0))
        port = await server.start()
        try:
            return await run_load(
                "127.0.0.1",
                port,
                sessions=CHAOS_SESSIONS,
                pushes=pushes,
                block_size=CHAOS_BLOCK_SIZE,
                seed=SEED + 53,
                chaos_seed=CHAOS_SEED,
                chaos_config=ChaosScheduleConfig(rate_scale=1.5),
                config=CHAOS_SESSION_CONFIG,
            )
        finally:
            await server.shutdown()

    return asyncio.run(run())


def bench_serve_load_chaos_recovery():
    """Chaos mode: reconnect-to-first-column recovery latency.

    Runs the seeded chaos load against a hardened in-process server and
    reports how long a killed-and-resumed session takes from the start
    of its reconnect to its first served column.  The correctness gates
    (zero divergence, defined terminal states) are asserted here too —
    a fast recovery that serves wrong columns is not a recovery.
    """
    pushes = trial_count(12, 32)
    report = _run_chaos_case(pushes)

    p50 = report.recovery_percentile(0.5)
    p99 = report.recovery_percentile(0.99)
    reconnects = report.total("reconnects")
    resumes = report.total("resumes")
    chaos_events = report.total("chaos_events_applied")

    rows = [
        [
            f"chaos (seed {CHAOS_SEED})",
            chaos_events,
            reconnects,
            resumes,
            len(report.recovery_latencies_s),
            f"{p50:.1f}",
            f"{p99:.1f}",
        ]
    ]
    table = format_table(
        ["case", "events", "reconnects", "resumes", "samples", "p50 ms", "p99 ms"],
        rows,
    )
    lines = [
        f"{CHAOS_SESSIONS} chaos sessions, {pushes} pushes of "
        f"{CHAOS_BLOCK_SIZE} samples each:",
        table,
        "",
        f"diverged columns: {report.diverged_columns} (gate: 0), "
        f"all outcomes defined: {report.all_defined}",
    ]
    emit("serve_load_chaos", "\n".join(lines))

    # ``write_bench_json`` overwrites, so fold the chaos numbers into
    # the throughput bench's file rather than clobbering it.
    result_path = OUTPUT_DIR / "BENCH_serve_load.json"
    merged = json.loads(result_path.read_text()) if result_path.exists() else {}
    merged.pop("git_sha", None)
    merged.update(
        {
            "chaos_seed": CHAOS_SEED,
            "chaos_sessions": CHAOS_SESSIONS,
            "chaos_pushes": pushes,
            "chaos_events": chaos_events,
            "chaos_reconnects": reconnects,
            "chaos_recovery_samples": len(report.recovery_latencies_s),
            "chaos_recovery_p50_ms": p50,
            "chaos_recovery_p99_ms": p99,
            "chaos_diverged_columns": report.diverged_columns,
        }
    )
    write_bench_json("serve_load", merged)

    assert report.failures() == [], f"chaos run failed its verdict: {report.failures()}"
    assert chaos_events > 0, "chaos run injected no faults"
    assert report.recovery_latencies_s, "no reconnect recovered a column"


#: The observability tax the dashboard mode may charge the serve path.
MAX_DASHBOARD_OVERHEAD_PCT = 5.0


async def _scrape_metrics(port: int) -> str:
    """One raw in-loop ``GET /metrics`` (no threads, no blocking I/O)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(b"GET /metrics HTTP/1.1\r\nHost: bench\r\n\r\n")
    await writer.drain()
    raw = await reader.read()
    writer.close()
    await writer.wait_closed()
    _, _, body = raw.partition(b"\r\n\r\n")
    return body.decode("utf-8", errors="replace")


def _run_observed_case(seconds: float):
    """The dashboard-mode run: gateway + scraper + WebSocket consumer.

    The same 8-session load as the plain case, but with the hub tapped
    the whole time — a subscriber streaming every column over
    ``/ws/live`` and a Prometheus scraper polling ``/metrics`` — so the
    measured columns/s carries the full observability tax.
    """

    async def run():
        hub = TelemetryHub()
        server = SensingServer(
            ServeConfig(scheduler=SchedulerConfig(max_batch_windows=64)),
            hub=hub,
        )
        port = await server.start()
        gateway = ObserveGateway(
            hub, server=server, config=ObserveConfig(port=0, interval_s=0.25)
        )
        observe_port = await gateway.start()
        consumer = asyncio.create_task(
            collect_live("127.0.0.1", observe_port, seconds=seconds + 5.0)
        )
        scrapes: list[dict[str, float]] = []

        async def scraper():
            while True:
                scrapes.append(parse_exposition(await _scrape_metrics(observe_port)))
                await asyncio.sleep(0.25)

        scraper_task = asyncio.create_task(scraper())
        try:
            report = await run_load(
                "127.0.0.1",
                port,
                sessions=SESSIONS,
                seconds=seconds,
                block_size=BLOCK_SIZE,
                seed=SEED + 52,
                config=SESSION_CONFIG,
            )
        finally:
            scraper_task.cancel()
            consumer.cancel()
            try:
                summary = await consumer
            except asyncio.CancelledError:
                summary = {"columns": 0, "events": 0}
            await gateway.shutdown()
            await server.shutdown()
        return report, summary, scrapes

    return asyncio.run(run())


def bench_serve_load_dashboard_overhead():
    """``--dashboard`` mode must cost the serve path < 5% columns/s.

    Two plain runs bracket one observed run (averaging out drift on a
    shared machine); the observed run carries an attached gateway with
    a live ``/ws/live`` subscriber and a 4 Hz ``/metrics`` scraper.
    """
    seconds = float(trial_count(3, 8))
    plain_first = _run_load_case(max_batch_windows=64, seconds=seconds)
    observed, ws_summary, scrapes = _run_observed_case(seconds=seconds)
    plain_second = _run_load_case(max_batch_windows=64, seconds=seconds)

    plain_columns_per_s = (
        plain_first.columns_per_s + plain_second.columns_per_s
    ) / 2.0
    overhead_pct = 100.0 * (1.0 - observed.columns_per_s / plain_columns_per_s)

    columns_key = "repro_server_columns_served"
    served_counts = [s[columns_key] for s in scrapes if columns_key in s]
    monotone = all(b <= a for b, a in zip(served_counts, served_counts[1:]))

    rows = [
        ["plain (mean of 2)", f"{plain_columns_per_s:.0f}", "-", "-"],
        [
            "observed",
            f"{observed.columns_per_s:.0f}",
            ws_summary["columns"],
            len(scrapes),
        ],
    ]
    table = format_table(["case", "cols/s", "ws columns", "scrapes"], rows)
    lines = [
        f"{SESSIONS} sessions, {BLOCK_SIZE}-sample pushes, {seconds:.0f} s per case,"
        " gateway + /ws/live consumer + 4 Hz /metrics scraper attached:",
        table,
        "",
        f"dashboard overhead: {overhead_pct:.2f}% "
        f"(gate: < {MAX_DASHBOARD_OVERHEAD_PCT:.0f}%)",
        f"scraped counters monotone: {monotone}",
    ]
    emit("serve_load_dashboard", "\n".join(lines))

    result_path = OUTPUT_DIR / "BENCH_serve_load.json"
    merged = json.loads(result_path.read_text()) if result_path.exists() else {}
    merged.pop("git_sha", None)
    merged.update(
        {
            "dashboard_overhead_pct": overhead_pct,
            "dashboard_columns_per_s": observed.columns_per_s,
            "dashboard_plain_columns_per_s": plain_columns_per_s,
            "dashboard_ws_columns": ws_summary["columns"],
            "dashboard_metrics_scrapes": len(scrapes),
        }
    )
    write_bench_json("serve_load", merged)

    for run in (plain_first, observed, plain_second):
        assert run.failures() == [], f"dashboard-bench run failed: {run.failures()}"
    assert ws_summary["columns"] > 0, "the live consumer received no columns"
    assert len(scrapes) >= 2, "the scraper never completed two scrapes"
    assert monotone, "scraped columns_served went backwards between scrapes"
    assert overhead_pct < MAX_DASHBOARD_OVERHEAD_PCT, (
        f"dashboard overhead {overhead_pct:.2f}% breaches the "
        f"{MAX_DASHBOARD_OVERHEAD_PCT:.0f}% gate"
    )


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description="serve load benchmarks")
    parser.add_argument(
        "--chaos",
        action="store_true",
        help="run only the chaos recovery-latency bench",
    )
    parser.add_argument(
        "--dashboard",
        action="store_true",
        help="run only the dashboard-overhead bench",
    )
    cli_args = parser.parse_args()
    if cli_args.chaos:
        bench_serve_load_chaos_recovery()
    elif cli_args.dashboard:
        bench_serve_load_dashboard_overhead()
    else:
        bench_serve_load_batched_vs_serial()
        bench_serve_load_chaos_recovery()
        bench_serve_load_dashboard_overhead()
