"""The repo benchmark: seeded workloads against the program as users start it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (``BENCHMARK.json`` records why each exists):

* ``offline-25s``: ``compute_spectrogram`` at the default config on a
  pool of 25 s simulator traces, in a process of its own;
* ``serve-realtime``: ``repro serve``, open loop, 16 devices each
  pushing one hop every 80 ms, with beamforming, resumable and
  NaN-burst sessions in the mix;
* ``serve-bulk``: ``repro serve``, closed loop, 400-sample pushes;
* ``fleet-bulk``: ``repro fleet`` at its default worker count, fed the
  ``serve-bulk`` traffic.

The two closed loops run on demand only.  On a 2-core shared host
their rates follow the host's speed phases (one whole 30 s run can sit
in a slow one), so their run-to-run spread is too wide for
``BENCHMARK.json``'s bounds; ``fleet-bulk``'s two workers' BLAS threads
also oversubscribe the cores.

Inputs come from ``--seed`` and are made before the program starts.
Each run launches the program several times to time set-up, warms up
for a fixed time, measures for ``--seconds``, stops the program with
SIGINT and checks every column it returned against offline compute.
Throughput and sessions per core are the upper decile over one-second
chunks of the timed phase, latency percentiles the median over ten
chunks (see :data:`RATE_QUANTILE` for why).  With ``--trace 0`` the last
stdout line carries every end-to-end metric; with ``--trace 1`` the
program runs once plain (for the tracing overhead) and once under the
span wrappers of ``perfbench/tracing.py``, each for half of
``--seconds``, and the last line carries every per-layer metric.  The
exit code is nonzero when a column diverged, the run was invalid (the
load generator lagged, not the program) or a program process outlived
the run.

Self-tests of the arithmetic: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from layers import PER_LAYER, per_layer
from procs import FLEET_READY, FLEET_SHARD, SERVE_READY, Program, host_cpu_jiffies
from stats import (
    beyond,
    chunk_amounts,
    chunk_rates,
    chunked_percentiles,
    failed_ratio,
    interpolate,
    percentile,
    sessions_per_core,
    supported,
    tail_percentile,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("offline-25s", "serve-bulk", "serve-realtime", "fleet-bulk")
#: Untimed traffic between set-up and the timed phase.
WARMUP_S = 2.0
#: Program launches per untraced run; ``setup_s`` is their median.
SETUPS = 3
SETUP_TIMEOUT_S = 60.0
#: Latency percentiles are medians over (at most) this many
#: time-ordered chunks of the timed phase, so a stall moves one chunk,
#: not the run.
CHUNKS = 10
#: Throughput and sessions per core are read per chunk of this many
#: seconds of the timed phase ...
RATE_CHUNK_S = 1.0
#: ... and reported as this percentile of the chunk values.  The shared
#: host's speed swings by a third in phases lasting seconds to tens of
#: seconds (a fixed pure-Python loop took 19 ms in one and 30 ms in the
#: next), so a median over chunks flips with the share of a run the slow
#: phases cover.  The upper decile reads the program at the host's
#: uncontended speed whenever at least a tenth of the run had it; a
#: change to the program still moves it one for one.
RATE_QUANTILE = 90.0
#: How often the offline pass looks at the worker's output.  The worker
#: runs two BLAS threads on a 2-core machine, so the benchmark stays
#: off the cores while it waits.
OFFLINE_POLL_S = 0.1
#: serve-realtime's latency limit on p99: one 80 ms hop.
LATENCY_LIMIT_MS = 80.0
#: A run is invalid when the generator itself sent a hop late (p99) ...
LATENESS_LIMIT_MS = LATENCY_LIMIT_MS
#: ... or spent this much of a core while the program was measured.
GENERATOR_CPU_LIMIT = 0.9
#: The end-to-end metrics the JSON line carries.  The text also prints
#: the latency percentiles, whose run-to-run spread on a shared 2-core
#: host is too wide for a bound: open-loop p90 ran from 3 to 22 ms as
#: host steal varied, and closed-loop and offline p50 track the host's
#: speed, which swings by a fifth within a minute, more noisily than
#: the rates do.
END_TO_END = {
    "columns_per_s": "cols/s",
    "sessions_per_core": "sessions",
    "setup_s": "s",
    "rss_mb": "MB",
}


def out(line: str) -> None:
    print(line, flush=True)


@dataclass
class Pass:
    """One launch-measure-stop cycle of the program.

    The timed phase is cut into chunks of about :data:`RATE_CHUNK_S`
    at ``edges``; ``chunk_columns`` is the work done in each and
    ``edge_cpu_s`` the program's summed CPU seconds at each edge.
    """

    setup_s: list[float]
    edges: list[float]
    edge_cpu_s: list[float]
    chunk_columns: list[float]
    latencies_ms: list[float]
    send_latencies_ms: list[float]
    cpu_s: dict[int, float]
    hwm_kb: dict[int, int]
    threads: dict[int, int]
    load_cpu_s: float
    lateness_ms: list[float]
    phases: dict[str, dict[str, Any]]
    checked: int
    diverged: int
    problems: list[str]
    stats: dict[str, dict] = field(default_factory=dict)
    pids: dict[str, Any] = field(default_factory=dict)
    #: Share of the machine's CPU time the hypervisor stole while timed.
    steal_share: float = 0.0

    @property
    def t0(self) -> float:
        return self.edges[0]

    @property
    def t1(self) -> float:
        return self.edges[-1]

    @property
    def wall_s(self) -> float:
        return self.t1 - self.t0

    @property
    def columns(self) -> int:
        return round(sum(self.chunk_columns))

    @property
    def chunk_sessions_per_core(self) -> list[float]:
        cpu = [hi - lo for lo, hi in zip(self.edge_cpu_s, self.edge_cpu_s[1:])]
        return [
            sessions_per_core(columns, cpu_s)
            for columns, cpu_s in zip(self.chunk_columns, cpu)
        ]

    @property
    def columns_per_s(self) -> float:
        """The :data:`RATE_QUANTILE` percentile over chunks of columns per second."""
        return percentile(chunk_rates(self.chunk_columns, self.edges), RATE_QUANTILE)

    @property
    def sessions_per_core(self) -> float:
        """The :data:`RATE_QUANTILE` percentile over chunks of sessions per core."""
        return percentile(self.chunk_sessions_per_core, RATE_QUANTILE)


def rate_chunks(seconds: float) -> int:
    """How many chunks a timed phase of ``seconds`` is cut into."""
    return max(1, round(seconds / RATE_CHUNK_S))


def program_env() -> dict[str, str]:
    """The caller's environment with ``src`` on ``PYTHONPATH``; nothing else changes."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    return env


def environment_stamp(seed: int) -> dict[str, Any]:
    import numpy as np

    sha = "unknown"
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            # A checkout that is not a repository reads "unknown"; git
            # must not look for one in the directories above it.
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
        lines = top.stdout.split()
        if top.returncode == 0 and lines and Path(lines[0]).resolve() == ROOT:
            sha = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        openblas = "unknown"
    return {
        "git_sha": sha,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": openblas,
        "seed": seed,
        "thread_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
    }


# ----------------------------------------------------------------------
# Phases, failures, metrics
# ----------------------------------------------------------------------


def steal_share(before: tuple[int, int], after: tuple[int, int]) -> float:
    """Stolen over all machine CPU time between two :func:`host_cpu_jiffies` readings."""
    total = after[0] - before[0]
    return (after[1] - before[1]) / total if total > 0 else 0.0


def phase_accounting(requests, phases) -> dict[str, dict[str, Any]]:
    """Attempted / succeeded / failed requests per phase, failures by error class."""
    table: dict[str, dict[str, Any]] = {}
    for request in requests:
        if request.kind not in ("open", "push", "close"):
            continue
        row = table.setdefault(
            phases.of(request.due),
            {"attempted": 0, "succeeded": 0, "failed": 0, "errors": {}},
        )
        row["attempted"] += 1
        if request.error is None:
            row["succeeded"] += 1
        else:
            row["failed"] += 1
            row["errors"][request.error] = row["errors"].get(request.error, 0) + 1
    return table


def describe_latency(latencies_ms: list[float], q: float) -> str:
    """One latency percentile with its chunk values and sample support."""
    count = len(latencies_ms)
    name = f"latency_p{q:g}_ms"
    whole = f"whole-phase p{q:g} {percentile(latencies_ms, q):.3f} ms"
    if not supported(count, q):
        return (
            f"{name}: unsupported ({count} samples put {beyond(count, q):.1f} beyond it, "
            f"fewer than ten; {whole})"
        )
    parts = chunked_percentiles(latencies_ms, q, CHUNKS)
    return (
        f"{name}: {statistics.median(parts):.3f} ms (median of the p{q:g} of {len(parts)} "
        f"chunks: {', '.join(f'{part:.2f}' for part in parts)}; {count} samples, "
        f"{beyond(count, q):.0f} beyond; {whole})"
    )


def end_to_end(run: Pass) -> dict[str, float]:
    metrics = {"columns_per_s": run.columns_per_s, "sessions_per_core": run.sessions_per_core}
    metrics["setup_s"] = statistics.median(run.setup_s)
    metrics["rss_mb"] = sum(run.hwm_kb.values()) / 1024.0
    return metrics


def validity(run: Pass, open_loop: bool) -> list[str]:
    """Reasons the generator, not the program, limited this run."""
    reasons = []
    if open_loop and run.lateness_ms:
        late = percentile(run.lateness_ms, 99)
        if late > LATENESS_LIMIT_MS:
            reasons.append(f"generator sent p99 {late:.1f} ms late (limit {LATENESS_LIMIT_MS})")
    use = run.load_cpu_s / run.wall_s
    if use > GENERATOR_CPU_LIMIT:
        reasons.append(f"generator used {use:.2f} CPU-s/s (limit {GENERATOR_CPU_LIMIT})")
    return reasons


def report_pass(label: str, run: Pass, open_loop: bool) -> None:
    for phase in ("warmup", "timed"):
        row = run.phases.get(phase, {"attempted": 0, "succeeded": 0, "failed": 0, "errors": {}})
        out(
            f"{label} phase {phase}: attempted {row['attempted']} succeeded "
            f"{row['succeeded']} failed {row['failed']} errors {json.dumps(row['errors'])}"
        )
    wall = run.wall_s
    per_process = ", ".join(
        f"{role} {run.cpu_s.get(pid, 0.0) / wall:.2f} CPU-s/s {run.threads.get(pid, 0)} threads"
        for role, pid in run.pids.items()
    )
    out(f"{label} processes: {per_process}")
    late = percentile(run.lateness_ms, 99) if run.lateness_ms else 0.0
    out(
        f"{label} load: lateness_ms_p99 {late:.3f} (open loop: {open_loop}), "
        f"cpu_utilization {run.load_cpu_s / wall:.3f} CPU-s/s"
    )
    out(
        f"{label} verify: {run.checked} columns checked against offline compute, "
        f"{run.diverged} diverged"
    )
    out(f"{label} host: hypervisor stole {run.steal_share:.1%} of the machine's CPU time")
    for problem in run.problems:
        out(f"{label} problem: {problem}")


# ----------------------------------------------------------------------
# Serving workloads
# ----------------------------------------------------------------------


def _fleet_workers() -> int:
    from repro.cli import build_parser

    return build_parser().parse_args(["fleet", "--port", "0"]).workers


def launch_service(command: list[str], log: Path, span_dir: Path | None, workers: int):
    if span_dir is None:
        argv = [sys.executable, "-m", "repro", *command]
    else:
        argv = [sys.executable, str(HERE / "traced.py"), str(span_dir), *command]
    program = Program(argv, ROOT, program_env(), log)
    bind = FLEET_READY if command[0] == "fleet" else SERVE_READY

    def ready(line: str) -> bool:
        match = bind.match(line)
        if match:
            program.port = int(match.group(1))
        shard = FLEET_SHARD.match(line)
        if shard:
            program.worker_pids.append(int(shard.group(2)))
        return program.port is not None and len(program.worker_pids) >= workers

    return program, ready


def service_pass(command, drive, run_dir: Path, setups: int, span_dir: Path | None) -> Pass:
    import loadgen

    workers = _fleet_workers() if command[0] == "fleet" else 0
    setup_s: list[float] = []
    problems: list[str] = []
    for attempt in range(setups):
        program, ready = launch_service(
            command, run_dir / f"{command[0]}-{attempt}.log", span_dir, workers
        )
        try:
            setup_s.append(program.wait_ready(ready, SETUP_TIMEOUT_S))
        except RuntimeError:
            program.stop()
            raise
        if attempt < setups - 1:
            problems += program.stop()
    edges: list[tuple] = []

    def on_edge() -> None:
        edges.append(
            (time.perf_counter(), program.readings(), time.process_time(), host_cpu_jiffies())
        )

    results = []

    async def load() -> None:
        # The task returns nothing: asyncio.run's SIGINT bookkeeping
        # may repr the main task, result included, when it finishes.
        results.append(await drive(program.port, on_edge))

    try:
        asyncio.run(load())
    finally:
        problems += program.stop()
    result = results[0]
    checked, diverged = loadgen.verify(result)
    phases = result.phases
    open_loop = result.open_loop
    pushes = [r for r in result.requests if r.kind == "push"]
    timed = [r for r in pushes if phases.t0 <= r.due < phases.t1]
    ok = [r for r in timed if r.error is None]
    (_, r0, c0, h0), (_, r1, c1, h1) = edges[0], edges[-1]
    times = [when for when, *_ in edges]
    pids = {"serve" if not workers else "frontend": program.pid}
    pids.update({f"worker{i}": pid for i, pid in enumerate(program.worker_pids)})
    return Pass(
        setup_s=setup_s,
        edges=times,
        edge_cpu_s=[sum(r.cpu_s for r in readings.values()) for _, readings, *_ in edges],
        chunk_columns=chunk_amounts(
            ((r.done, r.done, r.columns) for r in pushes if r.error is None), times
        ),
        latencies_ms=[(r.done - (r.due if open_loop else r.sent)) * 1e3 for r in ok],
        send_latencies_ms=[(r.done - r.sent) * 1e3 for r in ok],
        cpu_s={pid: r1[pid].cpu_s - r0[pid].cpu_s for pid in r1 if pid in r0},
        hwm_kb={pid: r1[pid].hwm_kb for pid in r1},
        threads={pid: max(r0[pid].threads, r1[pid].threads) for pid in r1 if pid in r0},
        load_cpu_s=c1 - c0,
        lateness_ms=[(r.sent - r.due) * 1e3 for r in timed] if open_loop else [],
        phases=phase_accounting(result.requests, phases),
        checked=checked,
        diverged=diverged,
        problems=problems,
        stats=result.stats,
        pids=pids,
        steal_share=steal_share(h0, h1),
    )


def measured_seconds(args) -> float:
    """Seconds each pass measures: a traced run splits ``--seconds`` between
    its plain and its traced pass, so it takes no longer than a plain run."""
    return args.seconds / 2 if args.trace else args.seconds


def run_service(args, run_dir: Path) -> tuple[Pass, Pass | None, dict | None, bool]:
    import inputs
    import loadgen

    connections = min(2, len(os.sched_getaffinity(0)))
    fleet = args.workload == "fleet-bulk"
    open_loop = args.workload == "serve-realtime"
    seconds = measured_seconds(args)
    chunks = rate_chunks(seconds)
    if open_loop:
        pushes = int((WARMUP_S + seconds) / inputs.HOP_S) + 2
        devices = inputs.realtime_devices(args.seed, pushes)

        def drive(port, on_edge):
            return loadgen.run_open(
                "127.0.0.1", port, connections, devices, WARMUP_S, seconds, chunks, on_edge
            )

    else:
        make = loadgen.bulk_slots(inputs.bulk_streams(args.seed), args.seed, keyed=fleet)

        def drive(port, on_edge):
            return loadgen.run_closed(
                "127.0.0.1",
                port,
                connections,
                inputs.BULK_SESSIONS,
                make,
                WARMUP_S,
                seconds,
                chunks,
                on_edge,
            )

    command = ["fleet" if fleet else "serve", "--port", "0"]
    plain = service_pass(command, drive, run_dir, 1 if args.trace else SETUPS, None)
    report_pass("untraced", plain, open_loop)
    if not args.trace:
        return plain, None, None, open_loop
    span_dir = run_dir / "spans"
    span_dir.mkdir()
    traced = service_pass(command, drive, run_dir, 1, span_dir)
    report_pass("traced", traced, open_loop)
    server_pids = traced.pids.copy()
    frontend = server_pids.pop("frontend", None)
    layer = per_layer_metrics(traced, plain, span_dir, list(server_pids.values()), frontend)
    return plain, traced, layer, open_loop


def read_spans(span_dir: Path) -> dict[int, dict]:
    records = {}
    for path in span_dir.glob("spans-*.json"):
        with open(path) as handle:
            record = json.load(handle)
        records[record["pid"]] = record
    return records


def per_layer_metrics(traced: Pass, plain: Pass, span_dir: Path, server_pids, frontend) -> dict:
    records = read_spans(span_dir)
    missing = [pid for pid in [*server_pids, frontend] if pid is not None and pid not in records]
    if missing:
        traced.problems.append(f"no span records from program processes {missing}")
    return per_layer(records, server_pids, frontend, traced, plain.sessions_per_core)


# ----------------------------------------------------------------------
# offline-25s
# ----------------------------------------------------------------------


def _all_succeeded(calls: int) -> dict[str, Any]:
    """A phase of offline calls: any failure would have ended the worker."""
    return {"attempted": calls, "succeeded": calls, "failed": 0, "errors": {}}


def offline_pass(run_dir: Path, pool_path: Path, seconds: float, setups: int, span_dir, references):
    argv = [sys.executable, str(HERE / "offline_worker.py")]
    if span_dir is not None:
        argv += ["--trace", str(span_dir)]
    setup_s: list[float] = []
    problems: list[str] = []
    for attempt in range(setups):
        program = Program(argv, ROOT, program_env(), run_dir / f"offline-{attempt}.log")
        try:
            setup_s.append(program.wait_ready(lambda line: line == "ready", SETUP_TIMEOUT_S))
        except RuntimeError:
            program.stop()
            raise
        if attempt < setups - 1:
            problems += program.quit()
    try:
        program.send(f"load {pool_path} {WARMUP_S}")
        warm = program.wait_for(
            lambda line: line.startswith("warm "), SETUP_TIMEOUT_S + WARMUP_S, OFFLINE_POLL_S
        )
        r0, c0, h0 = program.readings(), time.process_time(), host_cpu_jiffies()
        program.send(f"go {seconds}")
        line = program.wait_for(lambda line: line.startswith("{"), seconds + 120, OFFLINE_POLL_S)
        r1, c1, h1 = program.readings(), time.process_time(), host_cpu_jiffies()
    finally:
        problems += program.quit()
    result = json.loads(line)
    calls = result["calls"]
    # The worker's CPU seconds after each call, read from its /proc.
    samples = [(result["start"], result["start_cpu_s"])]
    samples += [(end, cpu_s) for _, _, end, _, cpu_s in calls]
    diverged = result["mismatched"] + sum(
        1 for index, digest in result["digests"].items() if digest != references[int(index)]
    )
    pid = program.pid
    # The timed phase runs from the first call's start to the last one's
    # end; a call's windows count in each chunk by its share of the call.
    chunks = rate_chunks(seconds)
    step = (result["end"] - result["start"]) / chunks
    edges = [result["start"] + i * step for i in range(chunks)] + [result["end"]]
    return Pass(
        setup_s=setup_s,
        edges=edges,
        edge_cpu_s=[interpolate(samples, when) for when in edges],
        chunk_columns=chunk_amounts(((s, e, n) for _, s, e, n, _ in calls), edges),
        latencies_ms=[(end - start) * 1e3 for _, start, end, *_ in calls],
        send_latencies_ms=[],
        cpu_s={pid: r1[pid].cpu_s - r0[pid].cpu_s},
        hwm_kb={pid: r1[pid].hwm_kb},
        threads={pid: max(r0[pid].threads, r1[pid].threads)},
        load_cpu_s=c1 - c0,
        lateness_ms=[],
        phases={
            "warmup": _all_succeeded(int(warm.split()[1])),
            "timed": _all_succeeded(len(calls)),
        },
        checked=sum(call[3] for call in calls),
        diverged=diverged,
        problems=problems,
        pids={"offline": pid},
        steal_share=steal_share(h0, h1),
    )


def run_offline(args, run_dir: Path) -> tuple[Pass, Pass | None, dict | None, bool]:
    import numpy as np

    import inputs
    from offline_worker import spectrogram_digest
    from repro.core.tracking import compute_spectrogram

    pool = inputs.offline_pool(args.seed)
    references = [spectrogram_digest(compute_spectrogram(t, inputs.CONFIG)) for t in pool]
    pool_path = run_dir / "pool.npz"
    np.savez(pool_path, **{f"t{i}": trace for i, trace in enumerate(pool)})
    seconds = measured_seconds(args)
    plain = offline_pass(
        run_dir, pool_path, seconds, 1 if args.trace else SETUPS, None, references
    )
    report_pass("untraced", plain, False)
    if not args.trace:
        return plain, None, None, False
    span_dir = run_dir / "spans"
    span_dir.mkdir()
    traced = offline_pass(run_dir, pool_path, seconds, 1, span_dir, references)
    report_pass("traced", traced, False)
    layer = per_layer_metrics(traced, plain, span_dir, [traced.pids["offline"]], None)
    return plain, traced, layer, False


def report_end_to_end(run: Pass, open_loop: bool) -> None:
    """Print every end-to-end metric of an untraced pass, with its evidence."""
    e2e = end_to_end(run)
    count = len(run.latencies_ms)
    rates = chunk_rates(run.chunk_columns, run.edges)
    out(
        f"columns_per_s: {e2e['columns_per_s']:.3f} cols/s (p{RATE_QUANTILE:g} of "
        f"{len(rates)} chunks: {', '.join(f'{rate:.1f}' for rate in rates)}; median "
        f"{statistics.median(rates):.1f}; {run.columns} columns in {run.wall_s:.3f} s)"
    )
    for q in (50, 90, 99):
        out(describe_latency(run.latencies_ms, q))
    tail = tail_percentile(count)
    if tail is None:
        out(f"latency tail: neither p99 nor p90 has ten of {count} samples beyond it")
    else:
        out(f"latency tail: p{tail:g} is the highest with ten of {count} samples beyond it")
    if open_loop:
        p99 = percentile(run.latencies_ms, 99)
        verdict = "OVER the limit" if p99 > LATENCY_LIMIT_MS else "within the limit"
        out(f"latency limit: p99 {p99:.3f} ms vs {LATENCY_LIMIT_MS:g} ms -> {verdict}")
    per_core = run.chunk_sessions_per_core
    out(
        f"sessions_per_core: {e2e['sessions_per_core']:.3f} real-time sessions per core "
        f"(p{RATE_QUANTILE:g} of {len(per_core)} chunks: "
        f"{', '.join(f'{value:.2f}' for value in per_core)}; median "
        f"{statistics.median(per_core):.2f}; {run.columns} columns on "
        f"{run.edge_cpu_s[-1] - run.edge_cpu_s[0]:.2f} program CPU-s)"
    )
    out(f"setup_s: {e2e['setup_s']:.4f} s (median of {len(run.setup_s)}: {run.setup_s})")
    out(f"rss_mb: {e2e['rss_mb']:.2f} MB (VmHWM summed over {len(run.hwm_kb)} processes)")
    timed = run.phases.get("timed", {"attempted": 0, "failed": 0})
    if timed["attempted"]:
        ratio = failed_ratio(timed["attempted"], timed["failed"])
        out(f"failed_ratio: {ratio:.6f} ({timed['failed']} of {timed['attempted']})")


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program at {SRC / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Programs are stopped with SIGINT.  A disposition of "ignore"
    # survives exec, so make sure this process does not pass one on.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    out(
        f"perfbench: workload {args.workload} seed {args.seed} "
        f"seconds {args.seconds:g} trace {args.trace}"
    )
    out(f"env: {json.dumps(environment_stamp(args.seed))}")
    run_dir = ROOT / ".bench_build" / "perfbench" / f"run-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        runner = run_offline if args.workload == "offline-25s" else run_service
        run, traced, layer, open_loop = runner(args, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    report_end_to_end(run, open_loop)
    passes = [run] if traced is None else [run, traced]
    invalid = [reason for one in passes for reason in validity(one, open_loop)]
    for reason in invalid:
        out(f"INVALID: {reason}")
    # The JSON counts come from the pass whose metrics it carries.
    measured = passes[-1]
    timed = measured.phases.get("timed", {"attempted": 0, "failed": 0})
    attempted, failed = timed["attempted"], timed["failed"]
    correct = (
        attempted > 0
        and not invalid
        and all(one.diverged == 0 and not one.problems for one in passes)
    )
    if layer is not None:
        metrics = {name: {"value": layer[name], "unit": PER_LAYER[name]} for name in PER_LAYER}
        for name, entry in metrics.items():
            out(f"{name}: {entry['value']:.6g} {entry['unit']}")
    else:
        e2e = end_to_end(run)
        metrics = {name: {"value": e2e[name], "unit": END_TO_END[name]} for name in END_TO_END}
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": max(attempted, 1),
                "failed": failed,
                "metrics": metrics,
            }
        ),
        flush=True,
    )
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
