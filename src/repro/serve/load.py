"""Seeded, verifying load generator for the sensing service.

One generator serves every load mode.  N concurrent sessions, each on
its own connection so the server's micro-batching has real
cross-session concurrency to exploit, stream one prefix-stable seeded
trace: block k of session i depends only on (seed + i, k).  The only
thing that varies is the client each session drives:

* :class:`~repro.serve.client.AsyncServeClient` for the timed
  throughput run (push until ``seconds`` run out);
* :class:`~repro.serve.resilient.ResilientServeClient`, with a stable
  ``routing_key`` and an optional seeded chaos plan, for the fixed-push
  chaos and fleet runs.

While the sessions run, each served column is kept only as its index
and a 16-byte digest of its power bytes, so a long timed run holds
little memory.  After the timed phase, one verifier rebuilds the offline
``compute_spectrogram`` of exactly the samples the server acknowledged,
``VERIFY_CHUNK`` columns at a time, and requires every index once, each
byte-identical to its reference column: a batching, recovery, routing
or relay bug is a counted divergence, never a silent pass.
Verification stays out of ``seconds`` and ``columns_per_s``.  Every
mode returns one :class:`LoadReport` and is held to one verdict,
:meth:`LoadReport.failures`.
"""

from __future__ import annotations

import asyncio
import hashlib
import time
from array import array
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.chaos import ChaosSchedule, ChaosScheduleConfig, ClientChaos
from repro.core.tracking import TrackingConfig, compute_spectrogram
from repro.errors import ReproError, ServeOverloadError
from repro.serve.client import AsyncServeClient
from repro.serve.resilient import BackoffPolicy, ResilientServeClient
from repro.serve.session import config_from_wire

#: Default seed; matches benchmarks/common.py (Wi-Vi's SIGCOMM 2013
#: camera-ready date) without importing from outside the package.
DEFAULT_SEED = 20130812

#: Reconnect pacing of the resilient sessions: 12 attempts, about 8.5 s
#: of backoff before a session gives up on a server or shard.
BACKOFF = BackoffPolicy(max_attempts=12)

#: Reference columns the verifier computes at a time.
VERIFY_CHUNK = 64

#: Bytes of the power digest kept per served column.
DIGEST_SIZE = 16


def _trace_block(seed: int, k: int, block_size: int) -> np.ndarray:
    """Block ``k`` of the seeded session trace ``seed``.

    Two tones and a DC offset over the absolute sample index, plus noise
    drawn from ``(seed, k)`` alone: a prefix of the trace is the same
    whether it is streamed block by block or rebuilt for the reference.
    """
    rng = np.random.default_rng([seed, k])
    n = np.arange(k * block_size, (k + 1) * block_size)
    noise = rng.standard_normal(block_size) + 1j * rng.standard_normal(block_size)
    return np.exp(1j * 0.12 * n) + 0.4 * np.exp(-1j * 0.05 * n) + 0.25 * noise + 0.6


def _trace(seed: int, start: int, stop: int, block_size: int) -> np.ndarray:
    """Samples ``start:stop`` of the seeded session trace ``seed``."""
    first, last = start // block_size, -(-stop // block_size)
    blocks = [_trace_block(seed, k, block_size) for k in range(first, last)]
    offset = first * block_size
    return np.concatenate(blocks)[start - offset : stop - offset]


def _digest(power: np.ndarray) -> bytes:
    return hashlib.blake2b(power.tobytes(), digest_size=DIGEST_SIZE).digest()


def _percentile_ms(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    return float(np.percentile(np.asarray(values), q * 100)) * 1e3


@dataclass
class SessionOutcome:
    """How one load session ended, and what its columns proved.

    ``outcome`` is ``"complete"``, ``"error:<TaxonomyClass>"`` (a typed
    or connection failure: a defined end), or ``"undefined:<Exception>"``
    (a bug in the generator itself).  ``requests`` counts every request
    round trip on the wire (open, every push including shed ones,
    close); ``pushes`` counts the blocks the server acknowledged;
    ``columns`` the distinct column indices served; ``expected_columns``
    what offline compute makes of the acknowledged blocks.
    """

    session: int
    outcome: str
    requests: int = 0
    pushes: int = 0
    columns: int = 0
    expected_columns: int = 0
    diverged_columns: int = 0
    detections: int = 0
    shed_requests: int = 0
    reconnects: int = 0
    resumes: int = 0
    duplicate_acks: int = 0
    chaos_events_applied: int = 0
    fleet_migrations: int = 0
    #: Round trip of every acknowledged push.
    latencies_s: list[float] = field(default_factory=list)
    #: Reconnect-begin to first post-resume column, per recovery.
    recovery_latencies_s: list[float] = field(default_factory=list)

    @property
    def defined(self) -> bool:
        """Terminal state the failure model allows: done, or typed."""
        return self.outcome == "complete" or self.outcome.startswith("error:")

    @property
    def complete(self) -> bool:
        """Finished cleanly, with every offline column served."""
        return self.outcome == "complete" and self.columns == self.expected_columns


@dataclass
class LoadReport:
    """Aggregate outcome of one load run, in every mode."""

    sessions: int = 0
    #: Fixed pushes per session; ``None`` for a timed run.
    pushes_per_session: int | None = None
    chaos_seed: int | None = None
    #: A timed run's push duration; a fixed-push run's measured wall
    #: time.  Verification stays out of both.
    seconds: float = 0.0
    outcomes: list[SessionOutcome] = field(default_factory=list)
    #: The deterministic chaos record: per-session plan + applied log.
    #: Identical across runs of the same seeds; server-side STALL_TICK
    #: and REPLY_LATENCY application depends on timing and is left out
    #: (DESIGN.md §11).
    chaos_log: list[str] = field(default_factory=list)
    server_stats: dict[str, Any] = field(default_factory=dict)

    def total(self, name: str) -> int:
        """Sum one per-session counter, e.g. ``total("reconnects")``."""
        return sum(getattr(outcome, name) for outcome in self.outcomes)

    @property
    def columns(self) -> int:
        return self.total("columns")

    @property
    def columns_per_s(self) -> float:
        return self.columns / self.seconds if self.seconds > 0 else 0.0

    @property
    def diverged_columns(self) -> int:
        return self.total("diverged_columns")

    @property
    def protocol_errors(self) -> int:
        """Sessions whose exchange with the server ended on an error."""
        return sum(outcome.outcome != "complete" for outcome in self.outcomes)

    @property
    def incomplete_sessions(self) -> int:
        return sum(not outcome.complete for outcome in self.outcomes)

    @property
    def all_defined(self) -> bool:
        return all(outcome.defined for outcome in self.outcomes)

    @property
    def latencies_s(self) -> list[float]:
        return [x for outcome in self.outcomes for x in outcome.latencies_s]

    @property
    def recovery_latencies_s(self) -> list[float]:
        return [x for outcome in self.outcomes for x in outcome.recovery_latencies_s]

    def latency_percentile(self, q: float) -> float:
        """Push round-trip latency percentile in milliseconds."""
        return _percentile_ms(self.latencies_s, q)

    def recovery_percentile(self, q: float) -> float:
        """Reconnect-to-first-column latency percentile, milliseconds."""
        return _percentile_ms(self.recovery_latencies_s, q)

    def failures(self) -> list[str]:
        """The one verdict: zero divergence, every outcome defined,
        every session complete.  Empty means the run passed."""
        problems = []
        if self.diverged_columns:
            problems.append(f"{self.diverged_columns} diverged column(s)")
        undefined = [o.outcome for o in self.outcomes if not o.defined]
        if undefined:
            problems.append(f"undefined session outcome(s): {undefined}")
        incomplete = [
            f"{o.session}:{o.outcome} ({o.columns}/{o.expected_columns} columns)"
            for o in self.outcomes
            if not o.complete
        ]
        if incomplete:
            problems.append(f"incomplete session(s): {incomplete}")
        return problems

    def summary(self) -> dict[str, Any]:
        scheduler = self.server_stats.get("scheduler", {})
        return {
            "sessions": self.sessions,
            "pushes_per_session": self.pushes_per_session,
            "seconds": round(self.seconds, 3),
            "requests": self.total("requests"),
            "pushes": self.total("pushes"),
            "columns": self.columns,
            "columns_per_s": round(self.columns_per_s, 2),
            "detections": self.total("detections"),
            "protocol_errors": self.protocol_errors,
            "shed_requests": self.total("shed_requests"),
            "latency_p50_ms": round(self.latency_percentile(0.5), 3),
            "latency_p99_ms": round(self.latency_percentile(0.99), 3),
            "batch_occupancy_mean": scheduler.get("mean_batch_windows"),
            "batch_occupancy_p99": scheduler.get("batch_p99"),
            "diverged_columns": self.diverged_columns,
            "incomplete_sessions": self.incomplete_sessions,
            "all_outcomes_defined": self.all_defined,
            "outcomes": [o.outcome for o in self.outcomes],
            "chaos_seed": self.chaos_seed,
            "chaos_events_applied": self.total("chaos_events_applied"),
            "reconnects": self.total("reconnects"),
            "resumes": self.total("resumes"),
            "duplicate_acks": self.total("duplicate_acks"),
            "fleet_migrations": self.total("fleet_migrations"),
            "recovery_p50_ms": round(self.recovery_percentile(0.5), 3),
            "recovery_p99_ms": round(self.recovery_percentile(0.99), 3),
            "shards": [
                {key: shard.get(key) for key in ("shard", "state", "columns_served")}
                for shard in self.server_stats.get("shards", [])
            ],
        }


async def _drive_session(
    client: AsyncServeClient | ResilientServeClient,
    result: SessionOutcome,
    seed: int,
    block_size: int,
    pushes: int | None,
    seconds: float,
    config: dict[str, Any] | None,
) -> tuple[array, bytearray]:
    """One session's lifetime; ends as a defined outcome, never raises.

    Returns the index and the power digest of every column the
    acknowledged pushes carried, in arrival order.
    """
    indices, digests = array("q"), bytearray()
    resilient = isinstance(client, ResilientServeClient)
    loop = asyncio.get_running_loop()
    try:
        if resilient:
            await client.start()
        else:
            await client.connect()
            await client.open_session(config=config)
        deadline = loop.time() + seconds
        while (result.pushes < pushes) if pushes is not None else (loop.time() < deadline):
            try:
                reply = await client.push(_trace_block(seed, result.pushes, block_size))
            except ServeOverloadError:
                # A shed push never reached the tracker: re-send the same
                # block.  A resilient client has already retried it.
                if resilient:
                    raise
                result.shed_requests += 1
                await asyncio.sleep(0.01)
                continue
            result.pushes += 1
            result.latencies_s.append(reply.latency_s)
            result.detections += len(reply.detections)
            for column in reply.columns:
                indices.append(column.index)
                digests += _digest(column.power)
        await client.close_session()
    except ReproError as exc:
        result.outcome = f"error:{type(exc).__name__}"
    except (ConnectionError, OSError, asyncio.IncompleteReadError):
        result.outcome = "error:ConnectionError"
    finally:
        await client.aclose()
    if resilient:
        stats = client.stats
        result.requests = client.wire_stats.requests
        result.reconnects = stats.reconnects
        result.resumes = stats.resumes
        result.duplicate_acks = stats.duplicate_acks
        result.chaos_events_applied = stats.chaos_events_applied
        result.fleet_migrations = stats.fleet_migrations
        result.recovery_latencies_s = list(stats.recovery_latencies_s)
    else:
        result.requests = client.stats.requests
    return indices, digests


def _verify(
    result: SessionOutcome,
    indices: array,
    digests: bytearray,
    seed: int,
    block_size: int,
    config: TrackingConfig,
) -> None:
    """Hold the served columns to offline compute of the acknowledged blocks.

    Every expected index must arrive once and match its reference
    column byte for byte; a repeat, or an index no acknowledged sample
    makes, is a diverged column, and a missing one leaves ``columns``
    short of ``expected_columns``.
    """
    window, hop = config.window_size, config.hop
    samples = result.pushes * block_size
    expected = (samples - window) // hop + 1 if samples >= window else 0
    served: dict[int, bytes] = {}
    diverged = 0
    for j, index in enumerate(indices):
        if index in served or not 0 <= index < expected:
            diverged += 1
        else:
            served[index] = bytes(digests[j * DIGEST_SIZE : (j + 1) * DIGEST_SIZE])
    for first in range(0, expected, VERIFY_CHUNK):
        last = min(first + VERIFY_CHUNK, expected)
        # Window-aligned: column j is the window at sample j * hop.
        chunk = _trace(seed, first * hop, (last - 1) * hop + window, block_size)
        reference = compute_spectrogram(chunk, config).power
        diverged += sum(
            index in served and served[index] != _digest(row)
            for index, row in zip(range(first, last), reference)
        )
    result.columns = len(served)
    result.expected_columns = expected
    result.diverged_columns = diverged


async def _server_stats(host: str, port: int) -> dict[str, Any]:
    """One last connection for the server's own view of the run."""
    probe = AsyncServeClient(host, port)
    try:
        await probe.connect()
        return await probe.server_stats()
    except (ConnectionError, OSError, ReproError):
        return {}
    finally:
        await probe.aclose()


async def run_load(
    host: str,
    port: int,
    sessions: int = 8,
    seconds: float = 5.0,
    block_size: int = 400,
    seed: int = DEFAULT_SEED,
    config: dict[str, Any] | None = None,
    *,
    pushes: int | None = None,
    chaos_seed: int | None = None,
    chaos_config: ChaosScheduleConfig | None = None,
) -> LoadReport:
    """Drive ``sessions`` concurrent sessions, then verify their columns.

    Session i streams the trace ``seed + i``.  Without ``pushes`` it
    drives an :class:`AsyncServeClient` for ``seconds`` (the timed
    throughput run).  With ``pushes`` it drives a
    :class:`ResilientServeClient` (reconnect, resume, fleet migration)
    under the stable routing key ``load-<i>`` for exactly that many
    blocks, and ``chaos_seed`` gives it the seeded chaos plan
    ``chaos_seed + i`` over them (the chaos and fleet runs).
    """
    if chaos_seed is not None and pushes is None:
        raise ValueError("a chaos plan needs a fixed push count")
    tracking = config_from_wire(dict(config) if config else None)
    plans = [
        None
        if chaos_seed is None
        else ClientChaos(
            ChaosSchedule.generate(
                chaos_config or ChaosScheduleConfig(), pushes, chaos_seed + i
            ),
            seed=chaos_seed + i,
        )
        for i in range(sessions)
    ]
    outcomes = [SessionOutcome(session=i, outcome="complete") for i in range(sessions)]
    clients = [
        ResilientServeClient(
            host,
            port,
            session_config=config,
            chaos=plans[i],
            backoff=BACKOFF,
            seed=seed + i,
            routing_key=f"load-{i}",
        )
        if pushes is not None
        else AsyncServeClient(host, port)
        for i in range(sessions)
    ]
    start = time.perf_counter()
    results = await asyncio.gather(
        *[
            _drive_session(
                clients[i], outcomes[i], seed + i, block_size, pushes, seconds, config
            )
            for i in range(sessions)
        ],
        return_exceptions=True,
    )
    report = LoadReport(
        sessions=sessions,
        pushes_per_session=pushes,
        chaos_seed=chaos_seed,
        seconds=seconds if pushes is None else time.perf_counter() - start,
        outcomes=outcomes,
    )
    # The verifier runs only now, outside the timed phase.
    for i, served in enumerate(results):
        if isinstance(served, BaseException):
            # A bug in the generator, not a protocol outcome: record it
            # as an *undefined* terminal state so the verdict fails loudly.
            outcomes[i].outcome = f"undefined:{type(served).__name__}"
            continue
        _verify(outcomes[i], *served, seed + i, block_size, tracking)
    for i, plan in enumerate(plans):
        if plan is not None:
            report.chaos_log += [f"s{i} plan {line}" for line in plan.schedule.describe()]
            report.chaos_log += [f"s{i} applied {entry.describe()}" for entry in plan.log]
    report.server_stats = await _server_stats(host, port)
    return report
