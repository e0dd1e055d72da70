"""repro.serve — multi-session sensing service.

A stdlib-only asyncio TCP server exposing the Wi-Vi streaming stack to
many concurrent clients over a newline-delimited-JSON protocol
(:mod:`repro.serve.protocol`).  Each connection's sessions keep their
own tracker and health machine (:mod:`repro.serve.session`); their
completed MUSIC windows meet in one cross-session micro-batching
scheduler (:mod:`repro.serve.scheduler`) that turns concurrent load
into large stacked :mod:`repro.dsp` passes — the continuous-batching
pattern from inference serving, correctness-free here thanks to the
PR-4 batch-stability contract.

The resilience layer (PR 6) makes the whole stack survivable: typed
error frames for malformed input, read/write deadlines and a scheduler
watchdog on the server, and a reconnecting, checkpoint-resuming client
(:mod:`repro.serve.resilient`) whose served columns stay bit-equal to
an uninterrupted run under the seeded chaos harness
(:mod:`repro.chaos`, driven by :func:`run_load`).
"""

from repro.serve.client import AsyncServeClient, ClientStats, PushReply, ServeClient
from repro.serve.load import LoadReport, SessionOutcome, run_load
from repro.serve.resilient import ResilienceStats, ResilientServeClient
from repro.serve.scheduler import MicroBatchScheduler, SchedulerConfig, SchedulerStats
from repro.serve.session import (
    CONFIGURABLE_FIELDS,
    ServeSession,
    SessionStats,
    config_from_wire,
)
from repro.serve.server import SensingServer, ServeConfig, ServerStats

__all__ = [
    "AsyncServeClient",
    "CONFIGURABLE_FIELDS",
    "ClientStats",
    "LoadReport",
    "MicroBatchScheduler",
    "PushReply",
    "ResilienceStats",
    "ResilientServeClient",
    "SchedulerConfig",
    "SchedulerStats",
    "SensingServer",
    "ServeClient",
    "ServeConfig",
    "ServeSession",
    "ServerStats",
    "SessionOutcome",
    "SessionStats",
    "config_from_wire",
    "run_load",
]
