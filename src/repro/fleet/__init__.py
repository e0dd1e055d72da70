"""repro.fleet — sharded multi-worker serving.

A routing frontend (:mod:`repro.fleet.frontend`) speaks the exact
NDJSON wire protocol of :mod:`repro.serve` and proxies each session to
one of N forked worker processes (:mod:`repro.fleet.worker`), each a
complete single-process serving stack with its own scheduler, DSP
steering cache, and backend selection.  Session→shard assignment is a
consistent-hash ring (:mod:`repro.fleet.ring`) over a stable
``routing_key``, honored across :class:`~repro.serve.resilient.
ResilientServeClient` reconnect/resume; shard drain and worker crashes
surface as typed :class:`~repro.errors.FleetError` frames the
resilient client turns into checkpoint migrations; and per-shard
telemetry merges with the PR-3 exact snapshot semantics, so fleet
aggregates provably equal the sum of per-shard registries.
"""

from repro.fleet.frontend import (
    FleetConfig,
    FleetServer,
    FleetStats,
    merge_snapshots,
)
from repro.fleet.ring import HashRing, stable_hash
from repro.fleet.worker import WorkerHandle, WorkerSpec

__all__ = [
    "FleetConfig",
    "FleetServer",
    "FleetStats",
    "HashRing",
    "WorkerHandle",
    "WorkerSpec",
    "merge_snapshots",
    "stable_hash",
]
