"""repro.chaos — seeded transport/runtime fault injection.

The transport-domain twin of :mod:`repro.faults`: where the faults
layer corrupts samples at the hardware boundary, the chaos layer
mangles the serving stack's *operations* — torn and corrupted wire
frames, mid-push disconnects, slow-loris byte dribble, duplicated and
reordered pushes, stalled scheduler ticks, delayed replies.  One seed
reproduces an entire chaos plan bit-for-bit (schedules are drawn from
per-kind child generators exactly like fault schedules), which is what
lets the chaos soak gate on *identical* event logs across runs.

The serve stack is expected to survive everything this package throws:
see :mod:`repro.serve.resilient` for the client half (reconnect,
backoff, resume-from-checkpoint) and DESIGN.md §11 for the failure
matrix.
"""

from repro.chaos.injector import ChaosLogEntry, ClientChaos, ServerChaos
from repro.chaos.schedule import (
    CLIENT_KINDS,
    KIND_ORDER,
    SERVER_KINDS,
    ChaosEvent,
    ChaosKind,
    ChaosSchedule,
    scheduled_chaos_count,
)

__all__ = [
    "CLIENT_KINDS",
    "ChaosEvent",
    "ChaosKind",
    "ChaosLogEntry",
    "ChaosSchedule",
    "ClientChaos",
    "KIND_ORDER",
    "SERVER_KINDS",
    "ServerChaos",
    "scheduled_chaos_count",
]
