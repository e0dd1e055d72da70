"""Seeded chaos schedules: deterministic transport/runtime fault plans.

The transport twin of :mod:`repro.faults.schedule`.  Where a fault
schedule corrupts *signal* over capture time, a chaos schedule mangles
*operations* — pushes a client sends, ticks a scheduler runs, replies
a server writes — so its domain is the integer operation index, not
the clock.  That choice is what makes a chaos run replayable: a wall
clock drifts between runs, but "the 7th push of session 3 is
truncated" does not.

The seeding mirrors the faults layer exactly: each kind draws its
events from a child generator seeded ``(seed, kind_index)``, so one
kind's draw never perturbs another's, and two calls to
:meth:`ChaosSchedule.generate` with the same horizon, seed and rate
scale produce *identical* schedules — the property the chaos
determinism test pins down.

The rates (:data:`CHAOS_RATES`) model a hostile-but-plausible network:
roughly one transport event per ~8 client operations at
``rate_scale=1``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np


class ChaosKind(enum.Enum):
    """The chaos taxonomy injected at the transport/runtime boundary."""

    TRUNCATE_FRAME = "truncate-frame"
    CORRUPT_FRAME = "corrupt-frame"
    OVERSIZED_FRAME = "oversized-frame"
    DISCONNECT = "disconnect"
    SLOW_LORIS = "slow-loris"
    DUPLICATE_PUSH = "duplicate-push"
    REORDER_PUSH = "reorder-push"
    STALL_TICK = "stall-tick"
    REPLY_LATENCY = "reply-latency"


#: Stable ordering used for child-generator seeding and tie-breaking
#: events landing on the same operation index.
KIND_ORDER: tuple[ChaosKind, ...] = (
    ChaosKind.TRUNCATE_FRAME,
    ChaosKind.CORRUPT_FRAME,
    ChaosKind.OVERSIZED_FRAME,
    ChaosKind.DISCONNECT,
    ChaosKind.SLOW_LORIS,
    ChaosKind.DUPLICATE_PUSH,
    ChaosKind.REORDER_PUSH,
    ChaosKind.STALL_TICK,
    ChaosKind.REPLY_LATENCY,
)

#: Kinds a client applies to its own outbound pushes.
CLIENT_KINDS: frozenset[ChaosKind] = frozenset(
    {
        ChaosKind.TRUNCATE_FRAME,
        ChaosKind.CORRUPT_FRAME,
        ChaosKind.OVERSIZED_FRAME,
        ChaosKind.DISCONNECT,
        ChaosKind.SLOW_LORIS,
        ChaosKind.DUPLICATE_PUSH,
        ChaosKind.REORDER_PUSH,
    }
)

#: Kinds the server runtime applies to itself.
SERVER_KINDS: frozenset[ChaosKind] = frozenset(
    {ChaosKind.STALL_TICK, ChaosKind.REPLY_LATENCY}
)


@dataclass(frozen=True)
class ChaosEvent:
    """One scheduled chaos action.

    Attributes:
        kind: which transport failure fires.
        op_index: the 0-based operation (push / tick / reply) it
            strikes.
        magnitude: kind-specific strength — a truncation fraction, a
            stall duration in seconds, a dribble delay — see
            :mod:`repro.chaos.injector` for the interpretation.
    """

    kind: ChaosKind
    op_index: int
    magnitude: float

    def describe(self) -> str:
        return f"{self.kind.value} @ op {self.op_index} mag={self.magnitude:.3g}"


#: Arrival rate of each kind, in expected events per 100 operations
#: at ``rate_scale=1``.
CHAOS_RATES: dict[ChaosKind, float] = {
    ChaosKind.TRUNCATE_FRAME: 2.0,
    ChaosKind.CORRUPT_FRAME: 3.0,
    ChaosKind.OVERSIZED_FRAME: 1.0,
    ChaosKind.DISCONNECT: 3.0,
    ChaosKind.SLOW_LORIS: 2.0,
    ChaosKind.DUPLICATE_PUSH: 2.0,
    ChaosKind.REORDER_PUSH: 2.0,
    ChaosKind.STALL_TICK: 1.5,
    ChaosKind.REPLY_LATENCY: 2.0,
}

#: A truncated frame keeps a fraction of its bytes drawn uniformly from
#: ``[min, max)`` by the event's child generator.
TRUNCATE_FRACTION_RANGE: tuple[float, float] = (0.1, 0.9)
#: Pause between dribbled slow-loris chunks (of
#: :data:`repro.serve.resilient.SLOW_LORIS_CHUNK_BYTES` each).
SLOW_LORIS_DELAY_S = 0.005
#: How long a stalled scheduler tick sleeps.  It stays below the
#: scheduler's watchdog timeout, so a stall delays a tick without
#: forcing the serial degraded path.
STALL_TICK_DELAY_S = 0.25
#: Artificial delay before a reply write.
REPLY_LATENCY_S = 0.05


def _chaos_rates(rate_scale: float = 1.0) -> dict[ChaosKind, float]:
    """Effective per-kind rates per 100 ops: :data:`CHAOS_RATES` scaled.

    ``rate_scale`` multiplies every kind, so a soak can sweep overall
    chaos pressure with one value.

    Raises:
        ValueError: ``rate_scale`` is negative.
    """
    if rate_scale < 0:
        raise ValueError("rate scale must be non-negative")
    return {kind: rate * rate_scale for kind, rate in CHAOS_RATES.items()}


def _magnitude(kind: ChaosKind, rng: np.random.Generator) -> float:
    if kind is ChaosKind.TRUNCATE_FRAME:
        return float(rng.uniform(*TRUNCATE_FRACTION_RANGE))
    if kind is ChaosKind.SLOW_LORIS:
        return SLOW_LORIS_DELAY_S
    if kind is ChaosKind.STALL_TICK:
        return STALL_TICK_DELAY_S
    if kind is ChaosKind.REPLY_LATENCY:
        return REPLY_LATENCY_S
    return 0.0


@dataclass(frozen=True)
class ChaosSchedule:
    """A sorted, immutable list of chaos events over an op horizon.

    Build one deterministically with :meth:`generate`, or construct
    directly from explicit events (tests and scripted scenarios).
    """

    events: tuple[ChaosEvent, ...]
    horizon_ops: int
    seed: int | None = None

    @classmethod
    def generate(
        cls, horizon_ops: int, seed: int, rate_scale: float = 1.0
    ) -> ChaosSchedule:
        """Draw a schedule: Poisson arrivals per kind, seeded per kind."""
        if horizon_ops <= 0:
            raise ValueError("schedule horizon must be positive")
        events: list[ChaosEvent] = []
        rates = _chaos_rates(rate_scale)
        for index, kind in enumerate(KIND_ORDER):
            rate = rates[kind]
            if rate == 0:
                continue
            rng = np.random.default_rng([int(seed), index])
            count = int(rng.poisson(rate * horizon_ops / 100.0))
            ops = np.sort(rng.integers(0, horizon_ops, count))
            for op in ops:
                events.append(
                    ChaosEvent(
                        kind=kind,
                        op_index=int(op),
                        magnitude=_magnitude(kind, rng),
                    )
                )
        events.sort(key=lambda e: (e.op_index, KIND_ORDER.index(e.kind)))
        return cls(events=tuple(events), horizon_ops=horizon_ops, seed=seed)

    def events_at(self, op_index: int) -> list[ChaosEvent]:
        """Events striking one operation, in kind order."""
        return [event for event in self.events if event.op_index == op_index]

    def events_of(self, kinds: frozenset[ChaosKind]) -> list[ChaosEvent]:
        """The sub-schedule of the given kinds, original order."""
        return [event for event in self.events if event.kind in kinds]

    def describe(self) -> list[str]:
        """Human-readable, deterministic event log."""
        return [event.describe() for event in self.events]

    def __len__(self) -> int:
        return len(self.events)


def scheduled_chaos_count(horizon_ops: int, rate_scale: float = 1.0) -> float:
    """Expected number of events a schedule of this horizon draws."""
    return sum(_chaos_rates(rate_scale).values()) * horizon_ops / 100.0
