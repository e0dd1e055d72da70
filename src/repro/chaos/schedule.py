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
:meth:`ChaosSchedule.generate` with the same config, horizon, and seed
produce *identical* schedules — the property the chaos determinism
test pins down.

Default rates model a hostile-but-plausible network: roughly one
transport event per ~8 client operations at ``rate_scale=1``.
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


@dataclass(frozen=True)
class ChaosScheduleConfig:
    """Arrival rates and magnitudes of the injected chaos mix.

    Rates are expected events per 100 operations; ``rate_scale``
    multiplies all of them so a soak can sweep overall chaos pressure
    with one knob (mirroring ``FaultScheduleConfig.rate_scale``).

    Attributes:
        truncate_min_fraction: a truncated frame keeps at least this
            fraction of its bytes (the exact fraction is drawn
            uniformly up to ``truncate_max_fraction`` from the event's
            child generator).
        slow_loris_delay_s: pause between dribbled chunks (of
            :data:`repro.serve.resilient.SLOW_LORIS_CHUNK_BYTES` each).
        stall_tick_delay_s: how long a stalled scheduler tick sleeps —
            set it beyond the watchdog timeout to force the serial
            degraded path.
        reply_latency_s: artificial delay before a reply write.
    """

    truncate_frame_rate: float = 2.0
    corrupt_frame_rate: float = 3.0
    oversized_frame_rate: float = 1.0
    disconnect_rate: float = 3.0
    slow_loris_rate: float = 2.0
    duplicate_push_rate: float = 2.0
    reorder_push_rate: float = 2.0
    stall_tick_rate: float = 1.5
    reply_latency_rate: float = 2.0
    rate_scale: float = 1.0

    truncate_min_fraction: float = 0.1
    truncate_max_fraction: float = 0.9
    slow_loris_delay_s: float = 0.005
    stall_tick_delay_s: float = 0.25
    reply_latency_s: float = 0.05

    def __post_init__(self) -> None:
        for name, rate in self.rates().items():
            if rate < 0:
                raise ValueError(f"{name} rate must be non-negative")
        if self.rate_scale < 0:
            raise ValueError("rate scale must be non-negative")
        if not 0 < self.truncate_min_fraction <= self.truncate_max_fraction < 1:
            raise ValueError("truncate fractions must satisfy 0 < min <= max < 1")
        for name in ("slow_loris_delay_s", "stall_tick_delay_s", "reply_latency_s"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    def rates(self) -> dict[ChaosKind, float]:
        """Effective per-kind rates per 100 ops (after ``rate_scale``)."""
        return {
            ChaosKind.TRUNCATE_FRAME: self.truncate_frame_rate * self.rate_scale,
            ChaosKind.CORRUPT_FRAME: self.corrupt_frame_rate * self.rate_scale,
            ChaosKind.OVERSIZED_FRAME: self.oversized_frame_rate * self.rate_scale,
            ChaosKind.DISCONNECT: self.disconnect_rate * self.rate_scale,
            ChaosKind.SLOW_LORIS: self.slow_loris_rate * self.rate_scale,
            ChaosKind.DUPLICATE_PUSH: self.duplicate_push_rate * self.rate_scale,
            ChaosKind.REORDER_PUSH: self.reorder_push_rate * self.rate_scale,
            ChaosKind.STALL_TICK: self.stall_tick_rate * self.rate_scale,
            ChaosKind.REPLY_LATENCY: self.reply_latency_rate * self.rate_scale,
        }

    def _magnitude(self, kind: ChaosKind, rng: np.random.Generator) -> float:
        if kind is ChaosKind.TRUNCATE_FRAME:
            return float(
                rng.uniform(self.truncate_min_fraction, self.truncate_max_fraction)
            )
        if kind is ChaosKind.SLOW_LORIS:
            return self.slow_loris_delay_s
        if kind is ChaosKind.STALL_TICK:
            return self.stall_tick_delay_s
        if kind is ChaosKind.REPLY_LATENCY:
            return self.reply_latency_s
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
        cls,
        config: ChaosScheduleConfig,
        horizon_ops: int,
        seed: int,
    ) -> ChaosSchedule:
        """Draw a schedule: Poisson arrivals per kind, seeded per kind."""
        if horizon_ops <= 0:
            raise ValueError("schedule horizon must be positive")
        events: list[ChaosEvent] = []
        rates = config.rates()
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
                        magnitude=config._magnitude(kind, rng),
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


def scheduled_chaos_count(config: ChaosScheduleConfig, horizon_ops: int) -> float:
    """Expected number of events a schedule of this horizon draws."""
    return sum(config.rates().values()) * horizon_ops / 100.0
