"""TelemetryHub: in-process fan-out of the live telemetry stream.

The hub is the seam between the serve stack and the operator surface.
Producers (server, sessions, scheduler) call :meth:`TelemetryHub.publish`
with plain-dict events; consumers (WebSocket handlers, tests) hold a
:class:`Subscription` and drain its bounded queue.  Two invariants keep
the hot path safe to tap:

* **publish never blocks and never buffers unboundedly.**  With no
  subscribers it is one attribute check.  A full subscriber queue drops
  the event for that subscriber (counted per-subscription and in
  :class:`HubStats`), and a subscriber that accumulates
  :data:`SHED_AFTER_DROPS` drops is **shed**: marked, unsubscribed, and its
  ``on_shed`` callback fired so the transport can be aborted even while
  the handler is parked in ``drain()``.  A slow dashboard can therefore
  never back-pressure the serve path — it loses its feed instead.
* **metrics deltas merge exactly.**  :meth:`metrics_delta` snapshots the
  process-global telemetry registry and publishes only the change since
  the last call (:func:`repro.telemetry.metrics.diff_snapshot`); a
  subscriber that merges every published delta into a fresh registry
  reproduces the live registry's counters and histogram counts exactly.
  The always-on serve counters are not in that registry while a
  server runs; they reach subscribers in ``server.stats`` events.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Any, Callable

from repro.telemetry.context import get_telemetry
from repro.telemetry.metrics import diff_snapshot

#: Bound on one subscriber's unread-event queue.
MAX_QUEUE = 256
#: Total drops after which a slow subscriber is shed.
SHED_AFTER_DROPS = 64


@dataclass
class HubStats:
    """Fan-out accounting, exported under ``repro_observe_*``."""

    events_published: int = 0
    events_dropped: int = 0
    subscribers_shed: int = 0
    deltas_published: int = 0
    max_subscribers: int = 0

    def snapshot(self) -> dict[str, int]:
        return {
            "events_published": self.events_published,
            "events_dropped": self.events_dropped,
            "subscribers_shed": self.subscribers_shed,
            "deltas_published": self.deltas_published,
            "max_subscribers": self.max_subscribers,
        }


class Subscription:
    """One consumer's bounded view of the hub's event stream."""

    def __init__(
        self, hub: "TelemetryHub", on_shed: Callable[[], None] | None = None
    ):
        self._hub = hub
        self.queue: asyncio.Queue[dict[str, Any]] = asyncio.Queue(MAX_QUEUE)
        self.on_shed = on_shed
        self.dropped = 0
        self.delivered = 0
        self.shed = False
        self.closed = False

    async def get(self) -> dict[str, Any]:
        """The next event (waits); check :attr:`shed` between calls."""
        return await self.queue.get()

    def close(self) -> None:
        self.closed = True
        self._hub.unsubscribe(self)


class TelemetryHub:
    """Push-based fan-out over the PR-3 metrics/events session.

    The hub itself runs no tasks: producers push synchronously, and the
    gateway (or a test) drives :meth:`metrics_delta` periodically.
    """

    def __init__(self, clock=time.time):
        self.stats = HubStats()
        self._clock = clock
        self._subscriptions: list[Subscription] = []
        self._last_snapshot: dict[str, dict[str, Any]] = {}

    @property
    def subscriber_count(self) -> int:
        return len(self._subscriptions)

    @property
    def has_subscribers(self) -> bool:
        return bool(self._subscriptions)

    def subscribe(self, on_shed: Callable[[], None] | None = None) -> Subscription:
        subscription = Subscription(self, on_shed=on_shed)
        self._subscriptions.append(subscription)
        self.stats.max_subscribers = max(
            self.stats.max_subscribers, len(self._subscriptions)
        )
        return subscription

    def unsubscribe(self, subscription: Subscription) -> None:
        try:
            self._subscriptions.remove(subscription)
        except ValueError:
            pass

    def publish(self, kind: str, **fields: Any) -> dict[str, Any] | None:
        """Fan one event out to every subscriber; never blocks.

        Returns the event dict, or ``None`` when there were no
        subscribers (the event is not built — tapping an idle hub from
        the serve hot path costs one list check).
        """
        if not self._subscriptions:
            return None
        event: dict[str, Any] = {"kind": kind, "ts": round(float(self._clock()), 6)}
        event.update(fields)
        self._fan_out(event)
        return event

    def _fan_out(self, event: dict[str, Any]) -> None:
        self.stats.events_published += 1
        to_shed: list[Subscription] = []
        for subscription in self._subscriptions:
            try:
                subscription.queue.put_nowait(event)
                subscription.delivered += 1
            except asyncio.QueueFull:
                subscription.dropped += 1
                self.stats.events_dropped += 1
                if subscription.dropped >= SHED_AFTER_DROPS:
                    to_shed.append(subscription)
        for subscription in to_shed:
            self._shed(subscription)

    def _shed(self, subscription: Subscription) -> None:
        subscription.shed = True
        self.unsubscribe(subscription)
        self.stats.subscribers_shed += 1
        if subscription.on_shed is not None:
            try:
                subscription.on_shed()
            except Exception:  # noqa: BLE001 - a consumer callback must not hurt the producer
                pass

    def metrics_delta(self) -> dict[str, Any] | None:
        """Publish the registry change since the last call, if any.

        Returns the published event, or ``None`` when nothing changed.
        A registry that cannot be diffed against the last snapshot (a
        metric changed type or bucket edges, as when a test swaps
        telemetry sessions) restarts the chain: the next call publishes
        the whole registry.
        """
        current = get_telemetry().metrics.snapshot()
        try:
            delta = diff_snapshot(self._last_snapshot, current)
        except ValueError:
            self._last_snapshot = {}
            return None
        self._last_snapshot = current
        if not delta:
            return None
        self.stats.deltas_published += 1
        return self.publish("metrics.delta", metrics=delta)
