"""TelemetryHub fan-out: backpressure, shedding, exact metric deltas."""

import asyncio

import pytest

from repro.observe import hub as hub_module
from repro.observe.hub import TelemetryHub
from repro.telemetry import Telemetry
from repro.telemetry.context import set_telemetry
from repro.telemetry.metrics import MetricsRegistry, diff_snapshot


class TestPublish:
    def test_no_subscribers_is_free(self):
        hub = TelemetryHub()
        assert hub.publish("columns", session="s1") is None
        assert hub.stats.events_published == 0

    def test_fans_out_to_every_subscriber(self):
        async def run():
            hub = TelemetryHub(clock=lambda: 12.5)
            a = hub.subscribe()
            b = hub.subscribe()
            event = hub.publish("health", session="s1", state="degraded")
            assert event == {
                "kind": "health",
                "ts": 12.5,
                "session": "s1",
                "state": "degraded",
            }
            assert await a.get() == event
            assert await b.get() == event
            assert hub.stats.events_published == 1
            assert hub.stats.max_subscribers == 2

        asyncio.run(run())

    def test_closed_subscription_stops_receiving(self):
        async def run():
            hub = TelemetryHub()
            sub = hub.subscribe()
            sub.close()
            assert not hub.has_subscribers
            assert hub.publish("columns") is None

        asyncio.run(run())


class TestSlowConsumers:
    def test_full_queue_drops_are_counted(self, monkeypatch):
        monkeypatch.setattr(hub_module, "MAX_QUEUE", 2)

        async def run():
            hub = TelemetryHub()
            sub = hub.subscribe()
            for _ in range(5):
                hub.publish("columns")
            assert sub.dropped == 3
            assert sub.delivered == 2
            assert hub.stats.events_dropped == 3
            assert not sub.shed

        asyncio.run(run())

    def test_shed_after_drop_budget_and_callback(self, monkeypatch):
        monkeypatch.setattr(hub_module, "MAX_QUEUE", 1)
        monkeypatch.setattr(hub_module, "SHED_AFTER_DROPS", 3)

        async def run():
            aborted = []
            hub = TelemetryHub()
            sub = hub.subscribe(on_shed=lambda: aborted.append(True))
            fast = hub.subscribe()
            for _ in range(4):  # 1 delivered + 3 dropped -> shed
                hub.publish("columns")
                await fast.get()  # the fast consumer keeps up
            assert sub.shed
            assert aborted == [True]
            assert hub.stats.subscribers_shed == 1
            assert hub.subscriber_count == 1  # the fast one survives
            assert fast.delivered == 4

        asyncio.run(run())

    def test_shed_callback_errors_never_reach_the_producer(self, monkeypatch):
        monkeypatch.setattr(hub_module, "MAX_QUEUE", 1)
        monkeypatch.setattr(hub_module, "SHED_AFTER_DROPS", 1)

        async def run():
            hub = TelemetryHub()

            def explode():
                raise RuntimeError("broken transport")

            hub.subscribe(on_shed=explode)
            hub.publish("a")
            hub.publish("b")  # drop -> shed -> callback raises, swallowed
            assert hub.stats.subscribers_shed == 1

        asyncio.run(run())


class TestMetricsDelta:
    """The exact-merge property the operator surface is built on."""

    def _configured(self, tmp_path):
        return set_telemetry(Telemetry(enabled=True, out_dir=tmp_path))

    def test_no_change_publishes_nothing(self, tmp_path):
        self._configured(tmp_path)
        hub = TelemetryHub()
        hub.subscribe()
        assert hub.metrics_delta() is None
        assert hub.stats.deltas_published == 0

    def test_delta_carries_only_the_change(self, tmp_path):
        async def run():
            telemetry = self._configured(tmp_path)
            hub = TelemetryHub()
            sub = hub.subscribe()
            telemetry.metrics.counter("music.windows").inc(5)
            telemetry.metrics.counter("music.errors").inc(1)
            hub.metrics_delta()
            telemetry.metrics.counter("music.windows").inc(2)
            event = hub.metrics_delta()
            assert event["kind"] == "metrics.delta"
            # Only the counter that moved appears, and as a delta.
            assert event["metrics"] == {
                "music.windows": {"type": "counter", "value": 2}
            }
            first = await sub.get()
            assert first["metrics"]["music.windows"]["value"] == 5

        asyncio.run(run())

    def test_merging_every_delta_reproduces_the_registry(self, tmp_path):
        """Counters and histogram counts round-trip exactly through deltas."""
        telemetry = self._configured(tmp_path)
        hub = TelemetryHub()
        hub.subscribe()
        rebuilt = MetricsRegistry()
        histogram = telemetry.metrics.histogram(
            "stage.track.latency_ms", buckets=(1.0, 5.0, 25.0)
        )
        for round_values in ((0.5, 2.0), (3.0, 30.0), (0.25,)):
            for value in round_values:
                histogram.observe(value)
            telemetry.metrics.counter("music.windows").inc(len(round_values))
            event = hub.metrics_delta()
            rebuilt.merge(event["metrics"])
        live = telemetry.metrics.snapshot()
        mirror = rebuilt.snapshot()
        assert mirror["music.windows"] == live["music.windows"]
        live_hist = live["stage.track.latency_ms"]
        mirror_hist = mirror["stage.track.latency_ms"]
        for exact_key in ("buckets", "counts", "count", "min", "max"):
            assert mirror_hist[exact_key] == live_hist[exact_key]
        assert mirror_hist["sum"] == pytest.approx(live_hist["sum"])

    def test_gauge_is_last_write_wins(self, tmp_path):
        telemetry = self._configured(tmp_path)
        hub = TelemetryHub()
        hub.subscribe()
        telemetry.metrics.gauge("ring.occupancy").set(10.0)
        hub.metrics_delta()
        telemetry.metrics.gauge("ring.occupancy").set(3.0)
        event = hub.metrics_delta()
        assert event["metrics"]["ring.occupancy"]["value"] == 3.0

    def test_swapped_registry_restarts_the_delta_chain(self, tmp_path):
        hub = TelemetryHub()
        hub.subscribe()
        self._configured(tmp_path).metrics.counter("ring.occupancy").inc(4)
        hub.metrics_delta()
        # A new session reuses the name as a gauge: no diff exists.
        self._configured(tmp_path).metrics.gauge("ring.occupancy").set(2.0)
        assert hub.metrics_delta() is None
        event = hub.metrics_delta()
        assert event["metrics"] == {"ring.occupancy": {"type": "gauge", "value": 2.0}}


class TestDiffSnapshot:
    def test_histogram_bucket_change_raises(self):
        prev = {"h": {"type": "histogram", "buckets": [1.0], "counts": [1],
                      "count": 1, "sum": 0.5, "min": 0.5, "max": 0.5}}
        cur = {"h": {"type": "histogram", "buckets": [2.0], "counts": [1],
                     "count": 1, "sum": 0.5, "min": 0.5, "max": 0.5}}
        with pytest.raises(ValueError, match="bucket"):
            diff_snapshot(prev, cur)

    def test_type_change_raises(self):
        prev = {"m": {"type": "counter", "value": 1}}
        cur = {"m": {"type": "gauge", "value": 1.0}}
        with pytest.raises(ValueError, match="type"):
            diff_snapshot(prev, cur)

    def test_unchanged_metrics_are_omitted(self):
        snap = {"c": {"type": "counter", "value": 4}}
        assert diff_snapshot(snap, snap) == {}
