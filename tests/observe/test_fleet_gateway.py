"""The gateway's fleet surface: ``/api/shards``, readiness, exposition.

A lightweight stand-in fleet exercises the HTTP layer without forking
worker processes (the real frontend is covered end-to-end in
``tests/fleet``); what matters here is the route contract — shard
snapshots on ``/api/shards``, drain-aware ``/readyz``, and the
``repro_fleet_shard_*`` labeled families on ``/metrics``.
"""

import asyncio
from contextlib import asynccontextmanager

from repro.fleet.frontend import merge_snapshots
from repro.observe import ObserveConfig, ObserveGateway, TelemetryHub
from repro.observe.prometheus import parse_exposition, render_prometheus
from repro.telemetry.metrics import MetricsRegistry

from tests.observe.test_gateway import http_get, http_get_json


class _StubStats:
    def __init__(self):
        self.sessions_routed = 5
        self.worker_restarts = 1

    def snapshot(self):
        return {
            "sessions_routed": self.sessions_routed,
            "worker_restarts": self.worker_restarts,
        }


class StubFleet:
    """The attribute surface the gateway reads off a FleetServer."""

    def __init__(self, shards=None, draining=False):
        self.draining = draining
        self.stats = _StubStats()
        self._shards = shards if shards is not None else [
            {
                "shard": "w0",
                "state": "up",
                "pid": 100,
                "port": 5000,
                "generation": 0,
                "restarts": 0,
                "active_sessions": 2,
                "queue_depth": 3,
                "columns_served": 40,
                "requests": 9,
                "dsp_backend": "numpy-float64",
            },
            {
                "shard": "w1",
                "state": "draining",
                "pid": 101,
                "port": 5001,
                "generation": 1,
                "restarts": 1,
                "active_sessions": 1,
                "queue_depth": 0,
                "columns_served": 7,
                "requests": 2,
                "dsp_backend": "numpy-float64",
            },
        ]

    def shard_snapshots(self):
        return list(self._shards)

    def metric_snapshots(self):
        # A fleet's per-shard totals hold counters and histograms only.
        a = MetricsRegistry()
        a.counter("server.columns_served").inc(40)
        a.histogram("server.request_latency_ms").observe(2.0)
        b = MetricsRegistry()
        b.counter("server.columns_served").inc(7)
        b.histogram("server.request_latency_ms").observe(30.0)
        return {"w0": a.snapshot(), "w1": b.snapshot()}

    def metrics_snapshot(self):
        return merge_snapshots(list(self.metric_snapshots().values()))

    def _stats_reply(self):
        return {
            "type": "server_stats_reply",
            "active_sessions": 3,
            "queue_depth": 3,
            "dsp_backend": "numpy-float64",
            "server": {},
            "scheduler": {},
            "fleet": self.stats.snapshot(),
            "shards": self.shard_snapshots(),
        }


@asynccontextmanager
async def running_fleet_gateway(fleet):
    hub = TelemetryHub()
    gateway = ObserveGateway(hub, fleet=fleet, config=ObserveConfig(port=0))
    await gateway.start()
    try:
        yield gateway
    finally:
        await gateway.shutdown()


class TestFleetRoutes:
    def test_api_shards_reports_per_shard_load(self):
        async def run():
            async with running_fleet_gateway(StubFleet()) as gateway:
                status, body = await http_get_json(gateway.port, "/api/shards")
                assert status == 200
                assert [s["shard"] for s in body["shards"]] == ["w0", "w1"]
                assert body["shards"][0]["active_sessions"] == 2
                assert body["fleet"]["sessions_routed"] == 5
                status, health = await http_get_json(gateway.port, "/healthz")
                assert status == 200
                assert health["mode"] == "fleet"

        asyncio.run(run())

    def test_api_shards_without_fleet_is_empty(self):
        async def run():
            hub = TelemetryHub()
            gateway = ObserveGateway(hub, config=ObserveConfig(port=0))
            await gateway.start()
            try:
                status, body = await http_get_json(gateway.port, "/api/shards")
                assert status == 200
                assert body == {"shards": [], "fleet": None}
            finally:
                await gateway.shutdown()

        asyncio.run(run())

    def test_readyz_tracks_shard_health(self):
        async def run():
            async with running_fleet_gateway(StubFleet()) as gateway:
                status, body = await http_get_json(gateway.port, "/readyz")
                assert status == 200
                assert body["shards_up"] == 1  # w1 is draining
                assert body["shards_total"] == 2

            down = StubFleet()
            for shard in down._shards:
                shard["state"] = "down"
            async with running_fleet_gateway(down) as gateway:
                status, body = await http_get_json(gateway.port, "/readyz")
                assert status == 503
                assert body["reason"] == "no routable shards"

            async with running_fleet_gateway(
                StubFleet(draining=True)
            ) as gateway:
                status, body = await http_get_json(gateway.port, "/readyz")
                assert status == 503
                assert body["reason"] == "draining"

        asyncio.run(run())

    def test_metrics_carries_labeled_shard_families(self):
        async def run():
            async with running_fleet_gateway(StubFleet()) as gateway:
                _, _, body = await http_get(gateway.port, "/metrics")
                return body.decode()

        text = asyncio.run(run())
        samples = parse_exposition(text)
        assert samples['repro_fleet_shard_up{shard="w0"}'] == 1.0
        assert samples['repro_fleet_shard_up{shard="w1"}'] == 0.0
        assert samples['repro_fleet_shard_active_sessions{shard="w0"}'] == 2.0
        assert samples['repro_fleet_shard_queue_depth{shard="w0"}'] == 3.0
        assert samples['repro_fleet_shard_restarts{shard="w1"}'] == 1.0
        assert samples['repro_fleet_shard_columns_served{shard="w0"}'] == 40.0
        assert samples['repro_fleet_shard_columns_served{shard="w1"}'] == 7.0
        # The merged section is the exact fold of the shard snapshots:
        # 40 + 7, and both shards' latencies in one histogram.  Levels
        # stay in the labeled per-shard families only.
        assert samples["repro_server_columns_served"] == 47.0
        assert samples["repro_server_request_latency_ms_count"] == 2.0
        assert "repro_server_active_sessions" not in samples
        assert samples["repro_fleet_sessions_routed"] == 5.0


class TestMultiSampleFamilies:
    def test_one_type_line_many_samples(self):
        text = render_prometheus(
            {
                "fleet.shard_up": {
                    "type": "gauge",
                    "samples": [
                        {"labels": {"shard": "w0"}, "value": 1.0},
                        {"labels": {"shard": "w1"}, "value": 0.0},
                    ],
                }
            }
        )
        lines = text.splitlines()
        assert lines[0] == "# TYPE repro_fleet_shard_up gauge"
        assert lines[1] == 'repro_fleet_shard_up{shard="w0"} 1'
        assert lines[2] == 'repro_fleet_shard_up{shard="w1"} 0'
        assert len(lines) == 3
        parsed = parse_exposition(text)
        assert parsed['repro_fleet_shard_up{shard="w0"}'] == 1.0

    def test_empty_family_renders_type_only(self):
        text = render_prometheus(
            {"fleet.shard_up": {"type": "gauge", "samples": []}}
        )
        assert text.splitlines() == ["# TYPE repro_fleet_shard_up gauge"]
