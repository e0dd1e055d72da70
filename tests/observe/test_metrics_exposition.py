"""The ``/metrics`` exposition: cumulativity, monotonicity, exactness.

The load-bearing property: the telemetry section of ``/metrics``
renders the same process-global registry ``Telemetry.flush()``
snapshots into ``metrics.json``, so the gateway's aggregates equal the
offline ``telemetry-report`` aggregates exactly — not approximately.
"""

import asyncio
import json

from repro.observe.prometheus import (
    format_value,
    parse_exposition,
    render_prometheus,
    sanitize_metric_name,
)
from repro.telemetry import Telemetry
from repro.telemetry.context import set_telemetry
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.session import METRICS_FILE

from tests.observe.test_gateway import FAST, _noise, http_get, running_stack
from repro.serve import AsyncServeClient


def _sample_types(text: str) -> dict[str, str]:
    """Sample-family name -> declared type, from the ``# TYPE`` lines."""
    types = {}
    for line in text.splitlines():
        if line.startswith("# TYPE "):
            _, _, name, kind = line.split()
            types[name] = kind
    return types


class TestSanitizeAndFormat:
    def test_dotted_names_gain_the_repro_prefix(self):
        assert sanitize_metric_name("server.request_latency_ms") == (
            "repro_server_request_latency_ms"
        )
        assert sanitize_metric_name("9lives") == "repro__9lives"

    def test_float_values_round_trip_exactly(self):
        for value in (0.1, 1 / 3, 2.5e-17, 1e15 + 1.0):
            assert float(format_value(value)) == value
        assert format_value(7.0) == "7"
        assert format_value(None) == "NaN"
        assert format_value(float("inf")) == "+Inf"

    def test_labelled_info_gauges_render_and_parse(self):
        text = render_prometheus(
            {
                "dsp.backend_info": {
                    "type": "gauge",
                    "value": 1.0,
                    "labels": {"backend": "numpy-float32"},
                }
            }
        )
        assert '# TYPE repro_dsp_backend_info gauge' in text
        samples = parse_exposition(text)
        assert samples['repro_dsp_backend_info{backend="numpy-float32"}'] == 1.0


class TestBucketCumulativity:
    def test_buckets_are_cumulative_and_inf_equals_count(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("lat", buckets=(1.0, 5.0, 25.0, 100.0))
        for value in (0.5, 0.7, 3.0, 30.0, 30.0, 2000.0):
            histogram.observe(value)
        samples = parse_exposition(render_prometheus(registry.snapshot()))
        series = [
            samples['repro_lat_bucket{le="1"}'],
            samples['repro_lat_bucket{le="5"}'],
            samples['repro_lat_bucket{le="25"}'],
            samples['repro_lat_bucket{le="100"}'],
            samples['repro_lat_bucket{le="+Inf"}'],
        ]
        assert series == [2, 3, 3, 5, 6]
        assert all(b <= a for b, a in zip(series, series[1:]))
        assert series[-1] == samples["repro_lat_count"]
        assert samples["repro_lat_sum"] == 0.5 + 0.7 + 3.0 + 30.0 + 30.0 + 2000.0

    def test_live_gateway_histograms_are_cumulative(self, rng):
        async def run():
            async with running_stack(interval_s=30.0) as (server, gateway):
                client = AsyncServeClient("127.0.0.1", server.port)
                await client.connect()
                await client.open_session(config=FAST)
                for _ in range(3):
                    await client.push(_noise(rng, 200))
                _, _, body = await http_get(gateway.port, "/metrics")
                text = body.decode()
                samples = parse_exposition(text)
                # The backend identity rides an info-style sample.
                assert (
                    samples['repro_dsp_backend_info{backend="numpy-float64"}']
                    == 1.0
                )
                for family, kind in _sample_types(text).items():
                    if kind != "histogram":
                        continue
                    series = [
                        value
                        for key, value in sorted(
                            (key, value)
                            for key, value in samples.items()
                            if key.startswith(f"{family}_bucket")
                        )
                    ]
                    inf_key = f'{family}_bucket{{le="+Inf"}}'
                    assert samples[inf_key] == samples[f"{family}_count"]
                    assert min(series) >= 0
                await client.aclose()

        asyncio.run(run())


class TestCounterMonotonicity:
    def test_counters_never_decrease_across_scrapes(self, rng):
        async def run():
            async with running_stack(interval_s=30.0) as (server, gateway):
                client = AsyncServeClient("127.0.0.1", server.port)
                await client.connect()
                await client.open_session(config=FAST)
                await client.push(_noise(rng, 200))
                _, _, body = await http_get(gateway.port, "/metrics")
                first_text = body.decode()
                first = parse_exposition(first_text)
                for _ in range(2):
                    await client.push(_noise(rng, 200))
                _, _, body = await http_get(gateway.port, "/metrics")
                second = parse_exposition(body.decode())
                types = _sample_types(first_text)
                checked = 0
                for key, before in first.items():
                    family = key.split("{")[0]
                    for suffix in ("_bucket", "_sum", "_count"):
                        if family.endswith(suffix):
                            family = family[: -len(suffix)]
                    if types.get(family) != "counter" and not (
                        types.get(family) == "histogram"
                    ):
                        continue
                    assert second[key] >= before, key
                    checked += 1
                assert checked > 10  # the scrape actually covered counters
                # Work between scrapes moved the serving counters.
                assert (
                    second["repro_server_columns_served"]
                    > first["repro_server_columns_served"]
                )
                assert second["repro_server_requests"] > first["repro_server_requests"]
                await client.aclose()

        asyncio.run(run())


class TestOneRecordPerCount:
    def test_serve_counts_have_no_telemetry_twin(self, rng):
        """With telemetry on, each serve count still shows once."""

        async def run():
            set_telemetry(Telemetry(enabled=True))
            async with running_stack(interval_s=30.0) as (server, gateway):
                client = AsyncServeClient("127.0.0.1", server.port)
                await client.connect()
                await client.open_session(config=FAST)
                received = 0
                for _ in range(5):
                    received += len((await client.push(_noise(rng, 200))).columns)
                await client.aclose()
                _, _, body = await http_get(gateway.port, "/metrics")
                return received, parse_exposition(body.decode())

        received, samples = asyncio.run(run())
        assert received > 0
        assert [key for key in samples if key.startswith("repro_serve_")] == []
        assert samples["repro_server_columns_served"] == received


class TestGatewayEqualsOffline:
    def test_exposition_equals_flushed_metrics_json(self, tmp_path, rng):
        """Every metric ``telemetry-report`` reads appears in ``/metrics``
        with the identical value — counters, gauges, and histograms."""

        async def run():
            telemetry = set_telemetry(Telemetry(enabled=True, out_dir=tmp_path))
            async with running_stack(interval_s=30.0) as (server, gateway):
                client = AsyncServeClient("127.0.0.1", server.port)
                await client.connect()
                await client.open_session(config=FAST)
                for _ in range(3):
                    await client.push(_noise(rng, 300))
                await client.close_session()
                await client.aclose()
                # Scrape, then flush with no work in between: the two
                # views snapshot the same registry state.
                _, _, body = await http_get(gateway.port, "/metrics")
                telemetry.flush()
                return parse_exposition(body.decode())

        samples = asyncio.run(run())
        offline = json.loads((tmp_path / METRICS_FILE).read_text(encoding="utf-8"))
        assert offline, "the serve workload recorded no metrics"
        for raw_name, snap in offline.items():
            name = sanitize_metric_name(raw_name)
            if snap["type"] in ("counter", "gauge"):
                assert samples[name] == snap["value"], raw_name
            else:
                cumulative = 0
                for edge, count in zip(snap["buckets"], snap["counts"]):
                    cumulative += count
                    key = f'{name}_bucket{{le="{format_value(edge)}"}}'
                    assert samples[key] == cumulative, key
                assert samples[f'{name}_bucket{{le="+Inf"}}'] == snap["count"]
                assert samples[f"{name}_count"] == snap["count"]
                # repr() round-trips: the float sum is bit-identical.
                assert samples[f"{name}_sum"] == snap["sum"], raw_name
