"""The load generator: reproducible traffic, honest reporting, verified columns."""

import asyncio
import dataclasses

import numpy as np

from repro.cli import main
from repro.serve import SensingServer, ServeConfig, protocol
from repro.serve.load import run_load

from tests.helpers import FAST


class TestRunLoad:
    def test_reports_throughput_latency_and_occupancy(self):
        async def run():
            server = SensingServer(ServeConfig())
            port = await server.start()
            try:
                return await run_load(
                    "127.0.0.1",
                    port,
                    sessions=3,
                    seconds=0.8,
                    block_size=160,
                    config=FAST,
                )
            finally:
                await server.shutdown()

        report = asyncio.run(run())
        assert report.sessions == 3
        assert report.protocol_errors == 0
        assert report.columns > 0
        assert report.columns_per_s > 0
        assert report.total("pushes") >= report.sessions
        # Every round trip: open, each push (shed ones too), close.
        assert report.total("requests") == (
            report.total("pushes") + report.total("shed_requests") + 2 * report.sessions
        )
        assert 0 < report.latency_percentile(0.5) <= report.latency_percentile(0.99)
        summary = report.summary()
        assert summary["protocol_errors"] == 0
        assert summary["batch_occupancy_mean"] is not None
        # The server saw the traffic the report claims.
        assert report.server_stats["server"]["columns_served"] == report.columns
        # ...and every column of it matched offline compute.
        assert report.failures() == []
        assert report.columns == report.total("expected_columns")

    def test_unreachable_server_counts_errors_not_crashes(self):
        async def run():
            # A port nothing listens on: every session fails to connect.
            return await run_load(
                "127.0.0.1", 1, sessions=2, seconds=0.2, config=FAST
            )

        report = asyncio.run(run())
        assert report.protocol_errors == 2
        assert report.columns == 0
        assert report.all_defined
        assert report.failures()[0].startswith("incomplete session(s)")


def _load_one_session():
    async def run():
        server = SensingServer(ServeConfig())
        port = await server.start()
        try:
            return await run_load("127.0.0.1", port, sessions=1, seconds=0.3, config=FAST)
        finally:
            await server.shutdown()

    return asyncio.run(run())


class TestVerifier:
    def test_a_replayed_column_in_place_of_a_lost_one_fails(self, monkeypatch):
        encode = protocol.column_to_wire
        sent = {}

        def replayed(column):
            # Column 3 is lost; column 2 goes out a second time instead,
            # byte-identical to its first copy.
            sent[column.index] = encode(column)
            return sent[2] if column.index == 3 else sent[column.index]

        monkeypatch.setattr(protocol, "column_to_wire", replayed)
        report = _load_one_session()
        outcome = report.outcomes[0]
        assert report.diverged_columns == 1
        assert outcome.columns == outcome.expected_columns - 1
        failures = report.failures()
        assert failures[0] == "1 diverged column(s)"
        assert failures[1].startswith("incomplete session(s)")

    def test_a_run_that_serves_no_column_fails_the_run_and_the_cli(self, capsys):
        async def run():
            server = SensingServer(ServeConfig())
            port = await server.start()
            try:
                # One push of 32 samples: less than a window, so no column.
                report = await run_load(
                    "127.0.0.1", port, sessions=1, pushes=1, block_size=32, config=FAST
                )
                argv = ["load", "--port", str(port), "--sessions", "1", "--resilient",
                        "--pushes", "1", "--block-size", "32"]
                return report, await asyncio.to_thread(main, argv)
            finally:
                await server.shutdown()

        report, code = asyncio.run(run())
        assert report.columns == 0
        assert report.failures() == ["no column served, so none was verified"]
        assert code == 1
        assert "load: no column served" in capsys.readouterr().err

    def test_one_perturbed_column_fails_the_run_and_the_cli(self, monkeypatch, capsys):
        encode = protocol.column_to_wire

        def perturbed(column):
            # One ulp on column 2 of every session, and nothing else.
            if column.index == 2:
                column = dataclasses.replace(
                    column, power=np.nextafter(column.power, np.inf)
                )
            return encode(column)

        monkeypatch.setattr(protocol, "column_to_wire", perturbed)

        async def run():
            server = SensingServer(ServeConfig())
            port = await server.start()
            try:
                report = await run_load(
                    "127.0.0.1", port, sessions=1, seconds=0.3, config=FAST
                )
                # The CLI runs its own event loop, so off this one.
                argv = ["load", "--port", str(port), "--sessions", "1", "--seconds", "0.3"]
                return report, await asyncio.to_thread(main, argv)
            finally:
                await server.shutdown()

        report, code = asyncio.run(run())
        assert report.diverged_columns == 1
        assert report.failures() == ["1 diverged column(s)"]
        assert code == 1
        captured = capsys.readouterr()
        assert "  diverged_columns: 1" in captured.out
        assert "load: 1 diverged column(s)" in captured.err
