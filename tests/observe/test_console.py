"""Console smoke for the operator surface: ``--dashboard`` and ``observe``.

Both listeners honor ``--port 0`` and print the bound port on one
parseable line following the ``serve`` convention — the contract the
CI gateway smoke step greps for.
"""

import json
import re
import subprocess
import sys
import urllib.request

from repro.telemetry import Telemetry

from tests.helpers import wait_for_line

OBSERVE_LINE = re.compile(r"^observe: listening on (\S+) port (\d+)$", re.MULTILINE)


def _get_json(port, path):
    with urllib.request.urlopen(f"http://127.0.0.1:{port}{path}", timeout=10) as resp:
        return json.loads(resp.read())


def _dashboard_port(spawn_repro, command, *options):
    """Start ``command`` with a co-hosted gateway; its port, once both bind lines parse."""
    process, log = spawn_repro(
        command, "--port", "0", "--duration", "30",
        "--dashboard", "--dashboard-port", "0", *options,
    )
    bind_line = re.compile(rf"^{command}: listening on (\S+) port (\d+)$", re.MULTILINE)
    assert wait_for_line(log, bind_line, process) is not None
    port = int(wait_for_line(log, OBSERVE_LINE, process).group(2))
    payload = _get_json(port, "/healthz")
    assert payload["status"] == "ok"
    assert payload["mode"] == command
    assert _get_json(port, "/readyz")["ready"] is True
    return port


class TestServeDashboard:
    def test_dashboard_port_zero_prints_parseable_line(self, spawn_repro):
        _dashboard_port(spawn_repro, "serve")


class TestFleetDashboard:
    def test_fleet_dashboard_lists_its_shards(self, spawn_repro):
        port = _dashboard_port(spawn_repro, "fleet", "--workers", "1")
        shards = _get_json(port, "/api/shards")["shards"]
        assert [shard["shard"] for shard in shards] == ["w0"]


class TestObserveReplay:
    def test_observe_replays_a_recorded_directory(self, spawn_repro, tmp_path):
        run_dir = tmp_path / "run"
        telemetry = Telemetry(enabled=True, out_dir=run_dir)
        telemetry.events.emit(
            "stream.detection", session="s1", time_s=1.0, angle_deg=12.0,
            strength_db=4.0,
        )
        telemetry.metrics.counter("music.windows").inc(3)
        telemetry.flush()

        process, log = spawn_repro(
            "observe", "--telemetry", str(run_dir), "--port", "0",
            "--duration", "30",
        )
        match = wait_for_line(log, OBSERVE_LINE, process)
        port = int(match.group(2))
        assert wait_for_line(
            log, re.compile(r"^observe: replaying 1 events", re.MULTILINE), process
        )
        assert _get_json(port, "/healthz")["mode"] == "replay"
        with urllib.request.urlopen(
            f"http://127.0.0.1:{port}/metrics", timeout=10
        ) as resp:
            assert b"repro_music_windows 3" in resp.read()

    def test_observe_missing_directory_exits_2(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "repro", "observe",
             "--telemetry", str(tmp_path / "nope")],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == 2
