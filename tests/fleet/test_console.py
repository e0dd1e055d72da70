"""Console smoke: ``repro fleet`` and ``repro load --resilient``.

The fleet process must print its bound port and one line per shard in
the same parseable convention as ``repro serve`` — scripts and the CI
fleet smoke step rely on those lines when starting with ``--port 0`` —
and SIGTERM must drain it, reap every shard, and exit 0.
"""

import os
import re
import subprocess
import sys

import pytest

from tests.helpers import wait_for_line

PORT_LINE = re.compile(r"^fleet: listening on (\S+) port (\d+)$", re.MULTILINE)
SHARD_LINE = re.compile(r"^fleet: shard (w\d+) pid (\d+) port (\d+)$", re.MULTILINE)


@pytest.fixture
def fleet_process(spawn_repro):
    """A real ``repro fleet --port 0``: (process, port, shard pids, log)."""
    process, log = spawn_repro("fleet", "--port", "0", "--workers", "2", "--duration", "60")
    port = int(wait_for_line(log, PORT_LINE, process, timeout=30).group(2))
    wait_for_line(log, re.compile(r"^fleet: shard w1 ", re.MULTILINE), process)
    shards = {m.group(1): int(m.group(2)) for m in SHARD_LINE.finditer(log.read_text())}
    assert sorted(shards) == ["w0", "w1"], log.read_text()
    return process, port, shards, log


class TestFleetConsole:
    def test_resilient_load_verifies_through_the_fleet(self, fleet_process):
        _, port, _, _ = fleet_process
        result = subprocess.run(
            [sys.executable, "-m", "repro", "load", "--resilient",
             "--port", str(port), "--sessions", "4", "--pushes", "4",
             "--block-size", "200"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stdout + result.stderr
        assert "zero divergence" in result.stdout
        assert "diverged_columns: 0" in result.stdout

    def test_sigterm_drains_and_reaps_every_shard(self, fleet_process):
        process, _, shards, log = fleet_process
        process.terminate()
        assert process.wait(timeout=30) == 0, log.read_text()
        assert "fleet: routed 0 session(s)" in log.read_text()
        for pid in shards.values():
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)
