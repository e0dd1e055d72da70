"""Console-script smoke paths: ``repro serve`` and ``repro load``.

The serve process must print its bound port on one parseable line —
that line is the contract scripts (and the CI smoke step) rely on when
starting with ``--port 0`` — and SIGTERM must drain it and exit 0.
"""

import re
import subprocess
import sys

import numpy as np
import pytest

from repro.serve import ServeClient

from tests.helpers import wait_for_line

PORT_LINE = re.compile(r"^serve: listening on (\S+) port (\d+)$", re.MULTILINE)


@pytest.fixture
def serve_process(spawn_repro):
    """A real ``repro serve --port 0``: (process, port, log)."""
    process, log = spawn_repro("serve", "--port", "0", "--duration", "30")
    return process, int(wait_for_line(log, PORT_LINE, process).group(2)), log


class TestConsoleScripts:
    def test_serve_prints_bound_port_and_answers(self, serve_process):
        _, port, _ = serve_process
        rng = np.random.default_rng(7)
        with ServeClient("127.0.0.1", port) as client:
            assert client.ping()["type"] == "pong"
            client.open_session(
                config={"window_size": 64, "hop": 16, "subarray_size": 24}
            )
            block = rng.standard_normal(96) + 1j * rng.standard_normal(96)
            reply = client.push(block)
            assert len(reply.columns) == 3
            closed = client.close_session()
            assert closed["columns_out"] == 3

    def test_load_command_exits_zero_against_live_server(self, serve_process):
        _, port, _ = serve_process
        result = subprocess.run(
            [sys.executable, "-m", "repro", "load",
             "--port", str(port), "--sessions", "3", "--seconds", "1"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == 0, result.stdout + result.stderr
        assert "zero protocol errors" in result.stdout

    def test_sigterm_drains_and_prints_the_summary(self, serve_process):
        process, _, log = serve_process
        process.terminate()
        assert process.wait(timeout=15) == 0, log.read_text()
        assert "serve: handled 0 requests" in log.read_text()
