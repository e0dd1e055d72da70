"""End-to-end console flow: record -> list -> replay -> prune.

Each step runs ``python -m repro`` as a real subprocess and scrapes
the same parseable lines the CI smoke step relies on.
"""

from __future__ import annotations

import re
import subprocess
import sys

import pytest

RECORD_LINE = re.compile(r"^record: capture (\S+) sealed in (\S+)$", re.MULTILINE)


def _repro(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    """One recorded capture shared by the whole console flow."""
    store = tmp_path_factory.mktemp("clistore")
    result = _repro(
        "record", "--store", str(store), "--duration", "2",
        "--seed", "3", "--block-size", "64",
    )
    assert result.returncode == 0, result.stderr
    match = RECORD_LINE.search(result.stdout)
    assert match, f"no parseable record line in: {result.stdout!r}"
    return store, match.group(1)


class TestConsoleFlow:
    def test_record_prints_the_parseable_contract_line(self, recorded):
        store, capture_id = recorded
        assert capture_id.startswith("cap-")
        assert (store / capture_id / "footer.json").is_file()

    def test_captures_list_shows_the_capture(self, recorded):
        store, capture_id = recorded
        result = _repro("captures", "list", "--store", str(store))
        assert result.returncode == 0, result.stderr
        assert capture_id in result.stdout
        assert "sealed" in result.stdout

    def test_replay_verifies_bit_identical(self, recorded):
        store, capture_id = recorded
        result = _repro("replay", capture_id, "--store", str(store))
        assert result.returncode == 0, result.stderr
        assert "bit-identical" in result.stdout

    def test_replay_promotes_to_a_fixture_bundle(self, recorded, tmp_path):
        store, capture_id = recorded
        result = _repro(
            "replay", capture_id, "--store", str(store),
            "--promote", str(tmp_path / "fixtures"),
        )
        assert result.returncode == 0, result.stderr
        bundle = tmp_path / "fixtures" / f"{capture_id}.capture.ndjson.gz"
        assert bundle.is_file()
        replayed = _repro("replay", str(bundle))
        assert replayed.returncode == 0, replayed.stderr
        assert "bit-identical" in replayed.stdout

    def test_replay_unknown_capture_fails(self, recorded):
        store, _ = recorded
        result = _repro("replay", "cap-0000000000000-000", "--store", str(store))
        assert result.returncode != 0

    def test_prune_requires_a_bound(self, recorded):
        store, _ = recorded
        result = _repro("captures", "prune", "--store", str(store))
        assert result.returncode == 2

    def test_prune_removes_the_capture_last(self, recorded):
        store, capture_id = recorded
        result = _repro(
            "captures", "prune", "--store", str(store), "--max-captures", "0"
        )
        assert result.returncode == 0, result.stderr
        assert capture_id in result.stdout
        assert not (store / capture_id).exists()


def test_record_and_replay_blocks_wider_than_a_window(tmp_path):
    # Blocks of 500 samples are five windows wide; the tracker takes any
    # block size, so replay needs nothing about it from the header.
    result = _repro(
        "record", "--store", str(tmp_path), "--duration", "2",
        "--seed", "3", "--block-size", "500",
    )
    assert result.returncode == 0, result.stderr
    capture_id = RECORD_LINE.search(result.stdout).group(1)
    replayed = _repro("replay", capture_id, "--store", str(tmp_path))
    assert replayed.returncode == 0, replayed.stderr
    assert "bit-identical" in replayed.stdout
