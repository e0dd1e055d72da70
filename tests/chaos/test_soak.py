"""The chaos soak: seeded end-to-end runs, gated on determinism.

Two full chaos runs with the same seeds must produce bit-identical
client chaos logs and schedules, zero column divergence from the
offline reference, and only defined terminal states — the same gates
the CI chaos-soak job enforces against a real subprocess server.  The
seed-7 log is also pinned byte for byte to a committed fixture.
"""

import asyncio
from pathlib import Path

import pytest

from repro.serve import SensingServer, ServeConfig, run_load

from tests.helpers import FAST

#: The log of the default soak (chaos seed 7), committed when the three
#: load generators became one: a change that re-seeds the plans fails.
PINNED_LOG = Path(__file__).parent.parent / "fixtures" / "chaos" / "soak-seed7.log"


def _soak(chaos_seed=7, rate_scale=1.5):
    async def run():
        server = SensingServer(ServeConfig(idle_timeout_s=5.0))
        port = await server.start()
        try:
            report = await run_load(
                "127.0.0.1",
                port,
                sessions=3,
                pushes=8,
                block_size=120,
                chaos_seed=chaos_seed,
                chaos_rate_scale=rate_scale,
                config=FAST,
            )
        finally:
            await server.shutdown()
        return report, server

    return asyncio.run(run())


@pytest.fixture(scope="module")
def soak7():
    """One default soak (chaos seed 7), shared by the read-only tests."""
    return _soak()


class TestChaosSoak:
    def test_soak_survives_with_zero_divergence(self, soak7):
        report, server = soak7
        assert report.failures() == []
        assert [o.outcome for o in report.outcomes] == ["complete"] * 3
        for outcome in report.outcomes:
            assert outcome.columns == outcome.expected_columns > 0
        # Chaos actually happened — the run was not a quiet pass.
        assert report.total("chaos_events_applied") > 0
        assert server.stats.errors > 0

    def test_chaos_log_matches_the_pinned_fixture(self, soak7):
        report, _ = soak7
        pinned = PINNED_LOG.read_text(encoding="utf-8")
        assert "".join(line + "\n" for line in report.chaos_log) == pinned

    def test_same_seed_produces_identical_chaos_logs(self):
        first, _ = _soak(chaos_seed=11)
        second, _ = _soak(chaos_seed=11)
        assert first.chaos_log == second.chaos_log
        assert [o.outcome for o in first.outcomes] == [
            o.outcome for o in second.outcomes
        ]
        assert first.diverged_columns == second.diverged_columns == 0

    def test_different_seeds_produce_different_chaos(self):
        first, _ = _soak(chaos_seed=11)
        second, _ = _soak(chaos_seed=12)
        assert first.chaos_log != second.chaos_log

    def test_summary_reports_the_gates(self, soak7):
        summary = soak7[0].summary()
        assert summary["diverged_columns"] == 0
        assert summary["all_outcomes_defined"] is True
        assert summary["sessions"] == 3
        assert "recovery_p99_ms" in summary
