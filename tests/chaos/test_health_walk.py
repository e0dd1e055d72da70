"""Health machine walked to FAILED through the serve session layer.

A served session has no radio to recalibrate, so back-to-back bad
blocks must walk HEALTHY → DEGRADED → RECALIBRATING → FAILED (each bad
block in RECALIBRATING burns one recalibration failure) and kill that
session alone.
"""

import asyncio

import numpy as np
import pytest

from repro.core.monitoring import DeviceHealth
from repro.errors import DeviceFailedError
from repro.serve import AsyncServeClient, SensingServer, ServeConfig
from repro.serve.session import ServeSession, config_from_wire

from tests.helpers import FAST


def _nan_block(n=64):
    return np.full(n, complex(np.nan, np.nan))


class TestSessionWalk:
    def test_back_to_back_bad_blocks_walk_to_failed(self):
        session = ServeSession("s1", config_from_wire(FAST))
        states = [session.health]
        with pytest.raises(DeviceFailedError):
            for _ in range(10):
                session.ingest(_nan_block())
                states.append(session.health)
        walked = [t.target for t in session.condition.machine.transitions]
        assert DeviceHealth.DEGRADED in walked
        assert DeviceHealth.RECALIBRATING in walked
        assert walked[-1] is DeviceHealth.FAILED
        # The walk is ordered: degrade, attempt recalibration, fail.
        assert walked.index(DeviceHealth.DEGRADED) < walked.index(
            DeviceHealth.RECALIBRATING
        ) < walked.index(DeviceHealth.FAILED)

    def test_recovery_interrupts_the_walk(self):
        """Good blocks between bad ones never reach FAILED."""
        rng = np.random.default_rng(5)
        session = ServeSession("s1", config_from_wire(FAST))
        for _ in range(6):
            session.ingest(_nan_block())
            good = rng.standard_normal(64) + 1j * rng.standard_normal(64)
            session.ingest(good)
            session.ingest(good)
        assert session.health is not DeviceHealth.FAILED


class TestServedWalk:
    def test_failed_walk_reraises_and_kills_only_that_session(self, rng):
        async def run():
            server = SensingServer(ServeConfig())
            await server.start()
            try:
                sick = AsyncServeClient("127.0.0.1", server.port)
                healthy = AsyncServeClient("127.0.0.1", server.port)
                await sick.connect()
                await healthy.connect()
                await sick.open_session(config=FAST)
                await healthy.open_session(config=FAST)

                events = []
                error = None
                for _ in range(10):
                    try:
                        reply = await sick.push(_nan_block())
                        events.extend(reply.health)
                    except DeviceFailedError as exc:
                        error = exc
                        break
                # The healthy tenant is untouched by its neighbor's death.
                good = rng.standard_normal(80) + 1j * rng.standard_normal(80)
                reply = await healthy.push(good)
                await healthy.close_session()
                await sick.aclose()
                await healthy.aclose()
                return events, error, reply, server.stats.sessions_failed
            finally:
                await server.shutdown()

        events, error, healthy_reply, failed_count = asyncio.run(run())
        assert error is not None, "the sick session never reached FAILED"
        states = [event["state"] for event in events]
        assert "degraded" in states
        assert "recalibrating" in states
        assert failed_count == 1
        assert healthy_reply.columns or healthy_reply.health == []

    def test_failed_session_is_gone_from_the_server(self):
        async def run():
            server = SensingServer(ServeConfig())
            await server.start()
            try:
                sick = AsyncServeClient("127.0.0.1", server.port)
                await sick.connect()
                await sick.open_session(config=FAST)
                with pytest.raises(DeviceFailedError):
                    for _ in range(10):
                        await sick.push(_nan_block())
                assert server.sessions == {}
                # Follow-up pushes draw a typed protocol error, not a hang.
                from repro.errors import ProtocolError

                with pytest.raises(ProtocolError, match="no session"):
                    await sick.push(_nan_block())
                await sick.aclose()
            finally:
                await server.shutdown()

        asyncio.run(run())
