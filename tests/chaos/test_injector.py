"""Chaos injectors: guaranteed-invalid mangling, deterministic logs."""

import asyncio

import pytest

from repro.chaos import (
    ChaosEvent,
    ChaosKind,
    ChaosSchedule,
    ClientChaos,
    ServerChaos,
)
from repro.errors import ProtocolError
from repro.serve import protocol


def _client_chaos(seed=7, horizon=100, rate_scale=2.0):
    schedule = ChaosSchedule.generate(horizon, seed, rate_scale=rate_scale)
    return ClientChaos(schedule, seed=seed)


FRAME = protocol.encode_frame(
    {"type": "push_blocks", "session": "s1", "seq": 3, "samples": "QUJDRA=="}
)


class TestClientChaos:
    def test_plan_covers_exactly_the_client_kinds(self):
        from repro.chaos import CLIENT_KINDS

        chaos = _client_chaos()
        planned = {
            e.kind for op in range(100) for e in chaos.plan_for(op)
        }
        assert planned
        assert planned <= CLIENT_KINDS

    def test_corrupt_is_always_rejected_by_the_decoder(self):
        """Every corruption variant must be *guaranteed* invalid.

        A mutation that still decoded could silently diverge served
        columns — the one failure mode the chaos gate cannot see.
        """
        chaos = _client_chaos()
        for op in range(64):
            mangled, detail = chaos.corrupt(FRAME, op)
            assert detail
            with pytest.raises(ProtocolError):
                protocol.decode_frame(mangled.rstrip(b"\n"))

    def test_corrupt_preserves_newline_framing(self):
        chaos = _client_chaos()
        for op in range(16):
            mangled, _ = chaos.corrupt(FRAME, op)
            assert mangled.endswith(b"\n")

    def test_truncate_keeps_a_strict_prefix_without_newline(self):
        chaos = _client_chaos()
        event = ChaosEvent(ChaosKind.TRUNCATE_FRAME, 0, magnitude=0.5)
        torn, detail = chaos.truncate(FRAME, event)
        assert torn == FRAME[: len(torn)]
        assert 0 < len(torn) < len(FRAME)
        assert not torn.endswith(b"\n")
        # The detail logs the seeded fraction, never byte counts: frame
        # length varies with session-id width, and the chaos log must
        # be bit-identical across runs against a shared server.
        assert detail == "kept fraction 0.5000"

    def test_oversize_frame_exceeds_the_limit_by_one(self):
        chaos = _client_chaos()
        junk, _ = chaos.oversize_frame(4096)
        assert len(junk) == 4097

    def test_decisions_are_deterministic_in_seed_and_op(self):
        a, b = _client_chaos(seed=9), _client_chaos(seed=9)
        for op in range(32):
            assert a.corrupt(FRAME, op) == b.corrupt(FRAME, op)
            assert a.disconnect_after_send(op) == b.disconnect_after_send(op)
        # Different ops draw independently: both halves occur.
        halves = {a.disconnect_after_send(op) for op in range(64)}
        assert halves == {True, False}

    def test_record_builds_a_replayable_log(self):
        chaos = _client_chaos()
        chaos.record(4, ChaosKind.DISCONNECT, "before send")
        chaos.record(9, ChaosKind.CORRUPT_FRAME, "broken JSON punctuation")
        assert [entry.describe() for entry in chaos.log] == [
            "op 4 disconnect: before send",
            "op 9 corrupt-frame: broken JSON punctuation",
        ]


class TestServerChaos:
    def _schedule(self):
        return ChaosSchedule(
            events=(
                ChaosEvent(ChaosKind.STALL_TICK, 1, magnitude=0.001),
                ChaosEvent(ChaosKind.REPLY_LATENCY, 0, magnitude=0.001),
            ),
            horizon_ops=3,
        )

    def test_applies_only_at_scheduled_ops(self):
        chaos = ServerChaos(self._schedule())

        async def run():
            for _ in range(3):  # one horizon
                await chaos.before_tick()
            for _ in range(3):
                await chaos.before_reply()

        asyncio.run(run())
        ticks = [e for e in chaos.log if e.kind is ChaosKind.STALL_TICK]
        replies = [e for e in chaos.log if e.kind is ChaosKind.REPLY_LATENCY]
        assert [e.op_index for e in ticks] == [1]
        assert [e.op_index for e in replies] == [0]

    def test_wrap_reapplies_the_schedule_modulo_horizon(self):
        chaos = ServerChaos(self._schedule())

        async def run():
            for _ in range(6):
                await chaos.before_tick()

        asyncio.run(run())
        ticks = [e for e in chaos.log if e.kind is ChaosKind.STALL_TICK]
        assert [e.op_index for e in ticks] == [1, 4]
