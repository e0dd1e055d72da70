"""Server deadlines and disconnect handling: the transport hardening.

Covers the failure-model rows the chaos soak exercises statistically,
one deterministic test each: idle-timeout expiry, malformed-frame
recovery (connection survives), oversized-frame rejection (connection
does not), and the reply-write disconnect teardown that used to leak
sessions.  The fleet frontend holds its clients to the same idle and
write deadlines.
"""

import asyncio

import pytest

from repro.errors import ServeTimeoutError
from repro.fleet import FleetConfig, FleetServer
from repro.fleet.frontend import _ClientRelay
from repro.serve import (
    AsyncServeClient,
    SensingServer,
    ServeConfig,
)
from repro.serve import protocol

from tests.helpers import FAST


async def _raw_connection(server):
    return await asyncio.open_connection("127.0.0.1", server.port)


async def _read_frame(reader):
    line = await asyncio.wait_for(reader.readline(), timeout=5.0)
    assert line, "connection closed before a frame arrived"
    return protocol.decode_frame(line)


class TestIdleDeadline:
    def test_idle_connection_draws_timeout_error_then_closes(self):
        async def run():
            server = SensingServer(ServeConfig(idle_timeout_s=0.1))
            await server.start()
            try:
                reader, writer = await _raw_connection(server)
                frame = await _read_frame(reader)
                eof = await asyncio.wait_for(reader.readline(), timeout=5.0)
                writer.close()
                return frame, eof, server.stats.read_timeouts
            finally:
                await server.shutdown()

        frame, eof, read_timeouts = asyncio.run(run())
        assert frame["type"] == protocol.ERROR
        assert frame["error"] == "ServeTimeoutError"
        assert eof == b""  # server hung up after reporting
        assert read_timeouts == 1

    def test_slow_loris_within_deadline_still_answers(self):
        """Dribbled bytes that finish in time are a normal request."""

        async def run():
            server = SensingServer(ServeConfig(idle_timeout_s=1.0))
            await server.start()
            try:
                reader, writer = await _raw_connection(server)
                data = protocol.encode_frame({"type": protocol.PING})
                for i in range(len(data)):
                    writer.write(data[i : i + 1])
                    await writer.drain()
                    await asyncio.sleep(0.005)
                frame = await _read_frame(reader)
                writer.close()
                return frame
            finally:
                await server.shutdown()

        assert asyncio.run(run())["type"] == protocol.PONG

    def test_timeout_error_reraises_client_side(self):
        async def run():
            server = SensingServer(ServeConfig(idle_timeout_s=0.1))
            await server.start()
            try:
                client = AsyncServeClient("127.0.0.1", server.port)
                await client.connect()
                await asyncio.sleep(0.3)
                with pytest.raises(ServeTimeoutError):
                    await client.ping()
                await client.aclose()
            finally:
                await server.shutdown()

        asyncio.run(run())


class TestMalformedFrames:
    def test_corrupt_line_keeps_the_connection_alive(self):
        """A typed error, then business as usual — not a hangup."""

        async def run():
            server = SensingServer(ServeConfig())
            await server.start()
            try:
                reader, writer = await _raw_connection(server)
                writer.write(b"#### not json ####\n")
                await writer.drain()
                error = await _read_frame(reader)
                writer.write(protocol.encode_frame({"type": protocol.PING}))
                await writer.drain()
                pong = await _read_frame(reader)
                writer.close()
                return error, pong, server.stats.malformed_frames
            finally:
                await server.shutdown()

        error, pong, malformed = asyncio.run(run())
        assert error["type"] == protocol.ERROR
        assert error["error"] == "ProtocolError"
        assert pong["type"] == protocol.PONG
        assert malformed == 1

    def test_non_utf8_line_draws_typed_error_and_survives(self):
        async def run():
            server = SensingServer(ServeConfig())
            await server.start()
            try:
                reader, writer = await _raw_connection(server)
                writer.write(b"\xff\xfe\xfd\n")
                await writer.drain()
                error = await _read_frame(reader)
                writer.write(protocol.encode_frame({"type": protocol.PING}))
                await writer.drain()
                pong = await _read_frame(reader)
                writer.close()
                return error, pong
            finally:
                await server.shutdown()

        error, pong = asyncio.run(run())
        assert error["error"] == "ProtocolError"
        assert "UTF-8" in error["message"]
        assert pong["type"] == protocol.PONG

    def test_oversized_frame_is_rejected_and_connection_closed(self):
        async def run():
            server = SensingServer(ServeConfig())
            await server.start()
            try:
                reader, writer = await _raw_connection(server)
                pad = b"A" * protocol.MAX_FRAME_BYTES
                writer.write(b'{"type":"ping","pad":"' + pad + b'"}\n')
                await writer.drain()
                error = await _read_frame(reader)
                eof = await asyncio.wait_for(reader.readline(), timeout=5.0)
                writer.close()
                return error, eof
            finally:
                await server.shutdown()

        error, eof = asyncio.run(run())
        assert error["type"] == protocol.ERROR
        assert "size limit" in error["message"]
        assert eof == b""


class _ScriptedReader:
    """Feeds a fixed list of wire lines, then EOF forever."""

    def __init__(self, lines):
        self._lines = list(lines)

    async def readline(self):
        return self._lines.pop(0) if self._lines else b""


class _ExplodingWriter:
    """A peer that dies the moment the server drains a reply."""

    def __init__(self):
        self.writes = 0
        self.closed = False

    def write(self, data):
        self.writes += 1

    async def drain(self):
        raise ConnectionResetError("peer reset mid-write")

    def close(self):
        self.closed = True

    async def wait_closed(self):
        return None


class _StuckWriter(_ExplodingWriter):
    """A peer that stopped reading: a reply never drains."""

    def __init__(self):
        super().__init__()
        self.transport = self
        self.aborted = False

    async def drain(self):
        await asyncio.sleep(10)

    def abort(self):
        self.aborted = True


class TestReplyWriteDisconnect:
    def test_reset_during_reply_write_tears_session_down_cleanly(self, rng):
        """Regression: a reset during the reply write used to raise out
        of the handler without accounting; the session must be dropped,
        the disconnect counted, and the server left serving."""
        samples = rng.standard_normal(160) + 1j * rng.standard_normal(160)

        async def run():
            server = SensingServer(ServeConfig())
            await server.start()
            try:
                reader = _ScriptedReader(
                    [
                        protocol.encode_frame(
                            {"type": protocol.OPEN_SESSION, "config": FAST}
                        ),
                        protocol.encode_frame(
                            {
                                "type": protocol.PUSH_BLOCKS,
                                "session": "s1",
                                "samples": protocol.encode_samples(samples),
                            }
                        ),
                    ]
                )
                writer = _ExplodingWriter()
                await server._handle_connection(reader, writer)
                # The very first reply write already fails: the session
                # opened server-side must not leak.
                assert writer.closed
                assert server.sessions == {}
                assert server.stats.sessions_opened == 1
                assert server.stats.disconnects == 1
                # And the server still serves other connections.
                client = AsyncServeClient("127.0.0.1", server.port)
                await client.connect()
                assert (await client.ping())["type"] == protocol.PONG
                await client.aclose()
            finally:
                await server.shutdown()

        asyncio.run(run())

    def test_send_helper_counts_write_timeouts(self):
        async def run():
            server = SensingServer(ServeConfig(write_timeout_s=0.05))
            await server.start()
            try:
                writer = _StuckWriter()
                delivered = await server._send(writer, {"type": "pong"})
                return delivered, server.stats.write_timeouts, writer.aborted
            finally:
                await server.shutdown()

        delivered, write_timeouts, aborted = asyncio.run(run())
        assert delivered is False
        assert write_timeouts == 1
        # Closing would hold the socket until the peer read the reply.
        assert aborted


class TestFleetRelayDeadlines:
    """The fleet frontend holds clients to its ``serve`` deadlines."""

    def test_reply_to_a_stalled_client_obeys_the_write_deadline(self):
        async def run():
            fleet = FleetServer(FleetConfig(serve=ServeConfig(write_timeout_s=0.05)))
            writer = _StuckWriter()
            relay = _ClientRelay(fleet, _ScriptedReader([]), writer)
            sent = await asyncio.wait_for(relay._send_client_raw(b"{}\n"), timeout=1.0)
            return sent, writer.aborted

        assert asyncio.run(run()) == (False, True)

    def test_idle_client_draws_timeout_error_at_the_idle_deadline(self):
        class _SilentReader:
            async def readline(self):
                await asyncio.sleep(10)

        class _RecordingWriter(_ExplodingWriter):
            data = b""

            def write(self, data):
                self.data += data

            async def drain(self):
                return None

        async def run():
            fleet = FleetServer(FleetConfig(serve=ServeConfig(idle_timeout_s=0.05)))
            writer = _RecordingWriter()
            await asyncio.wait_for(_ClientRelay(fleet, _SilentReader(), writer).run(), 1.0)
            return protocol.decode_frame(writer.data), fleet.stats.relay_errors

        frame, relay_errors = asyncio.run(run())
        assert frame["error"] == "ServeTimeoutError"
        assert relay_errors == 1
