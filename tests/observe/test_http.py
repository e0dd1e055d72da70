"""The zero-dependency HTTP/WebSocket wire layer."""

import asyncio

import pytest

from repro.errors import ProtocolError
from repro.observe import http
from repro.observe.http import (
    MAX_LINE_BYTES,
    WS_BINARY,
    WS_CLOSE,
    WS_PING,
    WS_TEXT,
    encode_ws_frame,
    http_response,
    read_request,
    read_ws_frame,
    websocket_accept,
    websocket_handshake_response,
)


def _reader_for(data: bytes) -> asyncio.StreamReader:
    reader = asyncio.StreamReader()
    reader.feed_data(data)
    reader.feed_eof()
    return reader


class TestReadRequest:
    def test_get_with_query_and_headers(self):
        async def run():
            raw = (
                b"GET /api/sessions?limit=2&name=s%201 HTTP/1.1\r\n"
                b"Host: localhost\r\n"
                b"X-Custom: value\r\n"
                b"\r\n"
            )
            request = await read_request(_reader_for(raw))
            assert request.method == "GET"
            assert request.path == "/api/sessions"
            assert request.query == {"limit": "2", "name": "s 1"}
            assert request.headers["host"] == "localhost"
            assert request.headers["x-custom"] == "value"
            assert not request.wants_websocket

        asyncio.run(run())

    def test_clean_eof_returns_none(self):
        async def run():
            assert await read_request(_reader_for(b"")) is None

        asyncio.run(run())

    def test_malformed_request_line_raises(self):
        async def run():
            with pytest.raises(ProtocolError):
                await read_request(_reader_for(b"NONSENSE\r\n\r\n"))

        asyncio.run(run())

    def test_oversized_request_line_raises(self):
        async def run():
            raw = b"GET /" + b"a" * (MAX_LINE_BYTES + 10) + b" HTTP/1.1\r\n\r\n"
            with pytest.raises(ProtocolError):
                await read_request(_reader_for(raw))

        asyncio.run(run())

    def test_too_many_headers_raises(self):
        async def run():
            headers = b"".join(b"H%d: v\r\n" % i for i in range(200))
            raw = b"GET / HTTP/1.1\r\n" + headers + b"\r\n"
            with pytest.raises(ProtocolError):
                await read_request(_reader_for(raw))

        asyncio.run(run())

    def test_websocket_upgrade_detected(self):
        async def run():
            raw = (
                b"GET /ws/live HTTP/1.1\r\n"
                b"Upgrade: websocket\r\n"
                b"Connection: keep-alive, Upgrade\r\n"
                b"Sec-WebSocket-Key: dGhlIHNhbXBsZSBub25jZQ==\r\n"
                b"Sec-WebSocket-Version: 13\r\n"
                b"\r\n"
            )
            request = await read_request(_reader_for(raw))
            assert request.wants_websocket

        asyncio.run(run())


class TestHttpResponse:
    def test_status_line_and_body(self):
        raw = http_response(200, '{"a": 1}')
        text = raw.decode("latin-1")
        assert text.startswith("HTTP/1.1 200 OK\r\n")
        assert "Connection: close" in text
        assert text.endswith('\r\n\r\n{"a": 1}')

    def test_content_length_matches_utf8_bytes(self):
        body = "café"
        raw = http_response(200, body)
        assert f"Content-Length: {len(body.encode('utf-8'))}".encode() in raw


class TestWebSocketHandshake:
    def test_rfc6455_accept_vector(self):
        # The worked example from RFC 6455 section 1.3.
        assert (
            websocket_accept("dGhlIHNhbXBsZSBub25jZQ==")
            == "s3pPLMBiTxaQ9kYGzzhZRbK+xOo="
        )

    def test_handshake_response_is_101_with_accept(self):
        raw = websocket_handshake_response("dGhlIHNhbXBsZSBub25jZQ==")
        text = raw.decode("latin-1")
        assert text.startswith("HTTP/1.1 101 Switching Protocols\r\n")
        assert "Sec-WebSocket-Accept: s3pPLMBiTxaQ9kYGzzhZRbK+xOo=" in text


class TestWsFrames:
    @pytest.mark.parametrize("size", [0, 5, 125, 126, 65535, 65536])
    def test_roundtrip_all_length_encodings(self, size):
        async def run():
            payload = bytes(i % 251 for i in range(size))
            for mask in (False, True):
                frame = encode_ws_frame(payload, opcode=WS_BINARY, mask=mask)
                opcode, decoded = await read_ws_frame(_reader_for(frame))
                assert opcode == WS_BINARY
                assert decoded == payload

        asyncio.run(run())

    def test_text_and_control_opcodes(self):
        async def run():
            for opcode in (WS_TEXT, WS_PING, WS_CLOSE):
                frame = encode_ws_frame(b"x", opcode=opcode, mask=True)
                got, payload = await read_ws_frame(_reader_for(frame))
                assert got == opcode
                assert payload == b"x"

        asyncio.run(run())

    def test_masked_bytes_differ_from_payload(self):
        payload = b"hello telemetry"
        frame = encode_ws_frame(payload, opcode=WS_TEXT, mask=True)
        assert payload not in frame  # masking actually applied

    def test_fragmented_frame_rejected(self):
        async def run():
            frame = bytearray(encode_ws_frame(b"part", opcode=WS_TEXT))
            frame[0] &= 0x7F  # clear FIN: a fragmented message
            with pytest.raises(ProtocolError, match="fragment"):
                await read_ws_frame(_reader_for(bytes(frame)))

        asyncio.run(run())

    def test_oversized_frame_rejected(self, monkeypatch):
        monkeypatch.setattr(http, "MAX_WS_FRAME_BYTES", 1024)

        async def run():
            frame = encode_ws_frame(b"a" * 2048, opcode=WS_BINARY)
            with pytest.raises(ProtocolError):
                await read_ws_frame(_reader_for(frame))

        asyncio.run(run())
