"""Minimal HTTP/1.1 request parsing and RFC 6455 WebSocket framing.

The gateway speaks just enough HTTP for an operator surface — GET
requests with bounded request lines, headers, and bodies, one request
per connection (``Connection: close``) — and just enough WebSocket for
a live event stream: the ``Sec-WebSocket-Accept`` handshake, unfragmented
text/ping/pong/close frames, masked client-to-server payloads.  Zero
dependencies beyond the standard library, matching the serve layer's
NDJSON stance: the wire format is simple enough to own outright.
"""

from __future__ import annotations

import asyncio
import base64
import hashlib
import json
import os
import struct
from dataclasses import dataclass, field
from typing import Any
from urllib.parse import parse_qsl, unquote, urlsplit

from repro.errors import ProtocolError

#: Upper bound on one request line or header line, bytes.
MAX_LINE_BYTES = 8192
#: Upper bound on the number of header lines per request.
MAX_HEADER_COUNT = 100
#: Upper bound on a request body we are willing to drain.
MAX_BODY_BYTES = 1 << 20
#: Upper bound on one inbound WebSocket frame's payload, bytes.
MAX_WS_FRAME_BYTES = 1 << 20

#: RFC 6455 handshake GUID, concatenated to the client key before SHA-1.
WS_MAGIC = "258EAFA5-E914-47DA-95CA-C5AB0DC85B11"

WS_TEXT = 0x1
WS_BINARY = 0x2
WS_CLOSE = 0x8
WS_PING = 0x9
WS_PONG = 0xA

_REASONS = {
    200: "OK",
    101: "Switching Protocols",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    426: "Upgrade Required",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


@dataclass(frozen=True)
class HttpRequest:
    """One parsed request: method, decoded path, query, lowercase headers."""

    method: str
    path: str
    query: dict[str, str] = field(default_factory=dict)
    headers: dict[str, str] = field(default_factory=dict)

    @property
    def wants_websocket(self) -> bool:
        return (
            "websocket" in self.headers.get("upgrade", "").lower()
            and "sec-websocket-key" in self.headers
        )


async def _read_line(reader: asyncio.StreamReader) -> bytes:
    try:
        line = await reader.readline()
    except ValueError as exc:  # StreamReader limit overrun
        raise ProtocolError(str(exc)) from exc
    if len(line) > MAX_LINE_BYTES:
        raise ProtocolError(f"header line exceeds {MAX_LINE_BYTES} bytes")
    if line and not line.endswith(b"\n"):
        # readline() returns a partial tail at EOF; a torn request is
        # indistinguishable from a malformed one.
        raise ProtocolError("connection closed mid-request")
    return line


async def read_request(reader: asyncio.StreamReader) -> HttpRequest | None:
    """Parse one request; ``None`` on a clean EOF before any bytes.

    Raises:
        ProtocolError: malformed request line, oversized or malformed
            headers, unsupported HTTP version, or an oversized body.
    """
    request_line = await _read_line(reader)
    if not request_line:
        return None
    try:
        decoded = request_line.decode("ascii").strip()
    except UnicodeDecodeError as exc:
        raise ProtocolError("request line is not ASCII") from exc
    parts = decoded.split()
    if len(parts) != 3:
        raise ProtocolError(f"malformed request line: {decoded!r}")
    method, target, version = parts
    if not version.startswith("HTTP/1."):
        raise ProtocolError(f"unsupported HTTP version {version!r}")

    headers: dict[str, str] = {}
    for _ in range(MAX_HEADER_COUNT + 1):
        line = await _read_line(reader)
        stripped = line.strip()
        if not stripped:
            break
        name, sep, value = stripped.decode("latin-1").partition(":")
        if not sep:
            raise ProtocolError(f"malformed header line: {stripped!r}")
        headers[name.strip().lower()] = value.strip()
    else:
        raise ProtocolError(f"more than {MAX_HEADER_COUNT} header lines")

    body_length = int(headers.get("content-length", "0") or "0")
    if body_length < 0 or body_length > MAX_BODY_BYTES:
        raise ProtocolError(f"unacceptable content-length {body_length}")
    if body_length:
        await reader.readexactly(body_length)  # drained, not interpreted

    split = urlsplit(target)
    query = {key: value for key, value in parse_qsl(split.query)}
    return HttpRequest(
        method=method.upper(),
        path=unquote(split.path) or "/",
        query=query,
        headers=headers,
    )


def http_response(
    status: int,
    body: bytes | str = b"",
    content_type: str = "application/json",
    extra_headers: dict[str, str] | None = None,
) -> bytes:
    """Serialize one full ``Connection: close`` HTTP/1.1 response."""
    if isinstance(body, str):
        body = body.encode("utf-8")
    reason = _REASONS.get(status, "Unknown")
    lines = [
        f"HTTP/1.1 {status} {reason}",
        f"Content-Type: {content_type}; charset=utf-8",
        f"Content-Length: {len(body)}",
        "Cache-Control: no-store",
        "Connection: close",
    ]
    for name, value in (extra_headers or {}).items():
        lines.append(f"{name}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("ascii") + body


def json_response(status: int, payload: Any) -> bytes:
    """An ``application/json`` response around ``payload``."""
    return http_response(status, json.dumps(payload, indent=1, sort_keys=True))


def websocket_accept(key: str) -> str:
    """The ``Sec-WebSocket-Accept`` value for a client's handshake key."""
    digest = hashlib.sha1((key + WS_MAGIC).encode("ascii")).digest()
    return base64.b64encode(digest).decode("ascii")


def websocket_handshake_response(key: str) -> bytes:
    """The 101 upgrade response completing the RFC 6455 handshake."""
    lines = [
        "HTTP/1.1 101 Switching Protocols",
        "Upgrade: websocket",
        "Connection: Upgrade",
        f"Sec-WebSocket-Accept: {websocket_accept(key)}",
    ]
    return ("\r\n".join(lines) + "\r\n\r\n").encode("ascii")


def encode_ws_frame(payload: bytes | str, opcode: int = WS_TEXT, mask: bool = False) -> bytes:
    """One unfragmented frame; ``mask=True`` for the client-to-server side."""
    if isinstance(payload, str):
        payload = payload.encode("utf-8")
    header = bytearray([0x80 | (opcode & 0x0F)])
    length = len(payload)
    mask_bit = 0x80 if mask else 0x00
    if length < 126:
        header.append(mask_bit | length)
    elif length < (1 << 16):
        header.append(mask_bit | 126)
        header += struct.pack(">H", length)
    else:
        header.append(mask_bit | 127)
        header += struct.pack(">Q", length)
    if mask:
        key = os.urandom(4)
        header += key
        payload = _apply_mask(payload, key)
    return bytes(header) + payload


def _apply_mask(payload: bytes, key: bytes) -> bytes:
    repeated = key * (len(payload) // 4 + 1)
    return bytes(b ^ k for b, k in zip(payload, repeated))


async def read_ws_frame(reader: asyncio.StreamReader) -> tuple[int, bytes]:
    """Read one frame; returns ``(opcode, payload)`` with masking undone.

    Raises:
        ProtocolError: fragmented frame, continuation opcode, or a
            payload larger than :data:`MAX_WS_FRAME_BYTES`.
        asyncio.IncompleteReadError: the peer hung up mid-frame.
    """
    first, second = await reader.readexactly(2)
    fin = bool(first & 0x80)
    opcode = first & 0x0F
    if not fin or opcode == 0x0:
        raise ProtocolError("fragmented WebSocket frames are not supported")
    masked = bool(second & 0x80)
    length = second & 0x7F
    if length == 126:
        (length,) = struct.unpack(">H", await reader.readexactly(2))
    elif length == 127:
        (length,) = struct.unpack(">Q", await reader.readexactly(8))
    if length > MAX_WS_FRAME_BYTES:
        raise ProtocolError(
            f"WebSocket frame of {length} bytes exceeds {MAX_WS_FRAME_BYTES}"
        )
    key = await reader.readexactly(4) if masked else b""
    payload = await reader.readexactly(length) if length else b""
    if masked:
        payload = _apply_mask(payload, key)
    return opcode, payload
