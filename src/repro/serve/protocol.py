"""Wire framing for the serve daemon: NDJSON and minimal HTTP/1.1.

One port speaks both protocols — the first line of a connection
decides.  A line opening with ``{`` is newline-delimited JSON: each
line is one batch document, answered with one response line per
request (streamed as each settles) plus a closing ``{"batch": ...}``
summary line, and the connection stays open for further batches.
A line longer than :data:`MAX_BODY_BYTES` (the HTTP body cap) is
answered with one structured ``batch`` error, then the connection
closes.
Anything else is parsed as an HTTP/1.1 request line:

* ``POST /map`` — body is a batch document; the response streams the
  same NDJSON lines as ``application/x-ndjson`` with
  ``Connection: close`` (the close delimits the stream).
* ``GET /metrics`` — Prometheus text exposition of the daemon's
  registry.
* ``GET /healthz`` — liveness probe.

Everything here is framing only: no request semantics, no pool.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any

__all__ = [
    "HttpError",
    "ndjson_line",
    "parse_request_line",
    "read_headers",
    "read_body",
    "response_head",
    "simple_response",
]

#: cap on header block and body sizes — the daemon maps kernels, it
#: does not accept arbitrary uploads.
MAX_HEADER_LINES = 64
MAX_BODY_BYTES = 16 * 1024 * 1024


class HttpError(Exception):
    """A malformed or oversized HTTP request; carries the status."""

    def __init__(self, status: int, reason: str) -> None:
        super().__init__(reason)
        self.status = status
        self.reason = reason


def ndjson_line(doc: dict[str, Any]) -> bytes:
    """One response document as a newline-terminated JSON line."""
    return json.dumps(doc, sort_keys=True).encode() + b"\n"


def parse_request_line(line: bytes) -> tuple[str, str]:
    """``b"POST /map HTTP/1.1"`` -> ``("POST", "/map")``."""
    try:
        method, path, version = line.decode("ascii").split()
    except ValueError:
        raise HttpError(400, "malformed request line") from None
    if not version.startswith("HTTP/1."):
        raise HttpError(505, f"unsupported version {version!r}")
    return method.upper(), path


async def read_headers(reader: asyncio.StreamReader) -> dict[str, str]:
    """Read the header block up to the blank line; lowercased names."""
    headers: dict[str, str] = {}
    for _ in range(MAX_HEADER_LINES):
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            return headers
        name, sep, value = line.decode("latin-1").partition(":")
        if not sep:
            raise HttpError(400, f"malformed header {line!r}")
        headers[name.strip().lower()] = value.strip()
    raise HttpError(431, "too many header fields")


async def read_body(
    reader: asyncio.StreamReader, headers: dict[str, str]
) -> bytes:
    """Read a Content-Length body (chunked encoding is not accepted)."""
    if "chunked" in headers.get("transfer-encoding", "").lower():
        raise HttpError(411, "chunked bodies not supported; send"
                             " Content-Length")
    try:
        length = int(headers.get("content-length", "0"))
    except ValueError:
        raise HttpError(400, "malformed Content-Length") from None
    if length < 0 or length > MAX_BODY_BYTES:
        raise HttpError(413, f"body of {length} bytes exceeds the"
                             f" {MAX_BODY_BYTES}-byte cap")
    if length == 0:
        return b""
    try:
        return await reader.readexactly(length)
    except asyncio.IncompleteReadError as ex:
        raise HttpError(400, "body shorter than Content-Length") from ex


def response_head(
    status: int,
    reason: str,
    *,
    content_type: str,
    length: int | None = None,
) -> bytes:
    """An HTTP/1.1 response head; no Content-Length means the close
    delimits the body (streamed responses)."""
    lines = [
        f"HTTP/1.1 {status} {reason}",
        f"Content-Type: {content_type}",
        "Connection: close",
    ]
    if length is not None:
        lines.append(f"Content-Length: {length}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


def simple_response(
    status: int, reason: str, body: str,
    *, content_type: str = "text/plain; charset=utf-8",
) -> bytes:
    """A complete small response (probes, errors)."""
    payload = body.encode()
    return response_head(
        status, reason, content_type=content_type, length=len(payload)
    ) + payload
