"""Shared HTTP wire helpers for the stdlib-asyncio servers.

Both HTTP front ends — the serving tier (:mod:`repro.serve.api`) and
mission control (:mod:`repro.obs.webui.server`) — speak the same
minimal dialect: one short-lived connection per request
(``Connection: close``), requests parsed straight off the stream, JSON
or plain-text responses.  This module is that dialect in one place — the
connection handler both servers run (:func:`serve_connection`) included
— plus the minimal async client the load generator, the ``--attach``
proxy and the end-to-end tests share.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
from collections.abc import AsyncIterator, Awaitable, Callable

from repro.util.logging import get_logger

__all__ = [
    "HTTPError",
    "REASONS",
    "http_json",
    "http_stream_lines",
    "http_text",
    "parse_json",
    "parse_query",
    "read_request",
    "read_response",
    "read_response_headers",
    "send_json",
    "send_text",
    "serve_connection",
]

log = get_logger("serve.wire")

#: a server's router: ``route(method, path, query, body, writer)``
Route = Callable[
    [str, str, dict[str, str], bytes, asyncio.StreamWriter], Awaitable[None]
]

REASONS = {
    200: "OK",
    201: "Created",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class HTTPError(Exception):
    """Routing-level failure carrying the status code to send back.

    ``headers`` are extra response headers, e.g. ``Retry-After`` on a
    503 shed by admission control.
    """

    def __init__(
        self,
        status: int,
        message: str,
        headers: tuple[tuple[str, str], ...] = (),
    ) -> None:
        super().__init__(message)
        self.status = status
        self.message = message
        self.headers = headers


# -- server side -----------------------------------------------------------


async def serve_connection(
    reader: asyncio.StreamReader, writer: asyncio.StreamWriter, route: Route
) -> None:
    """Answer one connection: read its request, route it, then close.

    An :class:`HTTPError` becomes its JSON error response (with its
    headers), a client that drops the connection is only logged, and any
    other failure is logged and answered with a 500.
    """
    try:
        method, path, query, body = await read_request(reader)
        await route(method, path, query, body, writer)
    except HTTPError as exc:
        await send_json(
            writer, exc.status, {"error": exc.message}, headers=exc.headers
        )
    except (ConnectionError, asyncio.IncompleteReadError) as exc:
        log.debug("client connection dropped: %s", exc)
    except Exception:
        log.exception("request handling failed")
        try:
            await send_json(writer, 500, {"error": "internal error"})
        except ConnectionError as exc:
            log.debug("could not deliver 500: %s", exc)
    finally:
        try:
            writer.close()
            await writer.wait_closed()
        except ConnectionError as exc:
            log.debug("connection close raced the client: %s", exc)


async def read_request(
    reader: asyncio.StreamReader,
) -> tuple[str, str, dict[str, str], bytes]:
    """Parse one HTTP request: (method, path, query, body)."""
    request_line = (await reader.readline()).decode("latin-1").strip()
    if not request_line:
        raise HTTPError(400, "empty request")
    try:
        method, target, _version = request_line.split(" ", 2)
    except ValueError as exc:
        raise HTTPError(400, f"malformed request line: {request_line!r}") from exc
    content_length = 0
    while True:
        header = (await reader.readline()).decode("latin-1").strip()
        if not header:
            break
        name, _, value = header.partition(":")
        if name.strip().lower() == "content-length":
            try:
                content_length = int(value.strip())
            except ValueError as exc:
                raise HTTPError(400, f"bad content-length: {value!r}") from exc
    body = await reader.readexactly(content_length) if content_length else b""
    path, _, raw_query = target.partition("?")
    return method.upper(), path, parse_query(raw_query), body


def parse_query(raw: str) -> dict[str, str]:
    """A query string as a flat dict (last value wins; no list support)."""
    query: dict[str, str] = {}
    for part in raw.split("&"):
        if not part:
            continue
        key, _, value = part.partition("=")
        query[key] = value
    return query


def parse_json(body: bytes) -> dict[str, object]:
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise HTTPError(400, f"request body is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise HTTPError(400, "request body must be a JSON object")
    return payload


async def send_json(
    writer: asyncio.StreamWriter,
    status: int,
    payload: dict[str, object],
    headers: tuple[tuple[str, str], ...] = (),
) -> None:
    body = json.dumps(payload, sort_keys=True).encode()
    await _send_body(writer, status, "application/json", body, headers=headers)


async def send_text(
    writer: asyncio.StreamWriter,
    status: int,
    text: str,
    content_type: str = "text/plain; charset=utf-8",
) -> None:
    await _send_body(writer, status, content_type, text.encode("utf-8"))


async def _send_body(
    writer: asyncio.StreamWriter,
    status: int,
    content_type: str,
    body: bytes,
    headers: tuple[tuple[str, str], ...] = (),
) -> None:
    reason = REASONS.get(status, "Unknown")
    extra = "".join(f"{name}: {value}\r\n" for name, value in headers)
    head = (
        f"HTTP/1.1 {status} {reason}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"{extra}"
        f"Connection: close\r\n\r\n"
    ).encode("latin-1")
    writer.write(head + body)
    await writer.drain()


# -- minimal async client --------------------------------------------------


@contextlib.asynccontextmanager
async def _request(
    host: str, port: int, method: str, path: str, body: bytes | None = None
) -> AsyncIterator[asyncio.StreamReader]:
    """Send one request and yield the response stream, closing the
    connection after.  ``Content-Length`` goes out only with a ``body``
    (an empty one included)."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        length = "" if body is None else f"Content-Length: {len(body)}\r\n"
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {host}\r\n"
            f"{length}"
            f"Connection: close\r\n\r\n"
        ).encode("latin-1")
        writer.write(head + (body or b""))
        await writer.drain()
        yield reader
    finally:
        writer.close()
        await writer.wait_closed()


async def http_json(
    host: str,
    port: int,
    method: str,
    path: str,
    payload: dict[str, object] | None = None,
) -> tuple[int, dict[str, object]]:
    """One JSON request/response round trip; returns (status, body)."""
    body = json.dumps(payload).encode() if payload is not None else b""
    async with _request(host, port, method, path, body) as reader:
        status, raw = await read_response(reader)
    parsed = json.loads(raw.decode()) if raw else {}
    if not isinstance(parsed, dict):
        parsed = {"body": parsed}
    return status, parsed


async def http_text(
    host: str, port: int, path: str
) -> tuple[int, str]:
    """GET ``path`` and return (status, decoded body) — for text routes."""
    async with _request(host, port, "GET", path) as reader:
        status, raw = await read_response(reader)
    return status, raw.decode("utf-8", errors="replace")


async def http_stream_lines(
    host: str, port: int, path: str
) -> AsyncIterator[str]:
    """GET ``path`` and yield each response line (NDJSON streaming)."""
    async with _request(host, port, "GET", path) as reader:
        status_line = (await reader.readline()).decode("latin-1")
        if " 200 " not in status_line:
            raise RuntimeError(f"stream request failed: {status_line.strip()!r}")
        while (await reader.readline()).strip():  # drain headers
            continue
        while True:
            line = await reader.readline()
            if not line:
                return
            text = line.decode().strip()
            if text:
                yield text


async def read_response(
    reader: asyncio.StreamReader,
) -> tuple[int, bytes]:
    """Read a full close-delimited or Content-Length response."""
    status, _headers, body = await read_response_headers(reader)
    return status, body


async def read_response_headers(
    reader: asyncio.StreamReader,
) -> tuple[int, dict[str, str], bytes]:
    """Like :func:`read_response` but also returns the response headers.

    Header names are lower-cased; clients asserting on ``Retry-After``
    and friends go through this.
    """
    status_line = (await reader.readline()).decode("latin-1").strip()
    try:
        status = int(status_line.split(" ", 2)[1])
    except (IndexError, ValueError) as exc:
        raise RuntimeError(f"malformed status line: {status_line!r}") from exc
    headers: dict[str, str] = {}
    while True:
        header = (await reader.readline()).decode("latin-1").strip()
        if not header:
            break
        name, _, value = header.partition(":")
        headers[name.strip().lower()] = value.strip()
    content_length = headers.get("content-length")
    if content_length is not None:
        body = await reader.readexactly(int(content_length))
    else:
        body = await reader.read()
    return status, headers, body
