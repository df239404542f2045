"""A minimal asyncio HTTP/1.1 layer (stdlib only, one-shot connections).

The query server needs exactly enough HTTP to speak JSON with ``curl``
and standard clients: request-line + headers + ``Content-Length`` body
in, status + headers + body out, one request per connection
(``Connection: close``). Anything fancier — keep-alive, chunked
encoding, TLS — belongs in a reverse proxy in front, which is how this
server is meant to be deployed (see ``docs/http-api.md``).
"""

from __future__ import annotations

import asyncio
from typing import Any, Dict, List, Optional, Tuple, Union
from urllib.parse import parse_qs, unquote, urlsplit

from .protocol import BadRequest, PayloadTooLarge

__all__ = ["Request", "read_request", "write_response"]

_MAX_REQUEST_LINE = 8 * 1024
_MAX_HEADER_BYTES = 32 * 1024

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    409: "Conflict",
    413: "Payload Too Large",
    422: "Unprocessable Entity",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class Request:
    """One parsed HTTP request."""

    __slots__ = ("method", "path", "query", "headers", "body")

    def __init__(
        self,
        method: str,
        path: str,
        query: Dict[str, str],
        headers: Dict[str, str],
        body: bytes,
    ) -> None:
        self.method = method
        self.path = path
        #: first value per query-string key, already URL-decoded
        self.query = query
        #: header names lower-cased
        self.headers = headers
        self.body = body

    def json(self) -> Any:
        """The body parsed as JSON; :class:`BadRequest` when malformed."""
        import json

        if not self.body:
            raise BadRequest("request body must be a JSON object")
        try:
            return json.loads(self.body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as error:
            raise BadRequest(f"malformed JSON body: {error}") from None

    def json_object(self) -> Dict[str, Any]:
        payload = self.json()
        if not isinstance(payload, dict):
            raise BadRequest("request body must be a JSON object")
        return payload


async def read_request(
    reader: asyncio.StreamReader, max_body_bytes: int
) -> Optional[Request]:
    """Parse one request from *reader*; None on a closed connection."""
    try:
        request_line = await reader.readline()
    except (ConnectionError, asyncio.IncompleteReadError):
        return None
    if not request_line:
        return None
    if len(request_line) > _MAX_REQUEST_LINE:
        raise BadRequest("request line too long")
    try:
        method, target, _version = (
            request_line.decode("latin-1").strip().split(" ", 2)
        )
    except ValueError:
        raise BadRequest("malformed request line") from None

    headers: Dict[str, str] = {}
    header_bytes = 0
    while True:
        line = await reader.readline()
        header_bytes += len(line)
        if header_bytes > _MAX_HEADER_BYTES:
            raise BadRequest("request headers too large")
        if line in (b"\r\n", b"\n", b""):
            break
        name, _sep, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()

    body = b""
    length_header = headers.get("content-length")
    if length_header is not None:
        try:
            length = int(length_header)
        except ValueError:
            raise BadRequest("invalid Content-Length") from None
        if length > max_body_bytes:
            raise PayloadTooLarge(
                f"request body of {length} bytes exceeds the "
                f"{max_body_bytes}-byte limit"
            )
        if length:
            body = await reader.readexactly(length)

    split = urlsplit(target)
    query = {
        key: values[0]
        for key, values in parse_qs(split.query, keep_blank_values=True).items()
    }
    return Request(
        method.upper(), unquote(split.path), query, headers, body
    )


def write_response(
    writer: asyncio.StreamWriter,
    status: int,
    body: Union[bytes, List[bytes]],
    content_type: str = "application/json",
    extra_headers: Tuple[Tuple[str, str], ...] = (),
) -> None:
    """Queue one response on *writer* (the caller drains and closes);
    *body* is bytes or the chunk list of :func:`.protocol.encode_chunks`."""
    chunks = [body] if isinstance(body, bytes) else body
    reason = _REASONS.get(status, "Unknown")
    head = [
        f"HTTP/1.1 {status} {reason}",
        f"Content-Type: {content_type}",
        f"Content-Length: {sum(map(len, chunks))}",
        "Connection: close",
    ]
    head.extend(f"{name}: {value}" for name, value in extra_headers)
    writer.writelines(
        [("\r\n".join(head) + "\r\n\r\n").encode("latin-1"), *chunks]
    )
