"""A minimal HTTP/1.1 layer over blocking sockets (stdlib only, one-shot connections).

The query server needs exactly enough HTTP to speak JSON with ``curl``
and standard clients: request-line + headers + ``Content-Length`` body
in, status + headers + body out, one request per connection
(``Connection: close``). Anything fancier — keep-alive, chunked
encoding, TLS — belongs in a reverse proxy in front, which is how this
server is meant to be deployed (see ``docs/http-api.md``).
"""

from __future__ import annotations

import socket
import threading
import time
from typing import Any, Dict, List, Optional, Union
from urllib.parse import parse_qs, unquote, urlsplit

from .protocol import BadRequest, PayloadTooLarge, RequestTimeout

__all__ = ["Connection", "Request", "read_request", "write_response"]

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


class Connection:
    """One accepted socket; the first thread to :meth:`claim` it answers.

    The whole request must arrive within *timeout_s* (else
    :class:`RequestTimeout`); each send may wait that long for the client.
    """

    def __init__(self, sock: socket.socket, timeout_s: float) -> None:
        self.sock = sock
        self._timeout_s = timeout_s
        self._deadline = time.monotonic() + timeout_s
        self._buffer = bytearray()
        self._claimed = threading.Lock()

    def claim(self) -> bool:
        """True for the first caller only: the one that answers."""
        return self._claimed.acquire(blocking=False)

    def _fill(self) -> bool:
        """Receive more of the request; False at end of stream."""
        try:
            self.sock.settimeout(max(self._deadline - time.monotonic(), 1e-6))
            chunk = self.sock.recv(65536)
        except socket.timeout:
            raise RequestTimeout(
                f"the request did not arrive within {self._timeout_s:g} s"
            ) from None
        self._buffer += chunk
        return bool(chunk)

    def readline(self) -> bytes:
        """One line with its newline, or what is left at end of stream."""
        while b"\n" not in self._buffer:
            if len(self._buffer) > _MAX_HEADER_BYTES:
                raise BadRequest("request headers too large")
            if not self._fill():
                break
        return self.readexactly(self._buffer.find(b"\n") + 1 or len(self._buffer))

    def readexactly(self, size: int) -> bytes:
        while len(self._buffer) < size:
            if not self._fill():
                raise ConnectionError("connection closed mid-request")
        data = bytes(self._buffer[:size])
        del self._buffer[:size]
        return data

    def writelines(self, chunks: List[bytes]) -> None:
        """Send *chunks* in order by gathered writes, copying none."""
        self.sock.settimeout(self._timeout_s)
        views = [memoryview(chunk) for chunk in chunks]
        while views:
            sent = self.sock.sendmsg(views)
            while views and sent >= len(views[0]):
                sent -= len(views.pop(0))
            if sent:
                views[0] = views[0][sent:]


class Request:
    """One parsed HTTP request."""

    __slots__ = ("method", "path", "query", "headers", "body", "connection")

    def __init__(
        self,
        method: str,
        path: str,
        query: Dict[str, str],
        headers: Dict[str, str],
        body: bytes,
        connection: Connection,
    ) -> None:
        self.method = method
        self.path = path
        #: first value per query-string key, already URL-decoded
        self.query = query
        #: header names lower-cased
        self.headers = headers
        self.body = body
        #: the connection the request arrived on, which answers it
        self.connection = connection

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


def read_request(conn: "Connection", max_body_bytes: int) -> Optional[Request]:
    """Parse one request from *conn*; None on a closed connection."""
    request_line = conn.readline()
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
        line = conn.readline()
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
        if length < 0:
            raise BadRequest("invalid Content-Length")
        if length > max_body_bytes:
            raise PayloadTooLarge(
                f"request body of {length} bytes exceeds the "
                f"{max_body_bytes}-byte limit"
            )
        if length:
            body = conn.readexactly(length)

    split = urlsplit(target)
    query = {
        key: values[0]
        for key, values in parse_qs(split.query, keep_blank_values=True).items()
    }
    return Request(
        method.upper(), unquote(split.path), query, headers, body, conn
    )


def write_response(
    writer: Connection,
    status: int,
    body: Union[bytes, List[bytes]],
) -> None:
    """Write one response on *writer* (the caller closes it); *body* is
    bytes or the chunk list of :func:`.protocol.encode_chunks`."""
    chunks = [body] if isinstance(body, bytes) else body
    reason = _REASONS.get(status, "Unknown")
    head = [
        f"HTTP/1.1 {status} {reason}",
        "Content-Type: application/json",
        f"Content-Length: {sum(map(len, chunks))}",
        "Connection: close",
    ]
    writer.writelines(
        [("\r\n".join(head) + "\r\n\r\n").encode("latin-1"), *chunks]
    )
