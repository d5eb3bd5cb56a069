"""Real HTTP bindings for component routers.

A ComponentHttpServer serves one component's router on a loopback port, and
an HttpTransport registers each component name with the (host, port) serving
it; the `host` header carries the name (RFC 9110 §7.2). So both transports
record the same transcript bytes, and a socket failure gives the 502
`peer-unreachable` frame of an unknown name.

Both ends are ours, so they speak a small subset of HTTP/1.1 (RFC 9112
§2-§6): a request or status line, header fields, and a body framed by
`content-length` only; no chunked coding, no `100-continue`. Each side writes
a whole message in one `sendall` and reads it back through one reader, which
reads exactly the grammar of `transport` (field names case-insensitively,
RFC 9110 §5.1) and keeps the framing fields to itself. It caps the head at
MAX_HEAD_BYTES and the body at MAX_BODY_BYTES. The server answers a request
it cannot take (431 for a long head, 413 for a long body, 400 for one outside
the grammar) with `connection: close`, and closes the connection.

Connections persist (RFC 9112 §9.3): the transport pools idle connections
per peer name, so serial requests to one peer share one TCP connection, and
both ends set TCP_NODELAY. Each server accepts in a loop of its own and
serves each connection on a thread of its own: a handler may call other
components over HTTP, its own host included, so one serving loop would wait
on its own reply. `stop()` shuts the listening socket down, which fails the
pending accept at once, then shuts down and joins every open connection,
pooled ones too.
"""

from __future__ import annotations

import socket
import threading
from http import HTTPStatus
from typing import Mapping

from .clock import Clock
from .errors import MalformedError, PeerUnreachableError
from .transport import (Router, Transcript, Transport, WireRequest, WireResponse, header_lines,
                        parse_request_line)
from .wire import encode_error

MAX_HEAD_BYTES = 16 * 1024
MAX_BODY_BYTES = 16 * 1024 * 1024
_RECV_BYTES = 64 * 1024

_REASONS = {status.value: status.phrase for status in HTTPStatus}


class _ProtocolError(Exception):
    """A message outside the subset; `status` is the answer a server gives."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


def _message(first_line: str, headers: Mapping[str, str], body: bytes) -> bytes:
    """One whole message, head and body, ready for a single sendall."""
    lines = [first_line, *(f"{name}: {value}" for name, value in headers.items()),
             f"content-length: {len(body)}\r\n\r\n"]
    return "\r\n".join(lines).encode("latin-1") + body


def _response(status: int, headers: Mapping[str, str], body: bytes) -> bytes:
    return _message(f"HTTP/1.1 {status} {_REASONS.get(status, '')}", headers, body)


class _Connection:
    """A TCP socket and the bytes read from it that no message has taken yet."""

    def __init__(self, sock: socket.socket) -> None:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock = sock
        self.buffer = bytearray()

    def read_message(self) -> tuple[str, dict[str, str], bytes, bool] | None:
        """Read one message: (first line, headers less the framing fields,
        body, whether the peer asks to close), or None if the peer closed the
        connection before any byte of it."""
        buffer = self.buffer
        end = buffer.find(b"\r\n\r\n")
        while end < 0:
            if len(buffer) > MAX_HEAD_BYTES:
                raise _ProtocolError(431, f"message head over {MAX_HEAD_BYTES} bytes")
            chunk = self.sock.recv(_RECV_BYTES)
            if not chunk:
                if buffer:
                    raise _ProtocolError(400, "connection closed inside a message head")
                return None
            buffer += chunk
            end = buffer.find(b"\r\n\r\n")
        if end > MAX_HEAD_BYTES:
            raise _ProtocolError(431, f"message head over {MAX_HEAD_BYTES} bytes")
        first_line, *lines = buffer[:end].decode("latin-1").split("\r\n")
        del buffer[:end + 4]
        headers = {}
        for line in lines:
            name, _, value = line.partition(":")
            headers[name.lower()] = value.strip(" \t")
        repeated = len(headers) != len(lines)  # a second content-length, say
        length = headers.pop("content-length", "0")
        close = headers.pop("connection", None) == "close"
        headers.pop("host", None)
        if repeated or not header_lines(headers)[1]:  # `transfer-encoding` included: no chunked coding
            raise _ProtocolError(400, "header field outside the grammar")
        if not (length.isascii() and length.isdigit()):
            raise _ProtocolError(400, f"bad content-length {length[:32]!r}")
        size = int(length)
        if size > MAX_BODY_BYTES:
            raise _ProtocolError(413, f"body of {size} bytes is over {MAX_BODY_BYTES}")
        while len(buffer) < size:
            chunk = self.sock.recv(_RECV_BYTES)
            if not chunk:
                raise _ProtocolError(400, "connection closed inside a message body")
            buffer += chunk
        body = bytes(buffer[:size])
        del buffer[:size]
        return first_line, headers, body, close

    def exchange(self, message: bytes) -> tuple[str, dict[str, str], bytes, bool] | None:
        """Send a request and read its reply. None means the peer closed or
        reset the connection before any byte of the reply arrived."""
        try:
            self.sock.sendall(message)
            return self.read_message()
        except (ConnectionResetError, BrokenPipeError):
            if self.buffer:
                raise
            return None

    def close(self) -> None:
        self.sock.close()


def _parse_request(first_line: str, headers: dict[str, str], body: bytes,
                   close: bool) -> tuple[WireRequest, bool]:
    """The request a message carries, and whether the client asks to close."""
    line, _, version = first_line.rpartition(" ")
    if not version.startswith("HTTP/1."):
        raise _ProtocolError(400, f"malformed request line {first_line[:64]!r}")
    try:
        path, query = parse_request_line(line)
    except MalformedError as exc:
        raise _ProtocolError(400, str(exc)) from exc
    request = WireRequest(line.partition(" ")[0], path, headers, body, dict(query))
    return request, close or version != "HTTP/1.1"


class ComponentHttpServer:
    """One component's router served on a loopback port; `address` is the
    (host, port) an HttpTransport registers under the component's name."""

    def __init__(self, name: str, router: Router) -> None:
        self.name = name
        self.router = router
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.address: tuple[str, int] = self._listener.getsockname()[:2]
        self._thread: threading.Thread | None = None
        # open connections and the threads serving them; a kept-alive
        # connection parks its thread in recv until the peer or stop() ends it
        self._connections: dict[socket.socket, threading.Thread] = {}
        self._lock = threading.Lock()

    def start(self) -> "ComponentHttpServer":
        self._thread = threading.Thread(target=self._accept_loop,
                                        name=f"httpd-{self.name}", daemon=True)
        self._thread.start()
        return self

    def _accept_loop(self) -> None:
        while True:
            try:
                sock, _ = self._listener.accept()
            except OSError:  # stop() shut the listening socket down
                return
            thread = threading.Thread(target=self._serve, args=(sock,),
                                      name=f"httpd-{self.name}-conn", daemon=True)
            with self._lock:
                self._connections[sock] = thread
            thread.start()

    def _serve(self, sock: socket.socket) -> None:
        try:
            connection = _Connection(sock)
            while True:
                try:
                    message = connection.read_message()
                    if message is None:
                        return
                    request, close = _parse_request(*message)
                except _ProtocolError as exc:
                    sock.sendall(_response(exc.status,
                                           {"content-type": "application/json", "connection": "close"},
                                           encode_error("malformed", str(exc))))
                    return
                response = self.router.dispatch(request)
                headers = {**response.headers, "connection": "close"} if close else response.headers
                sock.sendall(_response(response.status, headers, response.body))
                if close:
                    return
        except OSError:  # the peer went away, or stop() shut the connection down
            return
        finally:
            with self._lock:
                del self._connections[sock]
                sock.close()

    def stop(self) -> None:
        self._listener.shutdown(socket.SHUT_RDWR)  # wakes the accept loop
        if self._thread is not None:
            self._thread.join(timeout=5)
        self._listener.close()
        with self._lock:
            open_connections = list(self._connections.items())
            for sock, _ in open_connections:
                try:
                    sock.shutdown(socket.SHUT_RDWR)  # wakes a thread parked in recv
                except OSError:  # the peer already reset it
                    pass
        for _, thread in open_connections:
            thread.join(timeout=5)


class HttpTransport(Transport):
    """Client side of component HTTP, with transcript taps at the caller;
    each name is registered with the (host, port) of the server serving it."""

    def __init__(self, transcript: Transcript | None = None, clock: Clock | None = None,
                 timeout: float = 10.0) -> None:
        super().__init__(transcript, clock)
        self._timeout = timeout
        # name -> idle connections; it never holds more than were in use at
        # one moment, so the peak concurrency per peer bounds it
        self._idle: dict[str, list[_Connection]] = {}
        self._idle_lock = threading.Lock()

    def _connect(self, address: tuple[str, int]) -> _Connection:
        return _Connection(socket.create_connection(address, timeout=self._timeout))

    def _send(self, name: str, peer: tuple[str, int], line: str, request: WireRequest) -> WireResponse:
        message = _message(f"{line} HTTP/1.1", {"host": name, **request.headers}, request.body)
        with self._idle_lock:
            idle = self._idle.get(name)
            conn = idle.pop() if idle else None
        try:
            if conn is not None:
                reply = conn.exchange(message)
                if reply is None:
                    # The peer closed the idle connection before any response
                    # (RFC 9112 §9.3.1): send once more on a new one.
                    conn.close()
                    conn = None
            if conn is None:
                conn = self._connect(peer)
                reply = conn.exchange(message)
                if reply is None:
                    raise ConnectionResetError("the peer closed the connection without a reply")
            status_line, headers, body, close = reply
            version, _, rest = status_line.partition(" ")
            status = rest.partition(" ")[0]
            if not (version.startswith("HTTP/1.") and status.isascii() and status.isdigit()
                    and len(status) == 3):
                raise _ProtocolError(502, f"malformed status line {status_line[:64]!r}")
        except BaseException as exc:
            if conn is not None:
                conn.close()
            if isinstance(exc, (OSError, _ProtocolError)):
                raise PeerUnreachableError(f"cannot reach {name}: {exc}") from exc
            raise
        if close:
            conn.close()
        else:
            with self._idle_lock:
                self._idle.setdefault(name, []).append(conn)
        return WireResponse(status=int(status), headers=headers, body=body)

    def close(self) -> None:
        """Close every idle connection."""
        with self._idle_lock:
            idle, self._idle = self._idle, {}
        for conns in idle.values():
            for conn in conns:
                conn.close()
