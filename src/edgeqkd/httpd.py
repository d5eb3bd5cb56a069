"""Real HTTP bindings for component routers.

Each component can be served by a ThreadingHTTPServer on a loopback port;
the HttpTransport gives callers the same request() surface as the
in-process transport, still recording every exchange in the transcript.

Connections persist (RFC 9112 §9.3): the transport keeps idle connections
per authority and reuses them, so serial requests to one peer share one TCP
connection. Both ends set TCP_NODELAY. http.client sends the head and the
body of a request in two writes, and the handler does the same for a
response; with Nagle's algorithm on, a kept-alive connection would wait
for a delayed ACK (about 40 ms) on every exchange.

Each server accepts in a blocking loop of its own rather than
`serve_forever`, which polls every 0.5 s to notice a shutdown request.
`stop()` shuts the listening socket down, which fails the pending accept
at once, so a stopped server costs no wait and an idle one never wakes.
"""

from __future__ import annotations

import http.client
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qsl, urlsplit

from .clock import Clock
from .errors import PeerUnreachableError
from .transport import Router, Transcript, Transport, WireRequest, WireResponse, _render_query

_HOP_HEADERS = {"content-length", "host", "connection", "accept-encoding", "user-agent",
                "date", "server"}


class _Server(ThreadingHTTPServer):
    """Tracks its open connections: a kept-alive connection parks its handler
    thread in readline, and server_close() joins that thread."""

    def __init__(self, address, handler) -> None:
        super().__init__(address, handler)
        self._open: set[socket.socket] = set()
        self._open_lock = threading.Lock()

    def process_request(self, request, client_address) -> None:
        with self._open_lock:
            self._open.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request) -> None:
        with self._open_lock:
            self._open.discard(request)
            super().shutdown_request(request)

    def end_connections(self) -> None:
        """Wake every handler thread still waiting on an open connection."""
        with self._open_lock:
            for sock in self._open:
                try:
                    sock.shutdown(socket.SHUT_RDWR)
                except OSError:  # the peer already reset it
                    pass


class ComponentHttpServer:
    """One component served over loopback HTTP. Router may be set after bind
    (the bound port is often needed to construct the component itself)."""

    def __init__(self, name: str, router: Router | None = None) -> None:
        self.name = name
        self.router = router
        outer = self

        class _Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"
            disable_nagle_algorithm = True

            def log_message(self, fmt, *args):  # quiet by design
                pass

            def _serve(self) -> None:
                length = int(self.headers.get("content-length", 0) or 0)
                body = self.rfile.read(length) if length else b""
                parts = urlsplit(self.path)
                request = WireRequest(
                    method=self.command, path=parts.path,
                    headers={k.lower(): v for k, v in self.headers.items()},
                    body=body, query=dict(parse_qsl(parts.query)),
                )
                if outer.router is None:
                    response = WireResponse(status=503, body=b"{}")
                else:
                    response = outer.router.dispatch(request)
                body = b"" if response.status in (204, 304) else response.body
                self.send_response(response.status)
                for name, value in response.headers.items():
                    self.send_header(name, value)
                self.send_header("content-length", str(len(body)))
                self.end_headers()
                if body:
                    self.wfile.write(body)

            do_GET = do_POST = do_DELETE = do_PUT = _serve

        self._server = _Server(("127.0.0.1", 0), _Handler)
        self._thread: threading.Thread | None = None

    @property
    def base_url(self) -> str:
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}"

    def start(self) -> "ComponentHttpServer":
        self._thread = threading.Thread(target=self._accept_loop,
                                        name=f"httpd-{self.name}", daemon=True)
        self._thread.start()
        return self

    def _accept_loop(self) -> None:
        server = self._server
        while True:
            try:
                request, client_address = server.get_request()
            except OSError:  # stop() shut the listening socket down
                return
            try:
                server.process_request(request, client_address)
            except Exception:
                server.handle_error(request, client_address)
                server.shutdown_request(request)

    def stop(self) -> None:
        self._server.socket.shutdown(socket.SHUT_RDWR)  # wakes the accept loop
        if self._thread is not None:
            self._thread.join(timeout=5)
        self._server.end_connections()
        self._server.server_close()  # joins the handler threads


def _begin(conn: http.client.HTTPConnection, target: str,
           request: WireRequest) -> http.client.HTTPResponse:
    if conn.sock is None:
        conn.connect()
        conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    conn.request(request.method, target, body=request.body, headers=request.headers)
    return conn.getresponse()


class HttpTransport(Transport):
    """Client side of component HTTP, with transcript taps at the caller."""

    scheme = "http"

    def __init__(self, transcript: Transcript | None = None, clock: Clock | None = None,
                 timeout: float = 10.0) -> None:
        super().__init__(transcript, clock)
        self._names: dict[str, str] = {}  # authority -> component name
        self._timeout = timeout
        # authority -> idle connections; it never holds more than were in use
        # at one moment, so the peak concurrency per peer bounds it
        self._idle: dict[str, list[http.client.HTTPConnection]] = {}
        self._idle_lock = threading.Lock()

    def register_name(self, authority: str, name: str) -> None:
        self._names[authority] = name

    def _destination(self, authority: str) -> str:
        return self._names.get(authority, authority)

    def _send(self, authority: str, request: WireRequest) -> WireResponse:
        target = request.path + _render_query(request.query)
        with self._idle_lock:
            idle = self._idle.get(authority)
            conn = idle.pop() if idle else http.client.HTTPConnection(authority, timeout=self._timeout)
        try:
            reused = conn.sock is not None
            try:
                raw = _begin(conn, target, request)
            except (ConnectionResetError, BrokenPipeError):
                if not reused:
                    raise
                # The peer closed the idle connection before any response
                # (RFC 9112 §9.3.1): send once more on a new one.
                conn.close()
                raw = _begin(conn, target, request)
            resp_body = raw.read()
        except OSError as exc:
            conn.close()
            raise PeerUnreachableError(f"cannot reach {authority}: {exc}") from exc
        except BaseException:
            conn.close()
            raise
        if raw.will_close:
            conn.close()
        else:
            with self._idle_lock:
                self._idle.setdefault(authority, []).append(conn)
        resp_headers = {k.lower(): v for k, v in raw.getheaders() if k.lower() not in _HOP_HEADERS}
        return WireResponse(status=raw.status, headers=resp_headers, body=resp_body)

    def close(self) -> None:
        """Close every idle connection."""
        with self._idle_lock:
            idle, self._idle = self._idle, {}
        for conns in idle.values():
            for conn in conns:
                conn.close()
