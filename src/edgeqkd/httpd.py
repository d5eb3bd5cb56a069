"""Real HTTP bindings for component routers.

Each component can be served by a ThreadingHTTPServer on a loopback port;
the HttpTransport gives callers the same request() surface as the
in-process transport, still recording every exchange in the transcript.
"""

from __future__ import annotations

import http.client
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qsl, urlsplit

from .clock import Clock
from .errors import PeerUnreachableError
from .transport import Router, Transcript, Transport, WireRequest, WireResponse, _render_query

_HOP_HEADERS = {"content-length", "host", "connection", "accept-encoding", "user-agent",
                "date", "server"}


class ComponentHttpServer:
    """One component served over loopback HTTP. Router may be set after bind
    (the bound port is often needed to construct the component itself)."""

    def __init__(self, name: str, router: Router | None = None) -> None:
        self.name = name
        self.router = router
        outer = self

        class _Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

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

        self._server = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
        self._server.daemon_threads = True
        self._thread: threading.Thread | None = None

    @property
    def base_url(self) -> str:
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}"

    def start(self) -> "ComponentHttpServer":
        self._thread = threading.Thread(target=self._server.serve_forever,
                                        name=f"httpd-{self.name}", daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)


class HttpTransport(Transport):
    """Client side of component HTTP, with transcript taps at the caller."""

    scheme = "http"

    def __init__(self, transcript: Transcript | None = None, clock: Clock | None = None,
                 timeout: float = 10.0) -> None:
        super().__init__(transcript, clock)
        self._names: dict[str, str] = {}  # authority -> component name
        self._timeout = timeout

    def register_name(self, authority: str, name: str) -> None:
        self._names[authority] = name

    def _destination(self, authority: str) -> str:
        return self._names.get(authority, authority)

    def _send(self, authority: str, request: WireRequest) -> WireResponse:
        try:
            conn = http.client.HTTPConnection(authority, timeout=self._timeout)
            try:
                conn.request(request.method, request.path + _render_query(request.query),
                             body=request.body, headers=request.headers)
                raw = conn.getresponse()
                resp_body = raw.read()
                resp_headers = {k.lower(): v for k, v in raw.getheaders()
                                if k.lower() not in _HOP_HEADERS}
                return WireResponse(status=raw.status, headers=resp_headers, body=resp_body)
            finally:
                conn.close()
        except OSError as exc:
            raise PeerUnreachableError(f"cannot reach {authority}: {exc}") from exc
