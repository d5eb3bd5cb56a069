"""Message plumbing between components.

Components expose a Router over (method, path) and are reachable through a
Transport by URL. The in-process transport routes calls directly; the HTTP
transport (see httpd) does the same over real sockets. Either way, every
exchange is recorded in a Transcript as two frames (request and response)
so scenario metrics and the wiretap can be computed from the record alone.
Records hold the raw frame bytes; base64 appears only in the NDJSON form
(`payload_b64`), which is encoded when read and decoded by `parse_ndjson`.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Any, Callable, Iterable, Iterator, Mapping
from urllib.parse import parse_qsl, urlencode, urlsplit

from .clock import Clock, SystemClock
from .errors import EdgeQkdError, MalformedError, NotFoundError, PeerUnreachableError, error_for_code
from .wire import b64decode, b64encode, decode_error, dumps, encode_error

# Channels crossing the client/edge trust boundary; everything a passive
# observer between the two domains could see travels on one of these.
INTER_DOMAIN_CHANNELS = frozenset({"mx2", "handshake", "data"})


@dataclass
class WireRequest:
    method: str
    path: str
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""
    query: dict[str, str] = field(default_factory=dict)


@dataclass
class WireResponse:
    status: int
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""


def json_response(status: int, obj: Any, headers: dict[str, str] | None = None) -> WireResponse:
    hdrs = {"content-type": "application/json"}
    if headers:
        hdrs.update(headers)
    return WireResponse(status=status, headers=hdrs, body=dumps(obj))


def error_response(exc: EdgeQkdError) -> WireResponse:
    headers = {"content-type": "application/json"}
    if exc.retry_after is not None:
        headers["retry-after"] = str(max(1, int(-(-exc.retry_after // 1))))
    return WireResponse(status=exc.http_status, headers=headers, body=encode_error(exc.code, exc.message))


class Router:
    """Minimal (method, path-pattern) dispatcher; {name} segments capture."""

    def __init__(self) -> None:
        self._routes: list[tuple[str, list[str], Callable[..., WireResponse]]] = []
        self._fallback: Callable[[WireRequest], WireResponse] | None = None

    def add(self, method: str, pattern: str, fn: Callable[..., WireResponse]) -> None:
        self._routes.append((method.upper(), pattern.strip("/").split("/"), fn))

    def set_fallback(self, fn: Callable[[WireRequest], WireResponse]) -> None:
        self._fallback = fn

    def _match(self, method: str, path: str) -> tuple[Callable[..., WireResponse], dict[str, str]] | None:
        segments = path.strip("/").split("/")
        for route_method, pattern, fn in self._routes:
            if route_method != method.upper() or len(pattern) != len(segments):
                continue
            params: dict[str, str] = {}
            for expected, actual in zip(pattern, segments):
                if expected.startswith("{") and expected.endswith("}"):
                    params[expected[1:-1]] = actual
                elif expected != actual:
                    break
            else:
                return fn, params
        return None

    def dispatch(self, request: WireRequest) -> WireResponse:
        try:
            matched = self._match(request.method, request.path)
            if matched is None:
                if self._fallback is not None:
                    return self._fallback(request)
                raise NotFoundError(f"no route for {request.method} {request.path}")
            fn, params = matched
            return fn(request, **params)
        except EdgeQkdError as exc:
            return error_response(exc)


# ---------------------------------------------------------------------------
# Transcript
# ---------------------------------------------------------------------------

def _render_query(query: Mapping[str, str]) -> str:
    if not query:
        return ""
    return "?" + urlencode(sorted(query.items()))


def frame(first_line: str, headers: Mapping[str, str], body: bytes) -> bytes:
    head = [first_line] + [f"{k}: {v}" for k, v in sorted(headers.items())]
    return ("\n".join(head) + "\n\n").encode("utf-8") + body


@dataclass(frozen=True)
class Frame:
    """A parsed transcript payload (inverse of frame)."""

    kind: str  # "REQ" | "RSP"
    status: int | None
    method: str
    path: str
    headers: dict[str, str]
    body: bytes


def parse_frame(payload: bytes) -> Frame:
    head, _, body = payload.partition(b"\n\n")
    lines = head.decode("utf-8", "replace").split("\n")
    first = lines[0].split(" ")
    headers: dict[str, str] = {}
    for line in lines[1:]:
        name, _, value = line.partition(": ")
        if name:
            headers[name] = value
    if first[0] == "RSP":
        return Frame("RSP", int(first[1]), first[2], first[3] if len(first) > 3 else "", headers, body)
    return Frame("REQ", None, first[1], first[2] if len(first) > 2 else "", headers, body)


_RECORD_KEYS = ("ts", "from", "to", "channel", "payload_b64")
_RECORD_ATTRS = {"ts": "ts", "from": "src", "to": "dst", "channel": "channel"}


class Record(Mapping[str, Any]):
    """One transcript frame. `payload` holds the raw frame bytes.

    As a mapping the record has the NDJSON keys, in their written order;
    its `payload_b64` is encoded on each read and never stored.
    """

    __slots__ = ("_ts", "_src", "_dst", "_channel", "_payload")

    def __init__(self, ts: float, src: str, dst: str, channel: str, payload: bytes) -> None:
        self._ts = ts
        self._src = src
        self._dst = dst
        self._channel = channel
        self._payload = payload

    ts = property(attrgetter("_ts"))
    src = property(attrgetter("_src"))
    dst = property(attrgetter("_dst"))
    channel = property(attrgetter("_channel"))
    payload = property(attrgetter("_payload"))

    def __getitem__(self, key: str) -> Any:
        if key == "payload_b64":
            return b64encode(self._payload)
        return getattr(self, _RECORD_ATTRS[key])

    def __iter__(self) -> Iterator[str]:
        return iter(_RECORD_KEYS)

    def __len__(self) -> int:
        return len(_RECORD_KEYS)


class Transcript:
    """Append-only record of every inter-component message."""

    def __init__(self, clock: Clock) -> None:
        self._clock = clock
        self._records: list[Record] = []
        self._lock = threading.Lock()

    def append(self, src: str, dst: str, channel: str, payload: bytes) -> None:
        record = Record(self._clock.now(), src, dst, channel, payload)
        with self._lock:
            self._records.append(record)

    def records(self) -> list[Record]:
        with self._lock:
            return list(self._records)

    @staticmethod
    def parse_ndjson(data: bytes) -> list[Record]:
        """Read NDJSON records back; a bad line raises MalformedError naming it."""
        records = []
        for number, line in enumerate(data.splitlines(), 1):
            if not line.strip():
                continue
            try:
                doc = json.loads(line)
                records.append(Record(float(doc["ts"]), doc["from"], doc["to"], doc["channel"],
                                      b64decode(doc["payload_b64"])))
            except KeyError as exc:
                raise MalformedError(f"transcript line {number}: missing key {exc}") from exc
            except (ValueError, TypeError, MalformedError) as exc:
                raise MalformedError(f"transcript line {number}: {exc}") from exc
        return records


# ---------------------------------------------------------------------------
# Transports
# ---------------------------------------------------------------------------

class Transport:
    """One exchange: normalise the URL, record the request frame, send, and
    record the response frame. Subclasses supply `scheme`, `_destination`
    (the component name recorded in the transcript) and `_send`."""

    scheme = ""

    def __init__(self, transcript: Transcript | None = None, clock: Clock | None = None) -> None:
        self._clock = clock or SystemClock()
        self.transcript = transcript if transcript is not None else Transcript(self._clock)

    def request(self, *, src: str, channel: str, method: str, url: str,
                headers: Mapping[str, str] | None = None, body: bytes = b"",
                query: Mapping[str, str] | None = None) -> WireResponse:
        parts = urlsplit(url)
        if parts.scheme != self.scheme:
            raise PeerUnreachableError(f"unsupported URL scheme {parts.scheme!r}")
        query_map = dict(query or {})
        query_map.update(parse_qsl(parts.query))
        request = WireRequest(method=method.upper(), path=parts.path,
                              headers={k.lower(): v for k, v in (headers or {}).items()},
                              body=body, query=query_map)
        target = f"{request.method} {parts.path}{_render_query(query_map)}"
        dst = self._destination(parts.netloc)
        self.transcript.append(src, dst, channel, frame(f"REQ {target}", request.headers, body))
        response = self._send(parts.netloc, request)
        self.transcript.append(dst, src, channel,
                               frame(f"RSP {response.status} {target}", response.headers, response.body))
        return response

    def _destination(self, authority: str) -> str:
        return authority

    def _send(self, authority: str, request: WireRequest) -> WireResponse:
        raise NotImplementedError


class InprocTransport(Transport):
    """Routes inproc:// URLs straight into registered component routers."""

    scheme = "inproc"

    def __init__(self, transcript: Transcript | None = None, clock: Clock | None = None) -> None:
        super().__init__(transcript, clock)
        self._components: dict[str, Router] = {}

    def register(self, name: str, router: Router) -> None:
        if name in self._components:
            raise ValueError(f"component {name!r} already registered")
        self._components[name] = router

    def _send(self, authority: str, request: WireRequest) -> WireResponse:
        router = self._components.get(authority)
        if router is None:
            return error_response(PeerUnreachableError(f"unknown component {authority!r}"))
        try:
            return router.dispatch(request)
        except Exception as exc:  # component bug: surface as a 500 frame
            return error_response(EdgeQkdError(f"unhandled error: {exc}"))


def raise_for_status(response: WireResponse) -> WireResponse:
    """Turn a >=400 response carrying {"message","code"} back into its typed error."""
    if response.status < 400:
        return response
    code, message = decode_error(response.body)
    retry_after = None
    if "retry-after" in response.headers:
        try:
            retry_after = float(response.headers["retry-after"])
        except ValueError:
            retry_after = None
    raise error_for_code(code, message, retry_after=retry_after)


def iter_frames(records: Iterable[Record]) -> Iterable[tuple[Record, Frame]]:
    for record in records:
        yield record, parse_frame(record.payload)
