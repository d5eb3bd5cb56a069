"""Message plumbing between components.

Components expose a Router over (method, path) and are reachable through a
Transport by URL, `http://<name>/...` on either transport. A Router splits
each route once, when it is added, and lists it under its method and segment
count. So a request walks only the routes of its own method and segment
count, comparing only their literal segments; the first route added that matches wins, and a miss goes to the
fallback or to 404. The in-process transport routes calls directly; the HTTP
transport (see httpd) does the same over real sockets. Either way, every
exchange is recorded in a Transcript as two frames (request and response),
an unreachable peer's 502 included, so scenario metrics and the wiretap can
be computed from the record alone, and both transports record the same bytes.
A record holds its frame as two fields: `head`, the encoded first line and
sorted headers ending in a blank line, and `body`, the very bytes object the
exchange carried, so recording copies no body. `payload` joins the two when
read; base64 appears only in the NDJSON form (`payload_b64`), which is
encoded when read and decoded, and split at its first blank line, by
`parse_ndjson`.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Any, Callable, Iterator, Mapping
from urllib.parse import parse_qsl, urlencode, urlsplit

from .clock import Clock, SystemClock
from .errors import EdgeQkdError, MalformedError, NotFoundError, PeerUnreachableError, error_for_code
from .wire import b64decode, b64encode, decode_error, dumps, encode_error

# Channels crossing the client/edge trust boundary; everything a passive
# observer between the two domains could see travels on one of these.
INTER_DOMAIN_CHANNELS = frozenset({"mx2", "data"})


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


_Segments = tuple[tuple[int, str], ...]


class Router:
    """Minimal (method, path-pattern) dispatcher; {name} segments capture."""

    def __init__(self) -> None:
        # (method, segment count) -> [(literal segments, captured segments, fn)]
        # in the order added, each segment as (index, text)
        self._routes: dict[tuple[str, int], list[tuple[_Segments, _Segments,
                                                       Callable[..., WireResponse]]]] = {}
        self._fallback: Callable[[WireRequest], WireResponse] | None = None

    def add(self, method: str, pattern: str, fn: Callable[..., WireResponse]) -> None:
        segments = pattern.strip("/").split("/")
        literals, captures = [], []
        for index, segment in enumerate(segments):
            if segment.startswith("{") and segment.endswith("}"):
                captures.append((index, segment[1:-1]))
            else:
                literals.append((index, segment))
        self._routes.setdefault((method.upper(), len(segments)), []).append(
            (tuple(literals), tuple(captures), fn))

    def set_fallback(self, fn: Callable[[WireRequest], WireResponse]) -> None:
        self._fallback = fn

    def _match(self, method: str, path: str) -> tuple[Callable[..., WireResponse], dict[str, str]] | None:
        # methods are case-sensitive (RFC 9110 §9.1): `post` is no `POST`
        path = path.strip("/")
        routes = self._routes.get((method, path.count("/") + 1))
        if routes is None:
            return None
        segments = path.split("/")
        for literals, captures, fn in routes:
            for index, literal in literals:
                if segments[index] != literal:
                    break
            else:
                params = {}
                for index, name in captures:
                    params[name] = segments[index]
                return fn, params
        return None

    def dispatch(self, request: WireRequest) -> WireResponse:
        """The route's reply, or an error reply. A reply whose header name or
        value holds a CR, an LF or a non-ASCII character is a component bug,
        answered with a 500 error body, so neither transport writes a forged
        header line and both send the same head."""
        try:
            matched = self._match(request.method, request.path)
            if matched is not None:
                fn, params = matched
                response = fn(request, **params)
            elif self._fallback is not None:
                response = self._fallback(request)
            else:
                raise NotFoundError(f"no route for {request.method} {request.path}")
            head = ""
            for name, value in response.headers.items():
                head += name + value
            if "\n" in head or "\r" in head:
                raise EdgeQkdError("line break inside a reply header")
            if not head.isascii():
                raise EdgeQkdError("non-ASCII character inside a reply header")
        except EdgeQkdError as exc:
            return error_response(exc)
        except Exception as exc:  # component bug: surface as a 500 frame
            return error_response(EdgeQkdError(f"unhandled error: {exc}"))
        return response


# ---------------------------------------------------------------------------
# Transcript
# ---------------------------------------------------------------------------

def _render_query(query: Mapping[str, str]) -> str:
    if not query:
        return ""
    return "?" + urlencode(sorted(query.items()))


def frame_head(first_line: str, headers: Mapping[str, str]) -> bytes:
    """A frame's head: the first line and the sorted headers, ending in a
    blank line. A head holds no other blank line, since no header line is
    empty and the transports refuse a CR or LF inside one."""
    head = first_line
    for name in sorted(headers):
        head += f"\n{name}: {headers[name]}"
    return (head + "\n\n").encode("utf-8")


_RECORD_KEYS = ("ts", "from", "to", "channel", "payload_b64")
_RECORD_ATTRS = {"ts": "ts", "from": "src", "to": "dst", "channel": "channel"}


class Record(Mapping[str, Any]):
    """One transcript frame: its `head` and its `body`, kept apart.

    `payload`, the raw frame bytes, is the two joined on each read. As a
    mapping the record has the NDJSON keys, in their written order; its
    `payload_b64` is encoded on each read and never stored.
    """

    __slots__ = ("_ts", "_src", "_dst", "_channel", "_head", "_body")

    def __init__(self, ts: float, src: str, dst: str, channel: str, head: bytes, body: bytes) -> None:
        self._ts = ts
        self._src = src
        self._dst = dst
        self._channel = channel
        self._head = head
        self._body = body

    ts = property(attrgetter("_ts"))
    src = property(attrgetter("_src"))
    dst = property(attrgetter("_dst"))
    channel = property(attrgetter("_channel"))
    head = property(attrgetter("_head"))
    body = property(attrgetter("_body"))

    @property
    def payload(self) -> bytes:
        return self._head + self._body

    def __getitem__(self, key: str) -> Any:
        if key == "payload_b64":
            return b64encode(self.payload)
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

    def append(self, src: str, dst: str, channel: str, head: bytes, body: bytes) -> None:
        """Record a frame; `bytes(body)` is `body` itself when it is bytes,
        and copies only a mutable buffer, so a record never changes."""
        record = Record(self._clock.now(), src, dst, channel, head, bytes(body))
        with self._lock:
            self._records.append(record)

    def records(self) -> list[Record]:
        with self._lock:
            return list(self._records)

    @staticmethod
    def parse_ndjson(data: bytes) -> list[Record]:
        """Read NDJSON records back; a bad line raises MalformedError naming it.
        Each payload is split after its first blank line, where its head ends."""
        records = []
        for number, line in enumerate(data.splitlines(), 1):
            if not line.strip():
                continue
            try:
                doc = json.loads(line)
                head, blank, body = b64decode(doc["payload_b64"]).partition(b"\n\n")
                records.append(Record(float(doc["ts"]), doc["from"], doc["to"], doc["channel"],
                                      head + blank, body))
            except KeyError as exc:
                raise MalformedError(f"transcript line {number}: missing key {exc}") from exc
            except (ValueError, TypeError, MalformedError) as exc:
                raise MalformedError(f"transcript line {number}: {exc}") from exc
        return records


# ---------------------------------------------------------------------------
# Transports
# ---------------------------------------------------------------------------

class Transport:
    """One exchange: record the request frame, send, and record the response
    frame. `register(name, peer)` is the one registry that resolves a URL's
    authority; subclasses supply `_send`. An unknown scheme or name, and a
    PeerUnreachableError from `_send`, give a recorded 502 response. A space,
    an unprintable character (`str.isprintable`: every C0 control and DEL)
    or a non-ASCII character in the method or URL, and a CR, an LF or a
    non-ASCII character in a header, raise MalformedError, and nothing is
    recorded: `urlsplit` would delete a tab silently, HTTP would split a
    request line at a space, the transcript would not show an invisible
    character as sent, and an HTTP head is latin-1 where the transcript is
    UTF-8."""

    def __init__(self, transcript: Transcript | None = None, clock: Clock | None = None) -> None:
        self._clock = clock or SystemClock()
        self.transcript = transcript if transcript is not None else Transcript(self._clock)
        self._peers: dict[str, Any] = {}

    def register(self, name: str, peer: Any) -> None:
        if name in self._peers:
            raise ValueError(f"component {name!r} already registered")
        self._peers[name] = peer

    def request(self, *, src: str, channel: str, method: str, url: str,
                headers: Mapping[str, str] | None = None, body: bytes = b"",
                query: Mapping[str, str] | None = None) -> WireResponse:
        target = method + url
        if " " in target or not (target.isascii() and target.isprintable()):
            raise MalformedError("space, unprintable or non-ASCII character inside a request's method or URL")
        fields = {}
        head = ""
        for name, value in (headers or {}).items():
            name = name.lower()
            fields[name] = value
            head += name + value
        if "\n" in head or "\r" in head:
            raise MalformedError("line break inside a request header")
        if not head.isascii():
            raise MalformedError("non-ASCII character inside a request header")
        parts = urlsplit(url)
        query_map = dict(query) if query else {}
        if parts.query:
            query_map.update(parse_qsl(parts.query))
        request = WireRequest(method=method.upper(), path=parts.path, headers=fields,
                              body=body, query=query_map)
        target = f"{request.method} {parts.path}{_render_query(query_map)}"
        dst = parts.netloc
        self.transcript.append(src, dst, channel, frame_head(f"REQ {target}", request.headers), body)
        try:
            if parts.scheme != "http":
                raise PeerUnreachableError(f"unsupported URL scheme {parts.scheme!r}")
            peer = self._peers.get(dst)
            if peer is None:
                raise PeerUnreachableError(f"unknown component {dst!r}")
            response = self._send(dst, peer, request)
        except PeerUnreachableError as exc:
            response = error_response(exc)
        self.transcript.append(dst, src, channel,
                               frame_head(f"RSP {response.status} {target}", response.headers), response.body)
        return response

    def _send(self, name: str, peer: Any, request: WireRequest) -> WireResponse:
        raise NotImplementedError


class InprocTransport(Transport):
    """Hands each request straight to the Router registered under its name."""

    def _send(self, name: str, peer: Router, request: WireRequest) -> WireResponse:
        return peer.dispatch(request)


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
