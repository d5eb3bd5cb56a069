"""Message plumbing between components.

Components expose a Router over (method, path) and are reachable through a
Transport by URL, `http://<name>/...`, in process or over real sockets (see
httpd). A Router lists each route under its method and segment count, so a
request compares only the literal segments of routes that could match; the
first route added that matches wins, and a miss goes to the fallback or to
404. Either transport records every exchange in a Transcript as two frames,
request and response, an unreachable peer's 502 included, so metrics and the
wiretap are computed from the record alone, and both record the same bytes.
A record keeps a frame's `head` (first line and sorted headers, ending in a
blank line) apart from its `body`, the very bytes object the exchange carried.

This module alone decides what a head may hold, on both transports:
- a method is a token (RFC 9110 §5.6.2), sent and matched as written (§9.1);
- a URL is `<scheme>://<name><target>`; an unknown scheme or name gets a
  recorded 502 `peer-unreachable`;
- a target is origin-form (RFC 9112 §3.2.1): a path of RFC 3986 §3.3 `pchar`
  starting with `/`, then optionally `?` and a §3.4 query, each `%` starting
  a `%XX` escape. It is recorded and sent as written; `parse_request_line`
  derives the path and query fields (`parse_qsl`, blank values kept) on both
  ends;
- a header field is a lowercase token name, `: ` and a value of visible
  ASCII, with SP or HTAB only between visible characters (RFC 9110 §5.5). The
  framing fields `host`, `content-length`, `connection` and
  `transfer-encoding` are the transport's own, so no head sets them;
- a reply status has three digits, and a 204 or 304 reply has no body.
A request outside the grammar raises MalformedError before any frame is
recorded; a reply outside it is answered with a 500 by `Router.dispatch`.
"""

from __future__ import annotations

import json
import re
import threading
from dataclasses import dataclass, field
from functools import lru_cache
from operator import attrgetter
from typing import Any, Callable, Iterator, Mapping
from urllib.parse import parse_qsl

from .clock import Clock, SystemClock
from .errors import EdgeQkdError, MalformedError, NotFoundError, PeerUnreachableError, error_for_code
from .wire import b64decode, b64encode, decode_error, dumps, encode_error

# Channels crossing the client/edge trust boundary; everything a passive
# observer between the two domains could see travels on one of these.
INTER_DOMAIN_CHANNELS = frozenset({"mx2", "data"})

_PCHAR = r"A-Za-z0-9\-._~!$&'()*+,;=:@"  # RFC 3986 §3.3, less its %XX escapes
_URL = re.compile(r"([A-Za-z][A-Za-z0-9+.\-]*)://([A-Za-z0-9\-._~!$&'()*+,;=:]*)(.*)", re.S)
_LINE = re.compile(rf"[!#$%&'*+\-.^_`|~0-9A-Za-z]++ (/(?:[{_PCHAR}/]|%[0-9A-Fa-f]{{2}})*+)"
                   rf"(?:\?((?:[{_PCHAR}/?]|%[0-9A-Fa-f]{{2}})*+))?")
_FIELDS = re.compile(r"(?:\n(?!(?:host|content-length|connection|transfer-encoding):)"
                     r"[!#$%&'*+\-.^_`|~0-9a-z]++: (?:[!-~]++(?:[ \t]++[!-~]++)*+)?+)*+")


@lru_cache(maxsize=256)
def parse_request_line(line: str) -> tuple[str, tuple[tuple[str, str], ...]]:
    """The path and the query fields of `<method> <target>`, or MalformedError."""
    match = _LINE.fullmatch(line)
    if match is None:
        raise MalformedError(f"request line {line!r} is outside the grammar")
    path, query = match.groups()
    return path, tuple(parse_qsl(query, keep_blank_values=True)) if query else ()


@lru_cache(maxsize=256)
def _split_url(method: str, url: str) -> tuple[str, str, str, str, tuple[tuple[str, str], ...]]:
    """(scheme, name, `<method> <target>`, path, query fields), cached."""
    match = _URL.fullmatch(url)
    if match is None:
        raise MalformedError(f"URL {url!r} is not <scheme>://<name><target>")
    scheme, name, target = match.groups()
    line = f"{method} {target}"
    return (scheme.lower(), name, line, *parse_request_line(line))


@lru_cache(maxsize=256)
def _header_lines(items: tuple[tuple[str, str], ...]) -> tuple[str, bool]:
    lines = ""
    for name, value in sorted(items):
        lines += f"\n{name}: {value}"
    # a CR or LF inside a name or value adds a line to the count
    return lines, lines.count("\n") == len(items) and _FIELDS.fullmatch(lines) is not None


def header_lines(headers: Mapping[str, str]) -> tuple[str, bool]:
    """A head's header lines, `\\n<name>: <value>` each sorted by name, and
    whether all are in the grammar; cached, as heads repeat a few sets."""
    return _header_lines(tuple(headers.items()))


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
    return WireResponse(status=status, headers={"content-type": "application/json", **(headers or {})},
                        body=dumps(obj))


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
        """The route's reply, or an error reply: a reply head outside the
        grammar is a component bug, answered with a 500 on both transports."""
        try:
            matched = self._match(request.method, request.path)
            if matched is not None:
                fn, params = matched
                response = fn(request, **params)
            elif self._fallback is not None:
                response = self._fallback(request)
            else:
                raise NotFoundError(f"no route for {request.method} {request.path}")
            if not header_lines(response.headers)[1]:
                raise EdgeQkdError("reply header outside the field grammar")
            if not 100 <= response.status <= 999 or response.body and response.status in (204, 304):
                raise EdgeQkdError(f"reply status {response.status} outside the grammar")
        except EdgeQkdError as exc:
            return error_response(exc)
        except Exception as exc:  # component bug: surface as a 500 frame
            return error_response(EdgeQkdError(f"unhandled error: {exc}"))
        return response


# ---------------------------------------------------------------------------
# Transcript
# ---------------------------------------------------------------------------

def frame_head(first_line: str, headers: Mapping[str, str]) -> bytes:
    """A frame's head: the first line and the sorted headers, ending in a
    blank line. A head holds no other blank line, since no header line is
    empty and the grammar refuses a CR or LF inside one."""
    return (first_line + header_lines(headers)[0] + "\n\n").encode()


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
    name; subclasses supply `_send`, whose PeerUnreachableError gives a 502."""

    def __init__(self, transcript: Transcript | None = None, clock: Clock | None = None) -> None:
        self._clock = clock or SystemClock()
        self.transcript = transcript if transcript is not None else Transcript(self._clock)
        self._peers: dict[str, Any] = {}

    def register(self, name: str, peer: Any) -> None:
        if name in self._peers:
            raise ValueError(f"component {name!r} already registered")
        self._peers[name] = peer

    def request(self, *, src: str, channel: str, method: str, url: str,
                headers: Mapping[str, str] | None = None, body: bytes = b"") -> WireResponse:
        scheme, dst, line, path, query = _split_url(method, url)
        headers = dict(headers) if headers else {}
        lines, valid = header_lines(headers)
        if not valid:
            raise MalformedError("request header outside the field grammar")
        self.transcript.append(src, dst, channel, f"REQ {line}{lines}\n\n".encode(), body)
        try:
            if scheme != "http":
                raise PeerUnreachableError(f"unsupported URL scheme {scheme!r}")
            peer = self._peers.get(dst)
            if peer is None:
                raise PeerUnreachableError(f"unknown component {dst!r}")
            response = self._send(dst, peer, line, WireRequest(method, path, headers, body, dict(query)))
        except PeerUnreachableError as exc:
            response = error_response(exc)
        self.transcript.append(dst, src, channel,
                               frame_head(f"RSP {response.status} {line}", response.headers), response.body)
        return response

    def _send(self, name: str, peer: Any, line: str, request: WireRequest) -> WireResponse:
        """The peer's reply to `request`, whose request line is `line`."""
        raise NotImplementedError


class InprocTransport(Transport):
    """Hands each request straight to the Router registered under its name."""

    def _send(self, name: str, peer: Router, line: str, request: WireRequest) -> WireResponse:
        return peer.dispatch(request)


def raise_for_status(response: WireResponse) -> WireResponse:
    """Turn a >=400 response carrying {"message","code"} back into its typed error."""
    if response.status < 400:
        return response
    code, message = decode_error(response.body)
    try:
        retry_after = float(response.headers["retry-after"])
    except (KeyError, ValueError):
        retry_after = None
    raise error_for_code(code, message, retry_after=retry_after)
