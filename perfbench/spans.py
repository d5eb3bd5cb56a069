"""Span tracer for the benchmark's traced run.

The tracer wraps the public entry points of each edgeqkd module from the
outside (nothing under ``src/`` knows about it) and records one span per
call: name, start, end, parent span, request id and run phase.  Aggregates
are kept per (phase, span name) as call counts, inclusive time and self
time.  Self time is a span's duration minus the time its child spans cover.

``wire.*`` spans (JSON and base64 codecs) are leaves that sit inside other
layers' spans: they are reported on their own but are not subtracted from
their parent's self time, so every layer's self time still includes the
codec work it asks for.

HTTP exchanges cross threads: the client thread blocks in
``HttpTransport.request`` while a server thread runs ``Router.dispatch``.
The benchmark drives one closed-loop client and every exchange is
synchronous, so at any moment the innermost open client exchange is the one
a new server-thread dispatch belongs to.  The tracer links them that way
and counts exchanges whose link is missing or ambiguous.
"""

from __future__ import annotations

import functools
import http.client
import json
import sys
import threading
import time
from collections import defaultdict

WIRE_NAMES = {
    "dumps": "wire.json",
    "loads": "wire.json",
    "b64encode": "wire.b64",
    "b64decode": "wire.b64",
}


class _Frame:
    __slots__ = ("sid", "name", "parent", "leaf", "linked", "rid", "start",
                 "child_ns", "linked_ns", "links")

    def __init__(self, sid, name, parent, leaf, linked, rid):
        self.sid = sid
        self.name = name
        self.parent = parent
        self.leaf = leaf
        self.linked = linked
        self.rid = rid
        self.start = 0
        self.child_ns = 0
        self.linked_ns = 0
        self.links = 0


class Tracer:
    """In-memory span recorder; spans beyond ``keep_spans`` are aggregated only."""

    def __init__(self, keep_spans: int = 10000) -> None:
        self.phase = "setup"
        self.rid: int | None = None
        self.spans: list[tuple] = []
        self.calls: dict[tuple[str, str], int] = defaultdict(int)
        self.total_ns: dict[tuple[str, str], int] = defaultdict(int)
        self.self_ns: dict[tuple[str, str], int] = defaultdict(int)
        self.counts: dict[tuple[str, str], int] = defaultdict(int)
        self.exchange_overhead_ns: dict[str, int] = defaultdict(int)
        self.unlinked_exchanges = 0
        self._keep = keep_spans
        self._local = threading.local()
        self._exchanges: list[_Frame] = []  # open HTTP client exchanges, innermost last
        self._lock = threading.Lock()
        self._next_sid = 0

    def _stack(self) -> list[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str) -> None:
        with self._lock:
            self.counts[(self.phase, name)] += 1

    def wrap(self, fn, name: str, *, exchange: bool = False):
        """Return ``fn`` wrapped in a span called ``name``.

        ``exchange`` marks a client-side HTTP exchange that server-thread
        spans link to.
        """
        leaf = name.startswith("wire.")
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer._open(name, leaf, exchange)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(frame, exchange)

        return traced

    def _open(self, name: str, leaf: bool, exchange: bool) -> _Frame:
        stack = self._stack()
        with self._lock:
            linked = not stack and bool(self._exchanges)
            parent = stack[-1] if stack else (self._exchanges[-1] if linked else None)
            self._next_sid += 1
            frame = _Frame(self._next_sid, name, parent, leaf, linked, self.rid)
            if exchange:
                self._exchanges.append(frame)
        stack.append(frame)
        frame.start = time.perf_counter_ns()
        return frame

    def _close(self, frame: _Frame, exchange: bool) -> None:
        end = time.perf_counter_ns()
        self._stack().pop()
        duration = end - frame.start
        parent = frame.parent
        with self._lock:
            key = (self.phase, frame.name)
            self.calls[key] += 1
            self.total_ns[key] += duration
            self.self_ns[key] += duration - frame.child_ns
            if parent is not None and not frame.leaf:
                parent.child_ns += duration
                if frame.linked:
                    parent.linked_ns += duration
                    parent.links += 1
            if exchange:
                self._exchanges.remove(frame)
                self.exchange_overhead_ns[self.phase] += duration - frame.linked_ns
                if frame.links != 1:
                    self.unlinked_exchanges += 1
            if len(self.spans) < self._keep:
                self.spans.append((frame.sid, frame.name, frame.start, end,
                                   parent.sid if parent is not None else None,
                                   frame.rid, self.phase))

    def write(self, path, **extra) -> None:
        """Write the kept spans and the aggregate of every span name as one JSON document."""
        aggregates = [{"phase": phase, "name": name, "calls": calls,
                       "total_ns": self.total_ns[(phase, name)],
                       "self_ns": self.self_ns[(phase, name)]}
                      for (phase, name), calls in sorted(self.calls.items())]
        path.write_text(json.dumps({
            **extra, "aggregates": aggregates,
            "span_fields": ["span", "name", "start_ns", "end_ns", "parent", "request", "phase"],
            "spans": self.spans,
        }))


def _patch(tracer: Tracer, owner, attr: str, name: str, **kwargs) -> None:
    setattr(owner, attr, tracer.wrap(getattr(owner, attr), name, **kwargs))


def install(tracer: Tracer) -> None:
    """Wrap every traced entry point of the loaded edgeqkd package.

    Call once per process, before ``Stack.build``: instances copy the
    handler table when they are created.
    """
    from edgeqkd import channel, control, entropy, gateway, harness, host, httpd, keystore
    from edgeqkd import kme, transport, wire

    _patch(tracer, gateway.Gateway, "handle_request", "gateway.handle_request")

    # gateway and host call these through the module, so the module attribute is enough
    _patch(tracer, channel, "encrypt", "channel.encrypt")
    _patch(tracer, channel, "decrypt", "channel.decrypt")
    _patch(tracer, channel, "encrypt_response", "channel.encrypt_response")
    envelope = channel.EncryptedEnvelope
    _patch(tracer, envelope, "to_bytes", "channel.envelope_codec")
    from_bytes = envelope.__dict__["from_bytes"].__func__
    envelope.from_bytes = classmethod(tracer.wrap(from_bytes, "channel.envelope_codec"))

    _patch(tracer, kme.KmeClient, "get_enc_keys", "kme.get_enc_keys")
    _patch(tracer, kme.KmeClient, "get_dec_keys", "kme.get_dec_keys")
    _patch(tracer, kme.KmePair, "dispense", "kme.dispense")
    _patch(tracer, kme.KmePair, "release", "kme.release")
    _patch(tracer, entropy.DeterministicStream, "read", "entropy.read")
    _patch(tracer, keystore.KeyStore, "get", "keystore.get")
    _patch(tracer, keystore.KeyStore, "put", "keystore.put")

    _patch(tracer, host.MecHost, "invoke", "host.invoke")
    # MecHost copies this table at construction, so wrap the entries in place
    for handler_name, handler in list(host.BUILTIN_HANDLERS.items()):
        host.BUILTIN_HANDLERS[handler_name] = tracer.wrap(handler, "host.handler")

    _patch(tracer, transport.InprocTransport, "request", "transport.request")
    _patch(tracer, transport.Router, "dispatch", "transport.dispatch")
    _patch(tracer, transport.Transcript, "append", "transport.transcript_append")
    _patch(tracer, httpd.HttpTransport, "request", "httpd.request", exchange=True)

    connect = http.client.HTTPConnection.connect

    def counted_connect(self):
        tracer.count("httpd.connect")
        return connect(self)

    http.client.HTTPConnection.connect = counted_connect

    _patch(tracer, control.Mx2Client, "lookup", "control.lookup")
    _patch(tracer, control.Mx2Client, "create_context", "control.create_context")
    _patch(tracer, harness, "compute_metrics", "harness.compute_metrics")
    _patch(tracer, harness, "wiretap_assert", "harness.wiretap")

    # each module imported the codecs by name: rebind that name wherever it is the original
    originals = {attr: getattr(wire, attr) for attr in WIRE_NAMES}
    wrapped = {attr: tracer.wrap(fn, WIRE_NAMES[attr]) for attr, fn in originals.items()}
    for module_name, module in list(sys.modules.items()):
        if module_name != "edgeqkd" and not module_name.startswith("edgeqkd."):
            continue
        for attr, original in originals.items():
            if getattr(module, attr, None) is original:
                setattr(module, attr, wrapped[attr])
