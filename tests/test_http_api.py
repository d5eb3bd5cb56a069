"""Wire-format checks over real loopback HTTP."""

from __future__ import annotations

import socket
import sys
import threading
import time
from urllib.parse import urlencode

import pytest

from edgeqkd.clock import SimulatedClock, SystemClock
from edgeqkd.errors import (
    AlreadyConsumedError,
    KeyExhaustedError,
    MalformedError,
    PeerUnreachableError,
    UnknownPeerError,
)
from edgeqkd.harness import ScenarioConfig, Stack, run_scenario
from edgeqkd.httpd import MAX_BODY_BYTES, MAX_HEAD_BYTES, ComponentHttpServer, HttpTransport
from edgeqkd.kme import KmeApi, KmeClient, new_kme_pair
from edgeqkd.transport import InprocTransport, Router, WireResponse, json_response, raise_for_status
from edgeqkd.wire import decode_error, dumps, loads

from conftest import EXAMPLE_VARIANTS, example_doc, iter_frames

SEED = b"\x77" * 32


@pytest.fixture
def kme_servers():
    clock = SystemClock()
    master, slave = new_kme_pair(SEED, 0, 1 << 16, clock=clock)
    s_master = ComponentHttpServer("kme-client", KmeApi(master).router()).start()
    s_slave = ComponentHttpServer("kme-mec", KmeApi(slave).router()).start()
    transport = HttpTransport(clock=clock)
    for server in (s_master, s_slave):
        transport.register(server.name, server.address)
    yield master, slave, s_master, s_slave, transport
    transport.close()
    s_master.stop()
    s_slave.stop()


def test_kme_rest_roundtrip(kme_servers):
    master, slave, s_master, s_slave, transport = kme_servers
    client = KmeClient(transport, src="gateway", base_url="http://kme-client", channel="qkd")
    mec = KmeClient(transport, src="edge-a", base_url="http://kme-mec", channel="qkd")

    status = client.get_status("sae-mec", size=256)
    assert status["stored_key_count"] == (1 << 16) // 256
    assert status["peer_sae"] == "sae-mec"

    keys = client.get_enc_keys("sae-mec", size=256, number=2)
    assert len(keys) == 2
    fetched = mec.get_dec_keys("sae-client", [keys[0][0]])
    assert fetched == [keys[0]]
    with pytest.raises(AlreadyConsumedError):
        mec.get_dec_keys("sae-client", [keys[0][0]])


def test_kme_rest_error_bodies(kme_servers):
    master, slave, s_master, s_slave, transport = kme_servers
    client = KmeClient(transport, src="gateway", base_url="http://kme-client", channel="qkd")
    with pytest.raises(UnknownPeerError):
        client.get_status("sae-wrong")
    with pytest.raises(KeyExhaustedError):
        client.get_enc_keys("sae-mec", size=1 << 16, number=2)
    # raw response carries the symbolic code
    response = transport.request(
        src="t", channel="qkd", method="POST",
        url="http://kme-client/api/v1/keys/sae-mec/enc_keys",
        body=dumps({"number": 1, "size": 12}),
    )
    assert response.status == 400
    assert loads(response.body)["code"] == "bad-length"


def test_http_scenario_end_to_end():
    doc = {
        "qkd": {"seed": SEED.hex(), "rate_bits_per_sec": 1000, "capacity_bits": 4096},
        "catalog": [
            {"app_name": "fn-echo", "provider": "demo", "version": "1.0", "required_slots": 1},
            {"app_name": "fn-sum", "provider": "demo", "version": "1.0", "required_slots": 1},
        ],
        "hosts": [{"host_id": "edge-a", "total_slots": 4}],
        "bindings": [
            {"path_prefix": "/echo", "app_name": "fn-echo", "provider": "demo", "version": "1.0"},
            {"path_prefix": "/sum", "app_name": "fn-sum", "provider": "demo", "version": "1.0"},
        ],
        "policy": {"max_uses": 4, "max_age_sec": 3600},
        "workload": [
            {"path": "/echo", "body": "hello over real sockets", "repeat": 3},
            {"path": "/sum", "body": "[10,20,30]", "repeat": 1},
        ],
        "clock": "real",
        "transport": "http",
    }
    result = run_scenario(ScenarioConfig.from_doc(doc))
    assert result.metrics.requests_total == 4
    assert result.metrics.requests_ok == 4
    assert result.wiretap.passed
    assert result.metrics.qkd_bits_consumed == result.pool_stats["dispensed_bits"]


def test_http_stack_serves_mx2_and_invoke_paths():
    doc = {
        "qkd": {"seed": SEED.hex(), "rate_bits_per_sec": 0, "capacity_bits": 4096},
        "catalog": [{"app_name": "fn-echo", "provider": "demo", "version": "1.0",
                     "required_slots": 1}],
        "hosts": [{"host_id": "edge-a", "total_slots": 2}],
        "bindings": [{"path_prefix": "/echo", "app_name": "fn-echo",
                      "provider": "demo", "version": "1.0"}],
        "policy": {"max_uses": 10, "max_age_sec": 3600},
        "workload": [],
        "clock": "real",
        "transport": "http",
    }
    stack = Stack.build(ScenarioConfig.from_doc(doc))
    try:
        response = raise_for_status(stack.transport.request(
            src="client", channel="mx2", method="GET",
            url="http://lcmp/dev_app/v1/app_list?appName=fn-echo",
        ))
        assert loads(response.body)["app_list"][0]["app_name"] == "fn-echo"

        assert stack.client_request("/echo", b"ping").body == b"ping"
        binding = stack.gateway.binding_for("/echo")
        assert binding.endpoint_uri.startswith("http://edge-a/apps/fn-echo-")
        health = stack.transport.request(src="client", channel="data", method="GET",
                                         url=binding.endpoint_uri + "/healthz")
        assert health.status == 200

        # context delete over real HTTP (204, empty body), then re-establishment
        from edgeqkd.control import Mx2Client

        mx2 = Mx2Client(stack.transport, src="client", base_url="http://lcmp")
        mx2.delete_context(binding.context_id)
        assert stack.client_request("/echo", b"pong").body == b"pong"
    finally:
        stack.stop()


def _exchanges(transport):
    """Each recorded frame's kind, status and error code."""
    out = []
    for _, frame in iter_frames(transport.transcript.records()):
        code = decode_error(frame.body)[0] if frame.kind == "RSP" and frame.status >= 400 else None
        out.append((frame.kind, frame.status, code))
    return out


def test_http_transport_unreachable_peer():
    # an authority that names no registered component is not dialled
    transport = HttpTransport(clock=SimulatedClock(), timeout=0.5)
    response = transport.request(src="x", channel="qkd", method="GET",
                                 url="http://127.0.0.1:9/api/v1/keys/s/status")
    assert response.status == 502
    with pytest.raises(PeerUnreachableError):
        raise_for_status(response)
    assert _exchanges(transport) == [("REQ", None, None), ("RSP", 502, "peer-unreachable")]


@pytest.mark.parametrize("url, message", [
    ("http://kme-gone/api/v1/keys/s/status", "unknown component 'kme-gone'"),
    ("inproc://kme-client/api/v1/keys/s/status", "unsupported URL scheme 'inproc'"),
    ("ftp://peer/n", "unsupported URL scheme 'ftp'"),
], ids=["unknown-name", "unknown-scheme", "unknown-scheme-registered-name"])
def test_unreachable_peer_gives_the_same_frames_on_both_transports(url, message):
    router = Router()
    router.add("GET", "/n", lambda request: json_response(200, {}))
    transcripts = []
    for kind in ("inproc", "http"):
        transport, server = _serve(kind, router)
        try:
            response = transport.request(src="x", channel="qkd", method="GET", url=url)
        finally:
            if server is not None:
                transport.close()
                server.stop()
        assert response.status == 502
        assert decode_error(response.body) == ("peer-unreachable", message)
        assert _exchanges(transport) == [("REQ", None, None), ("RSP", 502, "peer-unreachable")]
        transcripts.append(transport.transcript.records())
    assert transcripts[0] == transcripts[1]


def test_stopped_server_gives_a_peer_unreachable_frame():
    router = Router()
    router.add("GET", "/n", lambda request: json_response(200, 1))
    server = ComponentHttpServer("gone", router).start()
    transport = HttpTransport(clock=SimulatedClock(), timeout=0.5)
    transport.register(server.name, server.address)
    try:
        assert transport.request(src="t", channel="mx2", method="GET", url="http://gone/n").status == 200
        server.stop()  # the transport still pools its connection to the server
        response = transport.request(src="t", channel="mx2", method="GET", url="http://gone/n")
    finally:
        transport.close()
    assert response.status == 502
    code, message = decode_error(response.body)
    assert code == "peer-unreachable" and message.startswith("cannot reach gone:")
    assert _exchanges(transport) == [("REQ", None, None), ("RSP", 200, None),
                                     ("REQ", None, None), ("RSP", 502, "peer-unreachable")]


def test_http_transcripts_are_reproducible():
    doc = {
        "qkd": {"seed": SEED.hex(), "rate_bits_per_sec": 1000, "capacity_bits": 4096},
        "catalog": [{"app_name": "fn-echo", "provider": "demo", "version": "1.0",
                     "required_slots": 1}],
        "hosts": [{"host_id": "edge-a", "total_slots": 2}],
        "bindings": [{"path_prefix": "/echo", "app_name": "fn-echo",
                      "provider": "demo", "version": "1.0"}],
        "policy": {"max_uses": 2, "max_age_sec": 3600},
        "workload": [{"path": "/echo", "body": "same bytes every run", "repeat": 3}],
        "clock": "simulated",
        "transport": "http",
    }
    runs = []
    for _ in range(2):
        result = run_scenario(ScenarioConfig.from_doc(doc))
        assert result.metrics.requests_ok == 3
        for _, frame in iter_frames(result.records):
            if frame.kind == "RSP":
                assert "date" not in frame.headers and "server" not in frame.headers
        runs.append(result.transcript_ndjson())
    assert runs[0] == runs[1]


@pytest.mark.parametrize("value", ["x&b=y", "hello world"])
def test_http_query_values_are_percent_encoded(value):
    router = Router()
    router.add("GET", "/q", lambda request: json_response(200, request.query))
    server = ComponentHttpServer("echo-query", router).start()
    transport = HttpTransport(clock=SimulatedClock())
    transport.register(server.name, server.address)
    try:
        response = transport.request(src="t", channel="mx2", method="GET",
                                     url="http://echo-query/q?" + urlencode({"a": value}))
        assert loads(raise_for_status(response).body) == {"a": value}
    finally:
        transport.close()
        server.stop()


@pytest.mark.parametrize("kind", ["inproc", "http"])
@pytest.mark.parametrize("request_args", [
    {"headers": {"x-a": "v\nInjected: 1"}},
    {"headers": {"x-a": "v\r"}},
    {"headers": {"x-a\r\nInjected": "1"}},
    {"method": "GET /n HTTP/1.1\r\nInjected: 1\r\n\r\nGET"},
    {"url": "http://peer/n\nInjected: 1"},
], ids=["header-value-lf", "header-value-cr", "header-name-crlf", "method-crlf", "url-lf"])
def test_line_break_in_a_request_head_is_refused_before_any_frame(kind, request_args):
    _assert_refused_before_any_frame(kind, request_args)


@pytest.mark.parametrize("kind", ["inproc", "http"])
@pytest.mark.parametrize("request_args", [
    {"url": "http://peer/n\tx"},
    {"url": "http://peer/n x"},
    {"url": "http://peer/n?a=1 2"},
    {"url": "\x01http://peer/n"},
    {"url": "http://peer/n\x00"},
    {"url": "http://peer/n\x7f"},
    {"url": "http://peer/n\x85"},
    {"url": "http://peer/n\u200b"},
    {"method": "GE\tT"},
    {"method": "GET "},
], ids=["url-tab", "url-space", "query-space", "url-leading-c0", "url-nul", "url-del",
        "url-c1-control", "url-zero-width-space", "method-tab", "method-space"])
def test_space_or_unprintable_character_in_a_request_line_is_refused_before_any_frame(kind, request_args):
    _assert_refused_before_any_frame(kind, request_args)


@pytest.mark.parametrize("kind", ["inproc", "http"])
@pytest.mark.parametrize("request_args", [
    {"url": "http://peer/\u20ac"},
    {"url": "http://peer/n?a=\u00e9"},
    {"method": "G\u00c9T"},
    {"headers": {"x-a": "\u20ac"}},
    {"headers": {"x-a": "\u00e9"}},
    {"headers": {"x-\u20ac": "1"}},
], ids=["url-euro", "query-latin1", "method-latin1", "header-value-euro", "header-value-latin1",
        "header-name-euro"])
def test_non_ascii_character_in_a_request_head_is_refused_before_any_frame(kind, request_args):
    _assert_refused_before_any_frame(kind, request_args)


def _serve(kind, router, name="peer"):
    """A transport that reaches `router` under `name`, and the server, if any."""
    if kind == "http":
        server = ComponentHttpServer(name, router).start()
        transport = HttpTransport(clock=SimulatedClock())
        transport.register(name, server.address)
        return transport, server
    transport = InprocTransport(clock=SimulatedClock())
    transport.register(name, router)
    return transport, None


def _assert_refused_before_any_frame(kind, request_args):
    calls = []
    router = Router()
    router.add("GET", "/n", lambda request: calls.append(request) or json_response(200, {}))
    transport, server = _serve(kind, router)
    try:
        with pytest.raises(MalformedError):
            transport.request(**{"src": "t", "channel": "mx2", "method": "GET",
                                 "url": "http://peer/n", **request_args})
        assert transport.transcript.records() == []
        assert calls == []
        # the transport still works for a clean request
        assert transport.request(src="t", channel="mx2", method="GET", url="http://peer/n").status == 200
    finally:
        if server is not None:
            transport.close()
            server.stop()


@pytest.mark.parametrize("headers", [{"x-a": "v\nInjected: 1"}, {"x-a": "v\r"},
                                     {"x-a\r\nInjected": "1"}],
                         ids=["value-lf", "value-cr", "name-crlf"])
def test_line_break_in_a_reply_head_is_a_500_on_both_transports(headers):
    _assert_reply_head_is_a_500(headers, "reply header outside the field grammar")


@pytest.mark.parametrize("headers", [{"x-a": "\u20ac"}, {"x-a": "\u00e9"}, {"x-\u20ac": "1"}],
                         ids=["value-euro", "value-latin1", "name-euro"])
def test_non_ascii_character_in_a_reply_head_is_a_500_on_both_transports(headers):
    _assert_reply_head_is_a_500(headers, "reply header outside the field grammar")


def _assert_reply_head_is_a_500(headers, message):
    transcripts = []
    for kind in ("inproc", "http"):
        router = Router()
        router.add("GET", "/n", lambda request: WireResponse(200, dict(headers), b"forged"))
        router.add("GET", "/ok", lambda request: json_response(200, {}))
        transport, server = _serve(kind, router)
        try:
            response = transport.request(src="t", channel="mx2", method="GET", url="http://peer/n")
            assert response.status == 500
            assert decode_error(response.body) == ("internal-error", message)
            # the connection and the server survive the refused reply
            assert transport.request(src="t", channel="mx2", method="GET", url="http://peer/ok").status == 200
        finally:
            if server is not None:
                transport.close()
                server.stop()
        assert _exchanges(transport) == [("REQ", None, None), ("RSP", 500, "internal-error"),
                                         ("REQ", None, None), ("RSP", 200, None)]
        transcripts.append(transport.transcript.records())
    assert transcripts[0] == transcripts[1]


def _http_doc(workload, clock="simulated"):
    return {
        "qkd": {"seed": SEED.hex(), "rate_bits_per_sec": 0, "capacity_bits": 1 << 20},
        "catalog": [
            {"app_name": "fn-echo", "provider": "demo", "version": "1.0", "required_slots": 1},
            {"app_name": "fn-upper", "provider": "demo", "version": "1.0", "required_slots": 1},
        ],
        "hosts": [{"host_id": "edge-a", "total_slots": 2}, {"host_id": "edge-b", "total_slots": 2}],
        "bindings": [
            {"path_prefix": "/echo", "app_name": "fn-echo", "provider": "demo", "version": "1.0"},
            {"path_prefix": "/upper", "app_name": "fn-upper", "provider": "demo", "version": "1.0"},
        ],
        "policy": {"max_uses": 5, "max_age_sec": 3600},
        "workload": workload,
        "clock": clock,
        "transport": "http",
    }


@pytest.fixture
def connects(monkeypatch):
    """Counts the TCP connections every HttpTransport opens."""
    opened = []
    connect = HttpTransport._connect

    def counted(self, address):
        opened.append(address)
        return connect(self, address)

    monkeypatch.setattr(HttpTransport, "_connect", counted)
    return opened


def _new_threads(before):
    return [t for t in threading.enumerate() if t not in before]


def test_serial_requests_reuse_one_connection_per_authority(connects):
    stack = Stack.build(ScenarioConfig.from_doc(_http_doc([])))
    try:
        for i in range(30):
            path, body = ("/echo", b"ping") if i % 2 else ("/upper", b"pong")
            response = stack.client_request(path, body)
            assert response.status == 200
            assert response.body == (b"ping" if i % 2 else b"PONG")
    finally:
        stack.stop()
    assert 0 < len(connects) <= len(stack.servers)


def test_stale_pooled_connection_is_replaced_once(connects):
    calls = []
    router = Router()
    router.add("GET", "/n", lambda request: (calls.append(1), json_response(200, len(calls)))[1])
    server = ComponentHttpServer("stale", router).start()
    transport = HttpTransport(clock=SimulatedClock())
    transport.register(server.name, server.address)
    before = threading.enumerate()
    try:
        assert transport.request(src="t", channel="mx2", method="GET",
                                 url="http://stale/n").status == 200
        handlers = _new_threads(before)
        # the server closes the idle connection the transport has pooled
        with server._lock:
            for sock in server._connections:
                sock.shutdown(socket.SHUT_RDWR)
        for thread in handlers:
            thread.join(timeout=5)
            assert not thread.is_alive()
        response = transport.request(src="t", channel="mx2", method="GET",
                                     url="http://stale/n")
        assert loads(raise_for_status(response).body) == 2
    finally:
        transport.close()
        server.stop()
    assert len(connects) == 2
    assert len(calls) == 2
    frames = [frame.kind for _, frame in iter_frames(transport.transcript.records())]
    assert frames == ["REQ", "RSP", "REQ", "RSP"]


def test_stop_leaves_no_thread_behind_a_pooled_connection():
    before = threading.enumerate()
    server = ComponentHttpServer("linger", Router()).start()
    transport = HttpTransport(clock=SimulatedClock())
    transport.register(server.name, server.address)
    assert transport.request(src="t", channel="mx2", method="GET",
                             url="http://linger/healthz").status == 404
    started = _new_threads(before)
    assert any(t.name == "httpd-linger" for t in started) and len(started) >= 2
    # the transport still pools its connection: stop() must end it itself
    stopper = threading.Thread(target=server.stop, daemon=True)
    began = time.monotonic()
    stopper.start()
    stopper.join(timeout=5)
    assert not stopper.is_alive()
    assert time.monotonic() - began < 1.0
    for thread in started:
        thread.join(timeout=2)
    assert not [t.name for t in started if t.is_alive()]
    assert not [t.name for t in _new_threads(before) if t.name.startswith("httpd-")]
    transport.close()


def test_concurrent_lanes_share_one_transport():
    doc = _http_doc([
        {"path": "/echo", "body": "concurrent lanes one pool", "repeat": 8, "concurrency": 2},
        {"path": "/upper", "body": "other route same pool", "repeat": 8, "concurrency": 2},
    ], clock="real")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        result = run_scenario(ScenarioConfig.from_doc(doc))
    finally:
        sys.setswitchinterval(interval)
    assert result.metrics.requests_total == 32
    assert result.metrics.requests_ok == result.metrics.requests_total
    statuses = [frame.status for record, frame in iter_frames(result.records)
                if record["channel"] == "client" and frame.kind == "RSP"]
    assert statuses == [200] * 32
    assert result.wiretap.passed


@pytest.mark.parametrize("variant", list(EXAMPLE_VARIANTS))
def test_http_transcript_matches_inproc(variant):
    # components are addressed by name on both transports, so every byte agrees
    runs = {mode: run_scenario(ScenarioConfig.from_doc({**example_doc(variant), "transport": mode}))
            for mode in ("inproc", "http")}
    assert runs["http"].transcript_ndjson() == runs["inproc"].transcript_ndjson()
    assert runs["http"].metrics.to_doc() == runs["inproc"].metrics.to_doc()
    assert runs["http"].metrics.requests_total == 15


def test_auth_token_scenario_is_served_on_both_transports():
    # Stack.client_request sends the configured bearer token with every request
    runs = {mode: run_scenario(ScenarioConfig.from_doc({**example_doc("example"), "auth_token": "s3cret",
                                                        "transport": mode}))
            for mode in ("inproc", "http")}
    assert runs["http"].transcript_ndjson() == runs["inproc"].transcript_ndjson()
    assert (runs["http"].metrics.requests_ok, runs["http"].metrics.requests_total) == (15, 15)


def test_same_host_chain_over_http():
    # the host's fn-echo instance calls its fn-upper instance on the same host
    doc = _http_doc([], clock="real")
    doc["catalog"][0]["chain_to"] = {"app_name": "fn-upper", "provider": "demo", "version": "1.0"}
    doc["hosts"] = [{"host_id": "edge-a", "total_slots": 2}]
    doc["bindings"] = doc["bindings"][:1]
    stack = Stack.build(ScenarioConfig.from_doc(doc))
    try:
        began = time.monotonic()
        for i in range(5):
            response = stack.client_request("/echo", b"chained %d" % i)
            assert (response.status, response.body) == (200, b"CHAINED %d" % i)
        assert time.monotonic() - began < 3.0
    finally:
        stack.stop()


@pytest.fixture
def raw_server():
    router = Router()
    router.add("POST", "/echo", lambda request: WireResponse(200, body=request.body))
    router.add("GET", "/q", lambda request: json_response(200, request.query))
    router.add("GET", "/boom", lambda request: 1 // 0)
    server = ComponentHttpServer("raw", router).start()
    yield server
    server.stop()


def _raw(server, *writes):
    """Send each write on its own over one raw socket, a None as a half close
    (SHUT_WR); read until the server closes."""
    with socket.create_connection(server.address, timeout=5) as sock:
        for data in writes:
            if data is None:
                sock.shutdown(socket.SHUT_WR)
            else:
                sock.sendall(data)
            time.sleep(0.02)  # let the server see each write on its own
        received = b""
        while chunk := sock.recv(65536):
            received += chunk
    return received


def _responses(data):
    """Split raw bytes into (status, headers, body) messages."""
    out = []
    while data:
        head, _, data = data.partition(b"\r\n\r\n")
        status_line, *lines = head.decode("latin-1").split("\r\n")
        headers = dict(line.lower().split(": ", 1) for line in lines)
        size = int(headers["content-length"])
        out.append((int(status_line.split(" ")[1]), headers, data[:size]))
        data = data[size:]
    return out


def test_handler_bug_is_a_500_and_keeps_the_connection(raw_server, connects):
    transport = HttpTransport(clock=SimulatedClock())
    transport.register(raw_server.name, raw_server.address)
    try:
        response = transport.request(src="t", channel="mx2", method="GET",
                                     url="http://raw/boom")
        assert response.status == 500
        assert b"unhandled error" in response.body
        response = transport.request(src="t", channel="mx2", method="GET",
                                     url="http://raw/q?n=2")
        assert loads(raise_for_status(response).body) == {"n": "2"}
    finally:
        transport.close()
    assert len(connects) == 1


def test_request_split_over_small_writes_is_served(raw_server):
    writes = [b"POST /ec", b"ho HTTP/1.1\r\nhost: x\r", b"\ncontent-len", b"gth: 11\r\n",
              b"connection: close\r\n\r", b"\nhello", b" world"]
    [(status, _, body)] = _responses(_raw(raw_server, *writes))
    assert (status, body) == (200, b"hello world")


def test_pipelined_requests_are_answered_in_order(raw_server):
    both = (b"GET /q?n=1 HTTP/1.1\r\nhost: x\r\n\r\n"
            b"POST /echo HTTP/1.1\r\ncontent-length: 3\r\nconnection: close\r\n\r\ntwo")
    replies = _responses(_raw(raw_server, both))
    assert [(status, body) for status, _, body in replies] == [(200, b'{"n":"1"}'), (200, b"two")]


@pytest.mark.parametrize("head, status", [
    (b"GET /q HTTP/1.1\r\nx-pad: " + b"a" * MAX_HEAD_BYTES + b"\r\n\r\n", 431),
    (b"POST /echo HTTP/1.1\r\ncontent-length: %d\r\n\r\n" % (MAX_BODY_BYTES + 1), 413),
    (b"GET /q\r\n\r\n", 400),
    (b"GET /q HTTP/1.1 extra\r\n\r\n", 400),
    (b"GET /q HTTP/1.1\r\nno colon here\r\n\r\n", 400),
    (b"POST /echo HTTP/1.1\r\ncontent-length: ten\r\n\r\n", 400),
    (b"POST /echo HTTP/1.1\r\ncontent-length: -1\r\n\r\n", 400),
    # no blank line yet, and the connection stays open: the reader stops at the cap
    (b"GET /q HTTP/1.1\r\nx-pad: " + b"a" * MAX_HEAD_BYTES, 431),
    ((b"GET /q HTTP/1.1\r\nhost: x", None), 400),
    # read as content-length 0, the chunk would be the next request (RFC 9112 §6.1)
    (b"POST /echo HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n"
     b"5\r\nGET /\r\n0\r\n\r\n", 400),
    ((b"POST /echo HTTP/1.1\r\ncontent-length: 10\r\n\r\nabc", None), 400),
    (b"GET /q HTTP/1.1\r\nx-a :1\r\n\r\n", 400),
    (b"GET /q HTTP/1.1\r\nx-a: \x85\r\n\r\n", 400),
    (b"GET /q#f HTTP/1.1\r\n\r\n", 400),
    (b"GET /q HTTP/2.0\r\n\r\n", 400),
    (b"POST /echo HTTP/1.1\r\ncontent-length: 3\r\ncontent-length: 0\r\n\r\nabc", 400),
], ids=["long-head", "long-body", "two-part-line", "four-part-line", "no-colon",
        "word-length", "negative-length", "long-head-unended", "closed-inside-head",
        "chunked", "closed-inside-body", "space-before-colon", "non-ascii-value", "fragment",
        "version-2", "repeated-field"])
def test_hostile_request_is_answered_and_closed(raw_server, head, status):
    writes = head if isinstance(head, tuple) else (head,)
    [(got, headers, body)] = _responses(_raw(raw_server, *writes))  # _raw reads to EOF
    assert got == status
    assert headers["connection"] == "close"
    assert loads(body)["code"] == "malformed"
    # the server keeps serving other connections
    [(got, _, body)] = _responses(_raw(raw_server, b"GET /q?ok=1 HTTP/1.1\r\nconnection: close\r\n\r\n"))
    assert (got, body) == (200, b'{"ok":"1"}')


def test_request_method_is_matched_case_sensitively(raw_server):
    # the router has a `POST /echo` route; `post` is another method (RFC 9110 §9.1)
    reply = _raw(raw_server, b"post /echo HTTP/1.1\r\ncontent-length: 2\r\nconnection: close\r\n\r\nhi")
    [(status, _, body)] = _responses(reply)
    assert status == 404
    assert loads(body)["code"] == "not-found"
