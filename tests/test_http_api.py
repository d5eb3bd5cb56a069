"""Wire-format checks over real loopback HTTP."""

from __future__ import annotations

import http.client
import re
import sys
import threading

import pytest

from edgeqkd.clock import SimulatedClock, SystemClock
from edgeqkd.errors import AlreadyConsumedError, KeyExhaustedError, UnknownPeerError
from edgeqkd.harness import ScenarioConfig, Stack, run_scenario
from edgeqkd.httpd import ComponentHttpServer, HttpTransport
from edgeqkd.kme import KmeApi, KmeClient, new_kme_pair
from edgeqkd.transport import (
    Router,
    iter_frames,
    json_response,
    raise_for_status,
)
from edgeqkd.wire import dumps, loads

SEED = b"\x77" * 32


@pytest.fixture
def kme_servers():
    clock = SystemClock()
    master, slave = new_kme_pair(SEED, 0, 1 << 16, clock=clock)
    s_master = ComponentHttpServer("kme-client", KmeApi(master).router()).start()
    s_slave = ComponentHttpServer("kme-mec", KmeApi(slave).router()).start()
    transport = HttpTransport(clock=clock)
    yield master, slave, s_master, s_slave, transport
    transport.close()
    s_master.stop()
    s_slave.stop()


def test_kme_rest_roundtrip(kme_servers):
    master, slave, s_master, s_slave, transport = kme_servers
    client = KmeClient(transport, src="gateway", base_url=s_master.base_url, channel="qkd")
    mec = KmeClient(transport, src="edge-a", base_url=s_slave.base_url, channel="qkd")

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
    client = KmeClient(transport, src="gateway", base_url=s_master.base_url, channel="qkd")
    with pytest.raises(UnknownPeerError):
        client.get_status("sae-wrong")
    with pytest.raises(KeyExhaustedError):
        client.get_enc_keys("sae-mec", size=1 << 16, number=2)
    # raw response carries the symbolic code
    response = transport.request(
        src="t", channel="qkd", method="POST",
        url=s_master.base_url + "/api/v1/keys/sae-mec/enc_keys",
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
        lcmp_url = next(s.base_url for s in stack.servers if s.name == "lcmp")
        response = raise_for_status(stack.transport.request(
            src="client", channel="mx2", method="GET",
            url=lcmp_url + "/dev_app/v1/app_list", query={"appName": "fn-echo"},
        ))
        assert loads(response.body)["app_list"][0]["app_name"] == "fn-echo"

        assert stack.client_request("/echo", b"ping").body == b"ping"
        binding = stack.gateway.binding_for("/echo")
        assert binding.endpoint_uri.startswith("http://127.0.0.1:")
        health = stack.transport.request(src="client", channel="data", method="GET",
                                         url=binding.endpoint_uri + "/healthz")
        assert health.status == 200

        # context delete over real HTTP (204, empty body), then re-establishment
        from edgeqkd.control import Mx2Client

        mx2 = Mx2Client(stack.transport, src="client", base_url=lcmp_url)
        mx2.delete_context(binding.context_id)
        assert stack.client_request("/echo", b"pong").body == b"pong"
    finally:
        stack.stop()


def test_http_transport_unreachable_peer():
    from edgeqkd.errors import PeerUnreachableError

    transport = HttpTransport(clock=SimulatedClock(), timeout=0.5)
    with pytest.raises(PeerUnreachableError):
        transport.request(src="x", channel="qkd", method="GET",
                          url="http://127.0.0.1:9/api/v1/keys/s/status")


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
        # only the loopback ports may differ between runs
        runs.append([{**record, "payload_b64": re.sub(rb"127\.0\.0\.1:\d+", b"127.0.0.1:PORT",
                                                       record.payload)}
                     for record in result.records])
    assert runs[0] == runs[1]


@pytest.mark.parametrize("value", ["x&b=y", "hello world"])
def test_http_query_values_are_percent_encoded(value):
    router = Router()
    router.add("GET", "/q", lambda request: json_response(200, request.query))
    server = ComponentHttpServer("echo-query", router).start()
    transport = HttpTransport(clock=SimulatedClock())
    try:
        response = transport.request(src="t", channel="mx2", method="GET",
                                     url=server.base_url + "/q", query={"a": value})
        assert loads(raise_for_status(response).body) == {"a": value}
    finally:
        transport.close()
        server.stop()


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
    """Counts the TCP connections every HTTPConnection opens."""
    opened = []
    connect = http.client.HTTPConnection.connect

    def counted(self):
        opened.append(self.host)
        return connect(self)

    monkeypatch.setattr(http.client.HTTPConnection, "connect", counted)
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
    before = threading.enumerate()
    try:
        assert transport.request(src="t", channel="mx2", method="GET",
                                 url=server.base_url + "/n").status == 200
        handlers = _new_threads(before)
        # the server closes the idle connection the transport has pooled
        server._server.end_connections()
        for thread in handlers:
            thread.join(timeout=5)
            assert not thread.is_alive()
        response = transport.request(src="t", channel="mx2", method="GET",
                                     url=server.base_url + "/n")
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
    assert transport.request(src="t", channel="mx2", method="GET",
                             url=server.base_url + "/healthz").status == 404
    started = _new_threads(before)
    assert any(t.name == "httpd-linger" for t in started) and len(started) >= 2
    stopper = threading.Thread(target=server.stop, daemon=True)
    stopper.start()
    stopper.join(timeout=5)
    assert not stopper.is_alive()
    for thread in started:
        thread.join(timeout=2)
    assert not [t.name for t in started if t.is_alive()]
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
