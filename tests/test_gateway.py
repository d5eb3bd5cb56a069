from __future__ import annotations

import math
import sys
import threading
import uuid
from dataclasses import replace

import pytest

from edgeqkd import channel
from edgeqkd.channel import EncryptedEnvelope
from edgeqkd.errors import AlreadyConsumedError
from edgeqkd.harness import ScenarioConfig, Stack, run_scenario
from edgeqkd.host import BUILTIN_HANDLERS
from edgeqkd.transport import Router, WireResponse, error_response
from edgeqkd.wire import loads

from conftest import holds, iter_frames

SEED_HEX = "5a" * 32


def base_doc(**overrides):
    doc = {
        "qkd": {"seed": SEED_HEX, "rate_bits_per_sec": 0, "capacity_bits": 1 << 16},
        "catalog": [
            {"app_name": "fn-echo", "provider": "demo", "version": "1.0", "required_slots": 1},
            {"app_name": "fn-upper", "provider": "demo", "version": "1.0", "required_slots": 1},
            {"app_name": "fn-sum", "provider": "demo", "version": "1.0", "required_slots": 1},
        ],
        "hosts": [{"host_id": "edge-a", "total_slots": 4}],
        "bindings": [
            {"path_prefix": "/echo", "app_name": "fn-echo", "provider": "demo", "version": "1.0"},
            {"path_prefix": "/upper", "app_name": "fn-upper", "provider": "demo", "version": "1.0"},
            {"path_prefix": "/sum", "app_name": "fn-sum", "provider": "demo", "version": "1.0"},
        ],
        "policy": {"max_uses": 10, "max_age_sec": 3600},
        "workload": [],
        "clock": "simulated",
    }
    doc.update(overrides)
    return doc


def build(**overrides) -> Stack:
    return Stack.build(ScenarioConfig.from_doc(base_doc(**overrides)))


def count_frames(stack, channel, predicate):
    n = 0
    for record, frame in iter_frames(stack.transcript.records()):
        if record["channel"] == channel and predicate(frame):
            n += 1
    return n


def contexts_created(stack):
    return count_frames(stack, "mx2",
                        lambda f: f.kind == "RSP" and f.status == 201
                        and f.path.endswith("/app_contexts"))


def route_keys(stack):
    """The key_IDs the gateway's routes hold: one per established security context."""
    return [b.security.current_key_id for b in stack.gateway._bindings if b.security is not None]


def host_keys(stack):
    return len(stack.hosts["edge-a"]._store)


def keys_dispensed(stack):
    return count_frames(stack, "qkd",
                        lambda f: f.kind == "RSP" and f.status == 200
                        and f.path.endswith("/enc_keys"))


def test_first_request_costs_one_context_and_one_key():
    stack = build()
    response = stack.client_request("/echo", b"hi")
    assert response.status == 200 and response.body == b"hi"
    assert contexts_created(stack) == 1
    assert keys_dispensed(stack) == 1
    # the route's binding holds the endpoint its context was created for
    binding = stack.gateway.binding_for("/echo")
    context = stack.lcmp.get_context(binding.context_id)
    assert binding.endpoint_uri and binding.endpoint_uri == context.endpoint_uri


def test_routes_are_served_without_handshake_exchanges():
    # the gateway picks the suite itself; each envelope names its suite and key id
    stack = build()
    for path in ("/echo", "/upper", "/sum"):
        for _ in range(2):
            assert stack.client_request(path, b"[1]").status == 200
    assert count_frames(stack, "handshake", lambda f: True) == 0
    assert not any(f.path.startswith("/sae/") for _, f in iter_frames(stack.transcript.records()))


def test_second_request_reuses_everything():
    stack = build()
    stack.client_request("/echo", b"hi")
    response = stack.client_request("/echo", b"hi")
    assert response.status == 200 and response.body == b"hi"
    assert contexts_created(stack) == 1
    assert keys_dispensed(stack) == 1  # max_uses=10: no refresh yet


def test_unbound_path_is_no_route():
    stack = build()
    response = stack.client_request("/not-bound", b"x")
    assert response.status == 404
    assert b"no-route" in response.body


def test_prefix_matching_allows_subpaths():
    stack = build()
    assert stack.client_request("/echo/deeper/path", b"q").status == 200
    assert stack.client_request("/echoes", b"q").status == 404


def test_app_not_found_is_404_before_any_context():
    doc = base_doc()
    doc["bindings"] = [{"path_prefix": "/ghost", "app_name": "fn-ghost",
                        "provider": "demo", "version": "1.0"}]
    doc["catalog"].append({"app_name": "fn-ghost", "provider": "demo", "version": "9.9",
                           "required_slots": 1, "handler": "fn-echo"})
    stack = Stack.build(ScenarioConfig.from_doc(doc))
    response = stack.client_request("/ghost", b"x")
    assert response.status == 404
    assert b"app-not-found" in response.body
    assert contexts_created(stack) == 0  # discovery miss precedes context creation


def test_capacity_exhausted_maps_503():
    doc = base_doc(hosts=[{"host_id": "edge-a", "total_slots": 1}])
    doc["catalog"] = [
        {"app_name": "fn-echo", "provider": "demo", "version": "1.0",
         "required_slots": 1, "shareable": False},
        {"app_name": "fn-upper", "provider": "demo", "version": "1.0", "required_slots": 1},
    ]
    doc["bindings"] = [
        {"path_prefix": "/echo", "app_name": "fn-echo", "provider": "demo", "version": "1.0"},
        {"path_prefix": "/upper", "app_name": "fn-upper", "provider": "demo", "version": "1.0"},
    ]
    stack = Stack.build(ScenarioConfig.from_doc(doc))
    assert stack.client_request("/echo", b"a").status == 200
    response = stack.client_request("/upper", b"b")
    assert response.status == 503
    assert b"capacity-exhausted" in response.body


def test_key_exhausted_maps_503_with_retry_after():
    doc = base_doc(qkd={"seed": SEED_HEX, "rate_bits_per_sec": 0, "capacity_bits": 256},
                   policy={"max_uses": 1, "max_age_sec": 3600})
    stack = Stack.build(ScenarioConfig.from_doc(doc))
    assert stack.client_request("/echo", b"a").status == 200
    response = stack.client_request("/echo", b"b")
    assert response.status == 503
    assert b"key-exhausted" in response.body
    assert "retry-after" in response.headers


def test_teardown_purges_and_reestablishes():
    stack = build()
    stack.client_request("/echo", b"one")
    binding = stack.gateway.binding_for("/echo")
    old_context = binding.context_id
    old_key = binding.security.current_key_id
    stack.gateway.teardown(binding)
    assert binding.context_id is None and binding.security is None
    assert route_keys(stack) == []
    assert host_keys(stack) == 0  # the context's detach dropped its key on the host
    response = stack.client_request("/echo", b"two")
    assert response.status == 200 and response.body == b"two"
    assert binding.context_id != old_context
    assert binding.security.current_key_id != old_key
    assert contexts_created(stack) == 2
    # double teardown: success with a warning, no raise
    stack.gateway.teardown(binding)
    stack.gateway.teardown(binding)


def test_client_store_holds_one_key_per_route():
    # each rollover drops the retired key; teardown drops the current one
    stack = build(policy={"max_uses": 1, "max_age_sec": 3600})
    for i in range(20):
        assert stack.client_request("/echo", b"m%d" % i).status == 200
    assert keys_dispensed(stack) == 20
    assert len(route_keys(stack)) == 1
    stack.gateway.teardown(stack.gateway.binding_for("/echo"))
    assert route_keys(stack) == []


def test_deleted_context_leaves_no_key_on_the_host():
    stack = build(policy={"max_uses": 2, "max_age_sec": 3600})
    served = []
    for path in ("/echo", "/echo", "/echo", "/upper"):
        assert stack.client_request(path, b"text").status == 200
        served.append(stack.gateway.binding_for(path).security.current_key_id)
    binding = stack.gateway.binding_for("/echo")
    # the first /echo key left on its second use; the second /echo key and
    # the /upper key each have a use still due
    assert host_keys(stack) == 2
    stack.lcmp.delete_context(binding.context_id)
    assert host_keys(stack) == 1
    assert holds(stack.hosts["edge-a"]._store, served[-1])  # the /upper key stays


def test_rekey_soak_keeps_key_state_flat():
    # with max_uses=1 every request uses a fresh key: the host drops it on
    # that one use, the gateway keeps the current one
    stack = build(policy={"max_uses": 1, "max_age_sec": 3600},
                  qkd={"seed": SEED_HEX, "rate_bits_per_sec": 0, "capacity_bits": 1 << 20})
    for i in range(2000):
        assert stack.client_request("/echo", b"m%d" % i).status == 200
    assert keys_dispensed(stack) == 2000
    assert host_keys(stack) == 0
    assert len(route_keys(stack)) == 1


def test_reply_under_another_key_is_refused():
    # with the pad suite the reply's bytes would open under the request's pad
    # whatever key_ID it names, so the gateway must compare the key_IDs
    stack = build(offered_suites=[2])
    assert stack.client_request("/echo", b"first").status == 200
    host_router = stack.hosts["edge-a"].router()

    def relabel(request, segment):
        response = host_router.dispatch(request)
        reply = EncryptedEnvelope.from_bytes(response.body)
        other = replace(reply, key_id=str(uuid.uuid4()))
        return WireResponse(status=response.status, headers=response.headers,
                            body=other.to_bytes())

    stub = Router()
    stub.add("POST", "/apps/{segment}/invoke", relabel)
    stack.transport._peers["edge-a"] = stub  # the stub answers as the host
    response = stack.client_request("/echo", b"second")
    assert response.status == 502
    assert loads(response.body)["code"] == "auth-failure"


def test_key_bound_to_another_context_is_rolled_over_once():
    stack = build()
    assert stack.client_request("/echo", b"first").status == 200
    binding = stack.gateway.binding_for("/echo")
    ctx = binding.security
    other = str(uuid.uuid4())
    stack.hosts["edge-a"].attach_context(binding.endpoint_uri, other)
    # the route's next key reaches the host first in an envelope sent under
    # the other context's header, which binds the key there
    channel.retire(ctx, ctx.current_key_id)
    copy = channel.encrypt(ctx, b"copy", stack.gateway._kme, clock=stack.clock)
    response = stack.transport.request(
        src="gateway", channel="data", method="POST", url=binding.endpoint_uri + "/invoke",
        body=copy.to_bytes(), headers={"x-app-context-id": other})
    assert response.status == 200
    dispensed = keys_dispensed(stack)
    response = stack.client_request("/echo", b"genuine")
    assert response.status == 200 and response.body == b"genuine"
    assert ctx.current_key_id != copy.key_id
    assert keys_dispensed(stack) == dispensed + 1  # one rollover, no rebuild
    assert contexts_created(stack) == 1


def test_key_the_host_never_obtains_is_a_404_after_one_retry():
    # the host's KME refuses every dec_keys: both attempts get 404
    stack = build()
    stub = Router()
    stub.add("POST", "/api/v1/keys/{peer}/dec_keys",
             lambda request, peer: error_response(AlreadyConsumedError("refused")))
    stack.transport._peers["kme-mec"] = stub  # the stub answers as the host's KME
    response = stack.client_request("/echo", b"never served")
    assert response.status == 404
    assert loads(response.body)["code"] == "unknown-key-id"
    assert keys_dispensed(stack) == 2  # the retry rolled the key over once


@pytest.mark.parametrize("mode", ["inproc", "http"])
def test_replayed_invoke_is_refused_on_both_transports(mode):
    stack = build(transport=mode)
    try:
        handlers = stack.hosts["edge-a"]._handlers  # looked up when the route's app deploys
        calls = []
        handlers["fn-echo"] = lambda body: calls.append(body) or body
        assert stack.client_request("/echo", b"served once").status == 200
        captured = next(frame for record, frame in iter_frames(stack.transcript.records())
                        if record["channel"] == "data" and frame.kind == "REQ")
        replayed = stack.transport.request(
            src="gateway", channel="data", method="POST",
            url=stack.gateway.binding_for("/echo").endpoint_uri + "/invoke",
            body=captured.body, headers=captured.headers)
    finally:
        stack.stop()
    assert replayed.status == 404
    assert loads(replayed.body)["code"] == "unknown-key-id"
    assert "x-envelope" not in replayed.headers
    assert calls == [b"served once"]


@pytest.mark.parametrize("suite, max_uses", [(1, 1), (1, 3), (2, 1), (2, 3)])
def test_lanes_in_flight_are_served_under_forced_thread_switches(suite, max_uses):
    # the gateway encrypts under the route's lock and sends outside it, so
    # envelopes of several keys reach the host out of order
    lanes, repeat = 4, 60
    doc = base_doc(
        clock="real", offered_suites=[suite],
        policy={"max_uses": max_uses, "max_age_sec": 3600},
        qkd={"seed": SEED_HEX, "rate_bits_per_sec": 0, "capacity_bits": 1 << 20},
        workload=[{"path": path, "body": "in flight", "repeat": repeat, "concurrency": lanes}
                  for path in ("/echo", "/upper")])
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        result = run_scenario(ScenarioConfig.from_doc(doc))
    finally:
        sys.setswitchinterval(interval)
    host_404s = sum(record["channel"] == "data" and frame.status == 404
                    for record, frame in iter_frames(result.records))
    assert host_404s == 0
    assert result.metrics.requests_ok == result.metrics.requests_total == 2 * lanes * repeat
    uses = 1 if suite == 2 else max_uses  # a pad serves one request
    assert result.metrics.qkd_keys_consumed == 2 * math.ceil(lanes * repeat / uses)  # C5


def test_delete_behind_gateways_back_triggers_reestablishment():
    stack = build()
    stack.client_request("/echo", b"one")
    binding = stack.gateway.binding_for("/echo")
    old_context = binding.context_id
    stack.lcmp.delete_context(old_context)
    response = stack.client_request("/echo", b"two")
    assert response.status == 200 and response.body == b"two"
    assert binding.context_id != old_context


def test_invoking_deleted_context_is_rejected_at_host():
    stack = build()
    stack.client_request("/echo", b"one")
    binding = stack.gateway.binding_for("/echo")
    endpoint = binding.endpoint_uri
    context_id = binding.context_id
    stack.lcmp.delete_context(context_id)
    # a stale caller that skips the gateway re-establishment is refused
    from edgeqkd import channel

    envelope = channel.encrypt(binding.security, b"stale", None, clock=stack.clock)
    response = stack.transport.request(
        src="gateway", channel="data", method="POST", url=endpoint + "/invoke",
        body=envelope.to_bytes(), headers={"x-app-context-id": context_id},
    )
    assert response.status in (404, 410)  # undeployed or rejected as deleted


def test_transparency_against_direct_handlers():
    stack = build()
    cases = [
        ("/echo", "fn-echo", b"\x00\x01binary\xff"),
        ("/upper", "fn-upper", b"to upper case"),
        ("/sum", "fn-sum", b"[5,6,7]"),
    ]
    for path, handler, body in cases:
        response = stack.client_request(path, body)
        assert response.status == 200
        assert response.body == BUILTIN_HANDLERS[handler](body)


def test_concurrent_first_requests_single_flight():
    stack = build(clock="real")  # threads need a real clock
    barrier = threading.Barrier(6)
    results = []
    lock = threading.Lock()

    def worker(i):
        barrier.wait()
        response = stack.client_request("/echo", b"req-%d" % i)
        with lock:
            results.append((response.status, response.body))

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(6)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert all(status == 200 for status, _ in results)
    assert sorted(body for _, body in results) == sorted(b"req-%d" % i for i in range(6))
    assert contexts_created(stack) == 1
    assert keys_dispensed(stack) == 1


def test_auth_token_checked_when_configured():
    stack = build(auth_token="letmein")
    denied = stack.transport.request(src="client", channel="client", method="POST",
                                     url="http://gateway/echo", body=b"x")
    assert denied.status == 401
    allowed = stack.transport.request(
        src="client", channel="client", method="POST",
        url="http://gateway/echo", body=b"x",
        headers={"authorization": "Bearer letmein"},
    )
    assert allowed.status == 200
    # the stack's own client requests carry the configured token
    assert stack.client_request("/echo", b"x").status == 200


def test_auth_token_refuses_a_near_miss():
    stack = build(auth_token="letmein")
    for authorization in ("Bearer letmeim", "Bearer letme", "Bearer letmein2", ""):
        denied = stack.transport.request(
            src="client", channel="client", method="POST",
            url="http://gateway/echo", body=b"x",
            headers={"authorization": authorization},
        )
        assert denied.status == 401, authorization


def test_gateway_router_rejects_non_post():
    stack = build()
    response = stack.transport.request(src="client", channel="client", method="GET",
                                       url="http://gateway/echo")
    assert response.status == 405


def test_unreachable_control_plane_maps_502():
    stack = build()
    stack.gateway._mx2._base = "http://lcmp-gone"  # sever the control plane
    response = stack.client_request("/echo", b"x")
    assert response.status == 502
    assert b"peer-unreachable" in response.body


def test_client_facing_response_has_no_protocol_headers():
    stack = build()
    response = stack.client_request("/echo", b"clean surface")
    assert response.body == b"clean surface"
    assert not any(name.startswith("x-") for name in response.headers)
