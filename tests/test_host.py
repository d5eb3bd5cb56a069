from __future__ import annotations

import base64
import sys
import threading
import time
import uuid
from dataclasses import replace

import pytest

from edgeqkd import channel
from edgeqkd.channel import EncryptedEnvelope, RefreshPolicy, establish_context
from edgeqkd.clock import SimulatedClock
from edgeqkd.control import AppInfo
from edgeqkd.errors import (
    CapacityExhaustedError,
    NotFoundError,
    UnknownAppImageError,
)
from edgeqkd.host import BUILTIN_HANDLERS, MecHost
from edgeqkd.keystore import KeyStore
from edgeqkd.kme import KmeApi, KmeClient, new_kme_pair
from edgeqkd.transport import InprocTransport, raise_for_status
from edgeqkd.wire import dumps, loads

from conftest import holds

SEED = b"\x33" * 32
CTX = "11111111-2222-4333-8444-555555555555"


def build_host(clock=None, slots=4, max_age=3600.0, handlers=None, max_uses=10):
    clock = clock or SimulatedClock()
    transport = InprocTransport(clock=clock)
    master, slave = new_kme_pair(SEED, 0, 1 << 20, clock=clock)
    transport.register("kme-mec", KmeApi(slave).router())
    host = MecHost("edge-a", slots, base_url="http://edge-a", sae_id="sae-mec",
                   kme=KmeClient(transport, src="edge-a", base_url="http://kme-mec",
                                 channel="qkd"),
                   key_store=KeyStore(clock, RefreshPolicy(max_uses, max_age)), transport=transport,
                   handlers=handlers)
    transport.register("edge-a", host.router())
    return host, master, transport, clock


def client_side(master, clock, policy=None, suite=1):
    ctx = establish_context(
        "sae-client", "sae-mec", [suite], master, policy or RefreshPolicy(10, 3600), clock=clock,
    )
    return ctx, master


def app_doc(name="fn-echo", slots=1):
    return {"app_name": name, "provider": "demo", "version": "1.0", "required_slots": slots}


def app(name="fn-echo", slots=1):
    return AppInfo.from_doc(app_doc(name, slots))


def recording_handler(delay=0.0):
    calls = []

    def handler(body):
        calls.append(body)
        time.sleep(delay)
        return body

    return handler, calls


def test_deploy_assigns_sequential_uris():
    host, *_ = build_host()
    inst = host.deploy(app(), "fn-echo", None, CTX)
    assert inst.uri == "http://edge-a/apps/fn-echo-1"
    inst2 = host.deploy(app(), "fn-echo", None, CTX)
    assert inst2.uri == "http://edge-a/apps/fn-echo-2"
    assert host.used_slots == 2


def test_deploy_full_host():
    host, *_ = build_host(slots=1)
    host.deploy(app(), "fn-echo", None, CTX)
    with pytest.raises(CapacityExhaustedError):
        host.deploy(app(), "fn-echo", None, CTX)


def test_deploy_unknown_image():
    host, *_ = build_host()
    with pytest.raises(UnknownAppImageError):
        host.deploy(app("fn-mystery"), "fn-mystery", None, CTX)


def invoke(host, transport, inst, envelope, context_id=CTX):
    return transport.request(
        src="gateway", channel="data", method="POST", url=inst.uri + "/invoke",
        body=envelope.to_bytes(),
        headers={"x-app-context-id": context_id, "content-type": "application/octet-stream"},
    )


def roundtrip(host, master, transport, clock, body, handler="fn-echo", policy=None, suite=1):
    inst = host.deploy(app(handler), handler, None, CTX)
    ctx, kme = client_side(master, clock, policy=policy, suite=suite)
    envelope = channel.encrypt(ctx, body, kme, clock=clock)
    response = invoke(host, transport, inst, envelope)
    reply = EncryptedEnvelope.from_bytes(response.body)
    plaintext = channel.decrypt(reply, ctx.key, response=True)
    return response, reply, plaintext, envelope


def test_invoke_echo_roundtrip():
    host, master, transport, clock = build_host()
    response, reply, plaintext, request = roundtrip(host, master, transport, clock, b"abc")
    assert response.status == 200
    assert plaintext == b"abc"
    assert reply.key_id == request.key_id  # reply sealed under the request key


def test_invoke_upper():
    host, master, transport, clock = build_host()
    _, _, plaintext, _ = roundtrip(host, master, transport, clock, b"qkd", handler="fn-upper")
    assert plaintext == b"QKD"


def test_invoke_sum():
    host, master, transport, clock = build_host()
    _, _, plaintext, _ = roundtrip(host, master, transport, clock, b"[1,2,3,4]", handler="fn-sum")
    assert plaintext == b"10"


def test_handler_error_is_encrypted():
    host, master, transport, clock = build_host()
    inst = host.deploy(app("fn-sum"), "fn-sum", None, CTX)
    ctx, kme = client_side(master, clock)
    secret = b"not json, secretly: hunter2-hunter2"
    envelope = channel.encrypt(ctx, secret, kme, clock=clock)
    response = invoke(host, transport, inst, envelope)
    assert response.status == 500
    assert response.headers.get("x-error-code") == "handler-error"
    assert response.headers.get("x-envelope") == "1"
    assert secret not in response.body  # failure detail leaves only sealed
    reply = EncryptedEnvelope.from_bytes(response.body)
    detail = loads(channel.decrypt(reply, ctx.key, response=True))
    assert detail["code"] == "handler-error"
    assert "not JSON" in detail["message"]  # the shape of every other error body


def test_invoke_requires_active_context():
    host, master, transport, clock = build_host()
    inst = host.deploy(app(), "fn-echo", None, CTX)
    ctx, kme = client_side(master, clock)
    envelope = channel.encrypt(ctx, b"x", kme, clock=clock)
    response = invoke(host, transport, inst, envelope, context_id="someone-else")
    assert response.status == 410
    assert b"context-deleted" in response.body
    host.detach_context(inst.uri, CTX)
    response = invoke(host, transport, inst, envelope)
    assert response.status == 410


def test_invoke_unknown_instance():
    host, master, transport, clock = build_host()
    ctx, kme = client_side(master, clock)
    envelope = channel.encrypt(ctx, b"x", kme, clock=clock)
    response = transport.request(
        src="gateway", channel="data", method="POST",
        url="http://edge-a/apps/ghost-9/invoke", body=envelope.to_bytes(),
        headers={"x-app-context-id": CTX},
    )
    assert response.status == 404


def test_consumed_and_evicted_key_is_unknown():
    clock = SimulatedClock()
    host, master, transport, _ = build_host(clock=clock, max_age=5.0)
    inst = host.deploy(app(), "fn-echo", None, CTX)
    ctx, kme = client_side(master, clock, policy=RefreshPolicy(100, 1e9))
    first = channel.encrypt(ctx, b"one", kme, clock=clock)
    assert invoke(host, transport, inst, first).status == 200
    clock.advance(6)  # host cache evicts; the entity already purged the key
    second = channel.encrypt(ctx, b"two", kme, clock=clock)
    response = invoke(host, transport, inst, second)
    assert response.status == 404
    assert b"unknown-key-id" in response.body


def test_single_flight_key_fetch():
    host, master, transport, clock = build_host()
    inst = host.deploy(app(), "fn-echo", None, CTX)
    ctx, kme = client_side(master, clock, policy=RefreshPolicy(100, 1e9))
    envelopes = [channel.encrypt(ctx, b"m%d" % i, kme, clock=clock) for i in range(6)]
    assert len({e.key_id for e in envelopes}) == 1  # same fresh key
    barrier = threading.Barrier(6)
    statuses = []
    lock = threading.Lock()

    def worker(envelope):
        barrier.wait()
        response = invoke(host, transport, inst, envelope)
        with lock:
            statuses.append(response.status)

    threads = [threading.Thread(target=worker, args=(e,)) for e in envelopes]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert statuses == [200] * 6
    assert host.dec_fetches == 1  # one consume-once fetch despite the race


def test_forged_suite_on_a_seen_key_does_not_block_the_genuine_request():
    # A caller who saw a key_ID sends it first under the one-time-pad suite
    # with an empty nonce. The key's length fixes its suite, so the forgery
    # fails and does not stop the genuine envelope from being served.
    host, master, transport, clock = build_host()
    inst = host.deploy(app(), "fn-echo", None, CTX)
    ctx, kme = client_side(master, clock)
    genuine = channel.encrypt(ctx, b"genuine request", kme, clock=clock)
    forged = EncryptedEnvelope(genuine.key_id, 2, b"", genuine.ciphertext, genuine.sender_sae)
    response = invoke(host, transport, inst, forged)
    assert response.status == 502
    assert b"auth-failure" in response.body
    response = invoke(host, transport, inst, genuine)
    assert response.status == 200
    reply = EncryptedEnvelope.from_bytes(response.body)
    assert channel.decrypt(reply, ctx.key, response=True) == b"genuine request"


def test_reflected_reply_is_refused():
    # A captured sealed reply POSTed back to /invoke authenticates under its
    # own sender. Opened as a request, its answer would be sealed under the
    # same key and the same nonce as the captured reply.
    host, master, transport, clock = build_host()
    response, _, plaintext, _ = roundtrip(host, master, transport, clock, b"[1,2,3]",
                                          handler="fn-sum")
    assert plaintext == b"6"
    (inst,) = host._instances.values()
    reflected = transport.request(
        src="gateway", channel="data", method="POST", url=inst.uri + "/invoke",
        body=response.body,
        headers={"x-app-context-id": CTX, "content-type": "application/octet-stream"},
    )
    assert reflected.status == 502
    assert b"auth-failure" in reflected.body
    assert "x-envelope" not in reflected.headers


def test_reflected_otp_reply_is_refused():
    # Opened as a request, a reflected pad reply would be answered under the
    # reply half of the pad again: the pad would serve a second exchange.
    host, master, transport, clock = build_host()
    response, _, plaintext, _ = roundtrip(host, master, transport, clock, b"one pad",
                                          suite=2)
    assert plaintext == b"one pad"
    (inst,) = host._instances.values()
    reflected = invoke(host, transport, inst, EncryptedEnvelope.from_bytes(response.body))
    assert reflected.status == 404
    assert b"unknown-key-id" in reflected.body
    assert "x-envelope" not in reflected.headers


def test_replayed_otp_request_is_refused():
    host, master, transport, clock = build_host()
    response, _, _, request = roundtrip(host, master, transport, clock, b"one pad", suite=2)
    assert response.status == 200
    (inst,) = host._instances.values()
    replayed = invoke(host, transport, inst, request)
    assert replayed.status == 404
    assert b"unknown-key-id" in replayed.body
    assert "x-envelope" not in replayed.headers


def test_concurrent_pad_envelopes_run_the_handler_once():
    # the pad is claimed before the handler runs, so of two copies of one pad
    # envelope in flight at once, exactly one reaches the handler
    handler, calls = recording_handler(delay=0.2)
    host, master, transport, clock = build_host(handlers={"fn-slow": handler})
    inst = host.deploy(app("fn-slow"), "fn-slow", None, CTX)
    ctx, kme = client_side(master, clock, suite=2)
    envelope = channel.encrypt(ctx, b"one pad", kme, clock=clock)
    barrier = threading.Barrier(2)
    responses = []
    lock = threading.Lock()

    def worker():
        barrier.wait(timeout=10)
        response = invoke(host, transport, inst, envelope)
        with lock:
            responses.append(response)

    threads = [threading.Thread(target=worker) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()
    responses.sort(key=lambda r: r.status)
    assert [r.status for r in responses] == [200, 404]
    assert b"unknown-key-id" in responses[1].body
    assert calls == [b"one pad"]


def test_each_pad_serves_one_request_under_contention():
    # eight threads each send every one of four pad envelopes, with frequent
    # thread switches: each pad reaches the handler once and is fetched once
    handler, calls = recording_handler()
    host, master, transport, clock = build_host(handlers={"fn-rec": handler})
    inst = host.deploy(app("fn-rec"), "fn-rec", None, CTX)
    ctx, kme = client_side(master, clock, suite=2)
    envelopes = [channel.encrypt(ctx, b"pad %d" % i, kme, clock=clock) for i in range(4)]
    barrier = threading.Barrier(8)
    statuses = []
    lock = threading.Lock()

    def worker(order):
        barrier.wait(timeout=10)
        for envelope in order:
            status = invoke(host, transport, inst, envelope).status
            with lock:
                statuses.append(status)

    threads = [threading.Thread(target=worker, args=(envelopes[i % 4:] + envelopes[:i % 4],))
               for i in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert sorted(statuses) == [200] * 4 + [404] * 28
    assert sorted(calls) == [b"pad %d" % i for i in range(4)]
    assert host.dec_fetches == 4


def _envelope_under_other_context_key(host, transport, inst, master, clock, ctx, kme):
    # key B belongs to a second context and was released to another caller
    other = establish_context("sae-client", "sae-mec", [1], kme, RefreshPolicy(10, 3600),
                              clock=clock)
    master.pair.release("sae-client", [other.current_key_id])
    envelope = channel.encrypt(ctx, b"addressed to context A!", kme, clock=clock)
    return EncryptedEnvelope(other.current_key_id, envelope.suite_id, envelope.nonce,
                             envelope.ciphertext, envelope.sender_sae)


def _envelope_under_unissued_key(host, transport, inst, master, clock, ctx, kme):
    envelope = channel.encrypt(ctx, b"no source", kme, clock=clock)
    return EncryptedEnvelope(str(uuid.uuid4()), envelope.suite_id, envelope.nonce,
                             envelope.ciphertext, envelope.sender_sae)


def _envelope_under_evicted_key(host, transport, inst, master, clock, ctx, kme):
    # the host fetched the key (the KME released it), then its key table
    # evicted it: nothing can open the next request or seal its reply
    first = channel.encrypt(ctx, b"first", kme, clock=clock)
    assert invoke(host, transport, inst, first).status == 200
    clock.advance(6)
    return channel.encrypt(ctx, b"second", kme, clock=clock)


def _envelope_already_served(host, transport, inst, master, clock, ctx, kme):
    # its use has arrived: the key stays for its other uses, and refuses this one
    envelope = channel.encrypt(ctx, b"once", kme, clock=clock)
    assert invoke(host, transport, inst, envelope).status == 200
    assert holds(host._store, envelope.key_id)
    return envelope


def _envelope_under_a_spent_key(host, transport, inst, master, clock, ctx, kme):
    # all ten uses of the key have arrived, so it left the host, and the KME
    # released it long ago
    envelopes = [channel.encrypt(ctx, b"use %d" % i, kme, clock=clock) for i in range(10)]
    for envelope in reversed(envelopes):
        assert invoke(host, transport, inst, envelope).status == 200
    assert not holds(host._store, envelopes[0].key_id)
    return envelopes[-1]


def _envelope_beyond_max_uses(host, transport, inst, master, clock, ctx, kme):
    # authentic, from a client whose policy allows more uses than the host's
    ctx.policy = RefreshPolicy(11, 3600)
    ctx.uses = 10
    return channel.encrypt(ctx, b"use 10", kme, clock=clock)


@pytest.mark.parametrize("make_envelope", [
    _envelope_under_other_context_key,
    _envelope_under_unissued_key,
    _envelope_under_evicted_key,
    _envelope_already_served,
    _envelope_under_a_spent_key,
    _envelope_beyond_max_uses,
], ids=["other-context", "no-source", "evicted", "replayed", "spent", "beyond-max-uses"])
def test_unobtainable_key_is_unknown_and_runs_no_handler(make_envelope):
    handler, calls = recording_handler()
    host, master, transport, clock = build_host(max_age=5.0, handlers={"fn-rec": handler})
    inst = host.deploy(app("fn-rec"), "fn-rec", None, CTX)
    ctx, kme = client_side(master, clock)
    envelope = make_envelope(host, transport, inst, master, clock, ctx, kme)
    handled = len(calls)
    response = invoke(host, transport, inst, envelope)
    assert response.status == 404
    assert loads(response.body)["code"] == "unknown-key-id"
    assert "x-envelope" not in response.headers
    assert len(calls) == handled


def test_keys_in_flight_survive_a_rollover():
    # max_uses=2: the first uses of three keys arrive, then the second use of
    # the first key, which still serves; the host fetches no key twice
    handler, calls = recording_handler()
    host, master, transport, clock = build_host(max_uses=2, handlers={"fn-rec": handler})
    inst = host.deploy(app("fn-rec"), "fn-rec", None, CTX)
    ctx, kme = client_side(master, clock, policy=RefreshPolicy(2, 3600))
    first_key = [channel.encrypt(ctx, b"K1 use %d" % i, kme, clock=clock) for i in range(2)]
    firsts = [first_key[0]]
    for n in (2, 3):
        firsts.append(channel.encrypt(ctx, b"K%d use 0" % n, kme, clock=clock))
        ctx.uses = ctx.policy.max_uses  # roll over on the next encryption
    assert len({e.key_id for e in firsts}) == 3
    for envelope in firsts + first_key[1:]:
        response = invoke(host, transport, inst, envelope)
        assert response.status == 200, response.body
    assert host.dec_fetches == 3
    assert len(calls) == 4
    assert not holds(host._store, first_key[0].key_id)  # its last use has arrived
    assert holds(host._store, firsts[2].key_id)


def test_a_policy_that_rotates_by_age_only_serves():
    # max_uses far beyond any run: the host's record of a key's uses stays small
    policy = RefreshPolicy(2**36, 3600)
    host, master, transport, clock = build_host(max_uses=policy.max_uses)
    inst = host.deploy(app(), "fn-echo", None, CTX)
    ctx, kme = client_side(master, clock, policy=policy)
    envelopes = [channel.encrypt(ctx, b"use %d" % i, kme, clock=clock) for i in range(3)]
    for envelope in envelopes:
        assert invoke(host, transport, inst, envelope).status == 200
    assert invoke(host, transport, inst, envelopes[1]).status == 404  # a replay
    entry = host._store.get(envelopes[0].key_id)
    assert (entry.floor, entry.ahead) == (3, set())


def _sealed_with_nonce(nonce):
    def make(genuine, key):
        aad = channel._aad(genuine.key_id, 1, genuine.sender_sae)
        return EncryptedEnvelope(genuine.key_id, 1, nonce,
                                 key.aead.encrypt(nonce, b"genuine", aad), genuine.sender_sae)
    return make


@pytest.mark.parametrize("make", [
    # sealed under the key: without the length check these would authenticate
    _sealed_with_nonce(b"\x00" * 8),
    _sealed_with_nonce(b"\x00" * 13),
    lambda genuine, key: replace(genuine, nonce=b""),
    lambda genuine, key: replace(genuine, suite_id=7),
], ids=["8-byte-nonce", "13-byte-nonce", "no-nonce", "unknown-suite"])
def test_malformed_envelope_runs_no_handler_and_records_no_use(make):
    handler, calls = recording_handler()
    host, master, transport, clock = build_host(handlers={"fn-rec": handler})
    inst = host.deploy(app("fn-rec"), "fn-rec", None, CTX)
    ctx, kme = client_side(master, clock)
    genuine = channel.encrypt(ctx, b"genuine", kme, clock=clock)
    response = invoke(host, transport, inst, make(genuine, ctx.key))
    assert (response.status, loads(response.body)["code"]) == (400, "malformed")
    assert calls == []
    entry = host._store.get(genuine.key_id)
    assert (entry.floor, entry.ahead) == (0, set())  # fetched, no use recorded
    assert invoke(host, transport, inst, genuine).status == 200


OTHER_CTX = "99999999-2222-4333-8444-555555555555"


def two_contexts_on_one_instance():
    handler, calls = recording_handler()
    host, master, transport, clock = build_host(handlers={"fn-rec": handler})
    inst = host.deploy(app("fn-rec"), "fn-rec", None, CTX)
    host.attach_context(inst.uri, OTHER_CTX)
    ctx, kme = client_side(master, clock)
    return host, transport, clock, inst, ctx, kme, calls


def test_key_bound_to_another_context_is_refused_and_kept():
    host, transport, clock, inst, ctx, kme, calls = two_contexts_on_one_instance()
    first = channel.encrypt(ctx, b"as context A", kme, clock=clock)
    assert invoke(host, transport, inst, first).status == 200  # binds the key to CTX
    second = channel.encrypt(ctx, b"as context B", kme, clock=clock)
    response = invoke(host, transport, inst, second, context_id=OTHER_CTX)
    assert response.status == 404
    assert loads(response.body)["code"] == "unknown-key-id"
    assert "x-envelope" not in response.headers
    assert calls == [b"as context A"]
    # the key still serves its own context
    assert host._store.get(first.key_id).context_id == CTX
    third = channel.encrypt(ctx, b"as context A again", kme, clock=clock)
    response = invoke(host, transport, inst, third)
    assert response.status == 200
    reply = EncryptedEnvelope.from_bytes(response.body)
    assert channel.decrypt(reply, ctx.key, response=True) == b"as context A again"


def test_copy_under_another_contexts_header_that_arrives_first_takes_the_key():
    # nothing authenticates the context header, so the copy binds the key to
    # the context it names, and the genuine request is refused (the gateway
    # then rolls its key over, see test_gateway)
    host, transport, clock, inst, ctx, kme, calls = two_contexts_on_one_instance()
    first = channel.encrypt(ctx, b"first request", kme, clock=clock)
    assert invoke(host, transport, inst, first, context_id=OTHER_CTX).status == 200
    response = invoke(host, transport, inst, first)
    assert response.status == 404
    assert loads(response.body)["code"] == "unknown-key-id"
    assert calls == [b"first request"]
    assert host._store.get(first.key_id).context_id == OTHER_CTX


def test_racing_first_uses_under_two_contexts_serve_one(monkeypatch):
    host, transport, clock, inst, ctx, kme, calls = two_contexts_on_one_instance()
    first = channel.encrypt(ctx, b"first request", kme, clock=clock)
    both_opened = threading.Barrier(2, timeout=10)
    real_decrypt = channel.decrypt

    def decrypt_then_wait(*args, **kwargs):
        plaintext = real_decrypt(*args, **kwargs)
        both_opened.wait()  # neither request has bound the key yet
        return plaintext

    monkeypatch.setattr(channel, "decrypt", decrypt_then_wait)
    statuses = {}

    def send(context_id):
        statuses[context_id] = invoke(host, transport, inst, first, context_id=context_id).status

    threads = [threading.Thread(target=send, args=(c,)) for c in (CTX, OTHER_CTX)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
        assert not thread.is_alive()
    bound = host._store.get(first.key_id).context_id
    assert statuses[bound] == 200  # the one served binds the key
    assert sorted(statuses.values()) == [200, 404]
    assert calls == [b"first request"]


def test_context_detached_while_the_envelope_opens_is_refused(monkeypatch):
    handler, calls = recording_handler()
    host, master, transport, clock = build_host(handlers={"fn-rec": handler})
    inst = host.deploy(app("fn-rec"), "fn-rec", None, CTX)
    ctx, kme = client_side(master, clock)
    envelope = channel.encrypt(ctx, b"late", kme, clock=clock)
    real_decrypt = channel.decrypt

    def decrypt_then_detach(*args, **kwargs):
        plaintext = real_decrypt(*args, **kwargs)
        host.detach_context(inst.uri, CTX)
        return plaintext

    monkeypatch.setattr(channel, "decrypt", decrypt_then_detach)
    response = invoke(host, transport, inst, envelope)
    assert response.status == 410
    assert calls == []
    assert host._store.get(envelope.key_id) is None  # the key it fetched left with it
    assert len(host._store) == 0


def test_malformed_envelope_consumes_no_key():
    host, master, transport, clock = build_host()
    inst = host.deploy(app(), "fn-echo", None, CTX)
    ctx, kme = client_side(master, clock)
    genuine = channel.encrypt(ctx, b"genuine request", kme, clock=clock)
    legacy_json = dumps({
        "key_ID": genuine.key_id, "cipher_suite": genuine.suite_id,
        "nonce": base64.b64encode(genuine.nonce).decode(),
        "ciphertext": base64.b64encode(genuine.ciphertext).decode(),
        "sender": genuine.sender_sae,
    })
    for body in (genuine.to_bytes()[:20], legacy_json):
        response = transport.request(
            src="gateway", channel="data", method="POST", url=inst.uri + "/invoke",
            body=body, headers={"x-app-context-id": CTX},
        )
        assert response.status == 400
        assert b"malformed" in response.body
    assert host.dec_fetches == 0
    assert master.pair.holds_material(genuine.key_id)
    response = invoke(host, transport, inst, genuine)
    assert response.status == 200


def test_key_obtainable_from_exactly_one_place():
    host, master, transport, clock = build_host()
    inst = host.deploy(app(), "fn-echo", None, CTX)
    ctx, kme = client_side(master, clock)
    envelope = channel.encrypt(ctx, b"x", kme, clock=clock)
    key_id = envelope.key_id
    assert master.pair.holds_material(key_id)      # before: entity only
    assert not holds(host._store, key_id)
    invoke(host, transport, inst, envelope)
    assert not master.pair.holds_material(key_id)  # after: host key table only
    assert holds(host._store, key_id)


def test_chained_hop():
    host, master, transport, clock = build_host()
    target = host.deploy(app("fn-upper"), "fn-upper", None, OTHER_CTX)
    inst = host.deploy(app("fn-echo"), "fn-echo", target.uri, CTX)
    ctx, kme = client_side(master, clock)
    # the hop serves only a context attached to it as well
    envelope = channel.encrypt(ctx, b"chained text", kme, clock=clock)
    response = invoke(host, transport, inst, envelope)
    assert (response.status, response.headers["x-error-code"]) == (500, "handler-error")
    host.attach_context(target.uri, CTX)
    envelope = channel.encrypt(ctx, b"chained text", kme, clock=clock)
    response = invoke(host, transport, inst, envelope)
    assert response.status == 200
    reply = EncryptedEnvelope.from_bytes(response.body)
    assert channel.decrypt(reply, ctx.key, response=True) == b"CHAINED TEXT"


def invoke_plain(transport, inst, body, context_id):
    headers = {"x-app-context-id": context_id} if context_id is not None else None
    return transport.request(src="gateway", channel="data", method="POST",
                             url=inst.uri + "/invoke_plain", body=body, headers=headers)


@pytest.mark.parametrize("context_id", [None, "", OTHER_CTX, CTX],
                         ids=["no-header", "empty", "other-instances-context", "detached"])
def test_invoke_plain_runs_nothing_without_an_active_context(context_id):
    handler, calls = recording_handler()
    host, _, transport, _ = build_host(handlers={"fn-echo": handler})
    inst = host.deploy(app(), "fn-echo", None, CTX)
    host.deploy(app(), "fn-echo", None, OTHER_CTX)
    host.detach_context(inst.uri, CTX)
    response = invoke_plain(transport, inst, b"in the clear", context_id)
    assert response.status == 410
    assert loads(response.body)["code"] == "context-deleted"
    assert calls == []


def test_invoke_plain_serves_an_active_context():
    handler, calls = recording_handler()
    host, _, transport, _ = build_host(handlers={"fn-echo": handler})
    inst = host.deploy(app(), "fn-echo", None, CTX)
    response = invoke_plain(transport, inst, b"in the clear", CTX)
    assert (response.status, response.body) == (200, b"in the clear")
    assert calls == [b"in the clear"]


def test_healthz_and_undeploy():
    host, _, transport, _ = build_host()
    inst = host.deploy(app(), "fn-echo", None, CTX)
    response = transport.request(src="gateway", channel="data", method="GET",
                                 url=inst.uri + "/healthz")
    assert response.status == 200
    host.undeploy(inst.uri)
    assert host.used_slots == 0
    response = transport.request(src="gateway", channel="data", method="GET",
                                 url=inst.uri + "/healthz")
    assert response.status == 404
    with pytest.raises(NotFoundError):
        host.undeploy(inst.uri)


def test_mgmt_wire_surface():
    host, _, transport, _ = build_host()
    response = transport.request(
        src="lcmp", channel="mec-internal", method="POST",
        url="http://edge-a/mgmt/v1/deploy",
        body=dumps({"app": app_doc(), "handler": "fn-echo", "shareable": True,
                    "chain_uri": None, "context_id": OTHER_CTX}),
    )
    uri = loads(raise_for_status(response).body)["uri"]
    assert uri.startswith("http://edge-a/apps/fn-echo-")
    assert host._instance("fn-echo-1").active_contexts == {OTHER_CTX}
    for verb, payload in (("attach", {"uri": uri, "context_id": CTX}),
                          ("detach", {"uri": uri, "context_id": CTX}),
                          ("undeploy", {"uri": uri})):
        response = transport.request(
            src="lcmp", channel="mec-internal", method="POST",
            url=f"http://edge-a/mgmt/v1/{verb}", body=dumps(payload),
        )
        raise_for_status(response)
    assert host.used_slots == 0


@pytest.mark.parametrize("slots", ["abc", -3, 0, True, 2.5])
def test_deploy_refuses_a_bad_slot_count(slots):
    host, _, transport, _ = build_host(slots=1)
    response = transport.request(
        src="lcmp", channel="mec-internal", method="POST",
        url="http://edge-a/mgmt/v1/deploy",
        body=dumps({"app": app_doc(slots=slots), "handler": "fn-echo", "chain_uri": None,
                    "context_id": CTX}),
    )
    assert response.status == 400
    assert host.used_slots == 0
    assert host._instances == {}


@pytest.mark.parametrize("verb, payload", [
    ("undeploy", []),
    ("attach", []),
    ("detach", []),
    ("undeploy", {}),
    ("undeploy", {"uri": ""}),
    ("attach", {"uri": "http://edge-a/apps/fn-echo-1"}),
    ("attach", {"context_id": CTX}),
    ("detach", {"uri": "http://edge-a/apps/fn-echo-1", "context_id": ""}),
    ("deploy", {"app": app_doc(), "handler": "fn-echo", "chain_uri": None}),
    ("deploy", {"app": app_doc(), "handler": "fn-echo", "chain_uri": None, "context_id": ""}),
], ids=["undeploy-list", "attach-list", "detach-list", "undeploy-no-uri",
        "undeploy-empty-uri", "attach-no-context", "attach-no-uri", "detach-empty-context",
        "deploy-no-context", "deploy-empty-context"])
def test_mgmt_body_without_its_fields_is_malformed(verb, payload):
    host, _, transport, _ = build_host()
    inst = host.deploy(app(), "fn-echo", None, CTX)
    assert inst.uri == "http://edge-a/apps/fn-echo-1"
    response = transport.request(
        src="lcmp", channel="mec-internal", method="POST",
        url=f"http://edge-a/mgmt/v1/{verb}", body=dumps(payload),
    )
    assert response.status == 400
    assert loads(response.body)["code"] == "malformed"
    assert list(host._instances.values()) == [inst]
    assert inst.active_contexts == {CTX}


def test_builtin_handlers_reject_bad_sum_input():
    with pytest.raises(ValueError):
        BUILTIN_HANDLERS["fn-sum"](b'{"not": "a list"}')
    with pytest.raises(ValueError):
        BUILTIN_HANDLERS["fn-sum"](b"[1, true, 3]")
