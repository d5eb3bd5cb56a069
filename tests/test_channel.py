from __future__ import annotations

import math

import pytest
from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import AESGCM
from hypothesis import example, given, settings, strategies as st

from edgeqkd.channel import (
    SUITES,
    EncryptedEnvelope,
    Key,
    MODE_OTP,
    RefreshPolicy,
    decrypt,
    encrypt,
    encrypt_response,
    establish_context,
    negotiate,
    response_nonce,
    should_refresh,
)
from edgeqkd.clock import SimulatedClock
from edgeqkd.errors import (
    AuthFailureError,
    KeyExhaustedError,
    MalformedError,
    MessageTooLongError,
    NoCommonSuiteError,
    UnknownKeyIdError,
)
from edgeqkd.kme import new_kme_pair

SEED = b"\x24" * 32


def make_side(clock, rate=0, cap=1 << 20, policy=None, offered=(1,)):
    """A client context (it holds its current key), both entities of its pair
    (the client's and the server's key source) and the server's key_ID -> key
    map for manual decrypts."""
    master, slave = new_kme_pair(SEED, rate, cap, clock=clock)
    policy = policy or RefreshPolicy(max_uses=10, max_age_sec=3600)
    ctx = establish_context(
        "sae-client", "sae-mec", list(offered), master, policy, clock=clock,
    )
    return ctx, master, slave, {}


def server_decrypt(envelope, server_keys, server_kme):
    """Open a request as the host does: fetch its key by key_ID once, keep it,
    then decrypt with the kept key."""
    if envelope.key_id not in server_keys:
        (_, key_bits), = server_kme.get_dec_keys("sae-client", [envelope.key_id])
        server_keys[envelope.key_id] = Key(key_bits)
    return decrypt(envelope, server_keys[envelope.key_id])


# ---------------------------------------------------------------------------
# negotiate
# ---------------------------------------------------------------------------

def test_negotiate_singleton_intersection():
    assert negotiate([1, 2], [1]) == 1


def test_negotiate_empty_intersection():
    with pytest.raises(NoCommonSuiteError):
        negotiate([2], [1])


def test_negotiate_lowest_id_wins():
    assert negotiate([2, 1], [1, 2]) == 1


@given(st.lists(st.integers(1, 9), min_size=1), st.lists(st.integers(1, 9), min_size=1))
def test_negotiate_symmetric_and_in_intersection(a, b):
    common = set(a) & set(b)
    if not common:
        with pytest.raises(NoCommonSuiteError):
            negotiate(a, b)
        return
    picked = negotiate(a, b)
    assert picked == negotiate(b, a)
    assert picked in common


# ---------------------------------------------------------------------------
# establish
# ---------------------------------------------------------------------------

def test_establish_happy_path(sim_clock):
    ctx, master, *_ = make_side(sim_clock)
    assert ctx.suite.suite_id == 1
    assert ctx.uses == 0
    assert ctx.key.bits is not None
    assert len(ctx.key.bits) == 32
    assert master.pair.dispensed_keys == 1


def test_establish_exhausted_pool(sim_clock):
    master, _ = new_kme_pair(SEED, 0, 8, clock=sim_clock)  # 8 bits: far too small
    with pytest.raises(KeyExhaustedError):
        establish_context(
            "sae-client", "sae-mec", [1], master,
            RefreshPolicy(1, 3600), clock=sim_clock,
        )


def test_sequential_establishes_use_distinct_keys(sim_clock):
    master, _ = new_kme_pair(SEED, 0, 4096, clock=sim_clock)
    ids = set()
    for _ in range(2):
        ctx = establish_context("sae-client", "sae-mec", [1], master,
                                RefreshPolicy(10, 3600), clock=sim_clock)
        ids.add(ctx.current_key_id)
    assert len(ids) == 2


def test_establish_otp_forces_single_use(sim_clock):
    ctx, *_ = make_side(sim_clock, offered=(2,))
    assert ctx.suite.mode == MODE_OTP
    assert ctx.policy.max_uses == 1


# ---------------------------------------------------------------------------
# encrypt / decrypt
# ---------------------------------------------------------------------------

def test_aead_roundtrip(sim_clock):
    ctx, _, server_kme, server_keys, *_ = make_side(sim_clock)
    envelope = encrypt(ctx, b"hello", None, clock=sim_clock)
    assert b"hello" not in envelope.ciphertext
    out = server_decrypt(envelope, server_keys, server_kme)
    assert out == b"hello"


def test_server_fetch_is_lazy_and_cached(sim_clock):
    ctx, master, server_kme, server_keys = make_side(sim_clock)
    envelope = encrypt(ctx, b"payload", None, clock=sim_clock)
    assert master.pair.holds_material(ctx.current_key_id)
    server_decrypt(envelope, server_keys, server_kme)
    # consumed from the entity, cached locally for the next envelope
    assert not master.pair.holds_material(ctx.current_key_id)
    envelope2 = encrypt(ctx, b"payload-2", None, clock=sim_clock)
    assert server_decrypt(envelope2, server_keys, server_kme) == b"payload-2"


def test_forced_refresh_consumes_two_keys(sim_clock):
    policy = RefreshPolicy(max_uses=1, max_age_sec=3600)
    ctx, kme, *_ = make_side(sim_clock, policy=policy)
    e1 = encrypt(ctx, b"one", kme, clock=sim_clock)
    e2 = encrypt(ctx, b"two", kme, clock=sim_clock)
    assert e1.key_id != e2.key_id
    assert kme.pair.dispensed_keys == 2


def test_rollover_replaces_the_cipher_with_the_key(sim_clock):
    ctx, kme, server_kme, server_keys, *_ = make_side(sim_clock)
    encrypt(ctx, b"under the first key", kme, clock=sim_clock)
    retired = ctx.key
    ctx.uses = ctx.policy.max_uses  # the next encryption rolls the key over
    envelope = encrypt(ctx, b"under the second key", kme, clock=sim_clock)
    # the envelope opens under the new key's bytes, not under the retired key's
    assert server_decrypt(envelope, server_keys, server_kme) == b"under the second key"
    assert server_keys[envelope.key_id].bits == ctx.key.bits != retired.bits
    with pytest.raises(AuthFailureError):
        decrypt(envelope, retired)
    # the context keeps no object built from the retired key: its cipher is
    # the new key's
    assert all(value is not retired and value is not retired.aead
               for value in vars(ctx).values())
    nonce = bytes(12)
    with pytest.raises(InvalidTag):
        ctx.key.aead.decrypt(nonce, retired.aead.encrypt(nonce, b"probe", b""), b"")
    assert ctx.key.aead.decrypt(nonce, AESGCM(ctx.key.bits).encrypt(nonce, b"probe", b""),
                                b"") == b"probe"


def test_only_an_aead_key_gets_a_cipher(sim_clock):
    aead_ctx, *_ = make_side(sim_clock)
    pad_ctx, *_ = make_side(sim_clock, offered=(2,))
    assert isinstance(aead_ctx.key.aead, AESGCM)
    assert pad_ctx.key.aead is None
    assert Key(b"k" * 32).aead is not None
    assert Key(b"p" * 256).aead is None


def test_age_based_refresh(sim_clock):
    policy = RefreshPolicy(max_uses=100, max_age_sec=30)
    ctx, kme, *_ = make_side(sim_clock, policy=policy)
    e1 = encrypt(ctx, b"a", kme, clock=sim_clock)
    sim_clock.advance(31)
    e2 = encrypt(ctx, b"b", kme, clock=sim_clock)
    assert e1.key_id != e2.key_id


def test_otp_xor_definition(sim_clock):
    # 256-byte message and 256-byte pad: ciphertext is exactly plaintext XOR pad
    ctx, kme, *_ = make_side(sim_clock, offered=(2,))
    plaintext = bytes(range(256))
    envelope = encrypt(ctx, plaintext, kme, clock=sim_clock)
    pad = ctx.key.bits
    assert len(pad) == 256
    assert envelope.ciphertext == bytes(p ^ k for p, k in zip(plaintext, pad))
    assert decrypt(envelope, ctx.key) == plaintext


def test_otp_message_too_long(sim_clock):
    ctx, kme, *_ = make_side(sim_clock, offered=(2,))
    with pytest.raises(MessageTooLongError):
        encrypt(ctx, bytes(257), kme, clock=sim_clock)


def test_otp_reply_shares_no_pad_bits(sim_clock):
    ctx, kme, server_kme, server_keys, *_ = make_side(sim_clock, offered=(2,))
    request = encrypt(ctx, b"ping-ping-ping", kme, clock=sim_clock)
    assert server_decrypt(request, server_keys, server_kme) == b"ping-ping-ping"
    reply = encrypt_response(request, b"pong-pong", server_keys[request.key_id], "sae-mec")
    assert decrypt(reply, ctx.key, response=True) == b"pong-pong"
    # request pad prefix and reply pad suffix must differ
    assert request.ciphertext[: len(reply.ciphertext)] != reply.ciphertext


def test_otp_request_and_reply_must_fit_the_pad_together(sim_clock):
    # the request reads the 256-byte pad from the front, the reply from the back
    ctx, kme, server_kme, server_keys, *_ = make_side(sim_clock, offered=(2,))
    request = encrypt(ctx, bytes(200), kme, clock=sim_clock)
    server_decrypt(request, server_keys, server_kme)
    key = server_keys[request.key_id]
    with pytest.raises(MessageTooLongError):
        encrypt_response(request, bytes(57), key, "sae-mec")
    reply = encrypt_response(request, bytes(56), key, "sae-mec")
    assert decrypt(reply, ctx.key, response=True) == bytes(56)


def test_tampered_ciphertext_fails_auth(sim_clock):
    ctx, _, server_kme, server_keys, *_ = make_side(sim_clock)
    envelope = encrypt(ctx, b"integrity matters", None, clock=sim_clock)
    corrupted = bytearray(envelope.ciphertext)
    corrupted[0] ^= 0x01
    bad = EncryptedEnvelope(envelope.key_id, envelope.suite_id, envelope.nonce,
                            bytes(corrupted), envelope.sender_sae)
    with pytest.raises(AuthFailureError):
        server_decrypt(bad, server_keys, server_kme)


def test_envelope_of_other_context(sim_clock):
    """A mismatched key id fails closed in every cache state."""
    ctx_a, kme, server_kme, server_keys, *_ = make_side(sim_clock)
    ctx_b = establish_context("sae-client", "sae-mec", [1], kme,
                              RefreshPolicy(10, 3600), clock=sim_clock)
    envelope = encrypt(ctx_a, b"addressed to context A!", kme, clock=sim_clock)
    swapped = EncryptedEnvelope(ctx_b.current_key_id, envelope.suite_id, envelope.nonce,
                                envelope.ciphertext, envelope.sender_sae)
    # state 1: key B not cached on the server; the fetch succeeds but the bytes differ
    with pytest.raises((AuthFailureError, UnknownKeyIdError)):
        server_decrypt(swapped, server_keys, server_kme)
    # state 2: key B now cached (fetched above); still must not authenticate
    with pytest.raises((AuthFailureError, UnknownKeyIdError)):
        server_decrypt(swapped, server_keys, server_kme)
    # state 3 (no cache, no fetch possible) needs the host's key lookup:
    # tests/test_host.py::test_unobtainable_key_is_unknown_and_runs_no_handler[other-context]


def test_suite_swap_on_cached_key_fails_closed(sim_clock):
    # rewriting cipher_suite must not route an AEAD key through the pad path
    ctx, _, server_kme, server_keys, *_ = make_side(sim_clock)
    envelope = encrypt(ctx, b"downgrade attempt here", None, clock=sim_clock)
    server_decrypt(envelope, server_keys, server_kme)  # key now cached
    swapped = EncryptedEnvelope(envelope.key_id, 2, b"", envelope.ciphertext,
                                envelope.sender_sae)
    with pytest.raises(AuthFailureError):
        decrypt(swapped, server_keys[swapped.key_id])


def test_each_suite_has_its_own_key_length():
    # the server reads a stored key's suite from its length
    lengths = [suite.key_length for suite in SUITES.values()]
    assert len(set(lengths)) == len(lengths)


def test_response_uses_same_key_distinct_nonce(sim_clock):
    ctx, _, server_kme, server_keys, *_ = make_side(sim_clock)
    request = encrypt(ctx, b"question", None, clock=sim_clock)
    server_decrypt(request, server_keys, server_kme)
    reply = encrypt_response(request, b"answer", server_keys[request.key_id], "sae-mec")
    assert reply.key_id == request.key_id
    assert reply.nonce != request.nonce
    assert reply.nonce == response_nonce(request.nonce)
    assert decrypt(reply, ctx.key, response=True) == b"answer"


# ---------------------------------------------------------------------------
# refresh policy
# ---------------------------------------------------------------------------

def test_should_refresh_boundaries(sim_clock):
    ctx, *_ = make_side(sim_clock, policy=RefreshPolicy(max_uses=3, max_age_sec=60))
    assert should_refresh(ctx, sim_clock.now()) is False
    ctx.uses = 3
    assert should_refresh(ctx, sim_clock.now()) is True
    ctx.uses = 0
    assert should_refresh(ctx, ctx.established_at + 60.0) is False  # boundary: not yet
    assert should_refresh(ctx, ctx.established_at + 60.001) is True


def test_refresh_accounting_seven_messages(sim_clock):
    policy = RefreshPolicy(max_uses=3, max_age_sec=1e9)
    ctx, kme, *_ = make_side(sim_clock, policy=policy)
    for i in range(7):
        encrypt(ctx, f"message {i}".encode(), kme, clock=sim_clock)
    assert kme.pair.dispensed_keys == math.ceil(7 / 3)


@settings(max_examples=40, deadline=None)
@given(messages=st.integers(1, 60), max_uses=st.integers(1, 12))
def test_refresh_accounting_property(messages, max_uses):
    clock = SimulatedClock()
    policy = RefreshPolicy(max_uses=max_uses, max_age_sec=1e9)
    ctx, kme, *_ = make_side(clock, policy=policy)
    for i in range(messages):
        encrypt(ctx, b"m%d" % i, kme, clock=clock)
    assert kme.pair.dispensed_keys == math.ceil(messages / max_uses)


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(plaintext=st.binary(min_size=0, max_size=4096))
def test_roundtrip_property(plaintext):
    clock = SimulatedClock()
    ctx, _, server_kme, server_keys, *_ = make_side(clock)
    envelope = encrypt(ctx, plaintext, None, clock=clock)
    assert server_decrypt(envelope, server_keys, server_kme) == plaintext


def test_roundtrip_64k(sim_clock):
    import os

    ctx, _, server_kme, server_keys, *_ = make_side(sim_clock)
    blob = os.urandom(64 * 1024)
    envelope = encrypt(ctx, blob, None, clock=sim_clock)
    assert server_decrypt(envelope, server_keys, server_kme) == blob


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_envelope_never_contains_plaintext(data):
    plaintext = bytes(data.draw(st.permutations(range(16, 48))))  # 32 distinct bytes
    clock = SimulatedClock()
    ctx, *_ = make_side(clock)
    envelope = encrypt(ctx, plaintext, None, clock=clock)
    assert plaintext not in envelope.to_bytes()
    assert plaintext not in envelope.ciphertext


def test_nonce_unique_within_key(sim_clock):
    ctx, kme, *_ = make_side(sim_clock, policy=RefreshPolicy(50, 1e9))
    nonces = set()
    for i in range(50):
        envelope = encrypt(ctx, b"n%d" % i, kme, clock=sim_clock)
        assert envelope.key_id == ctx.current_key_id
        assert envelope.nonce not in nonces
        nonces.add(envelope.nonce)


def test_envelope_bytes_golden():
    # pins the wire layout: version, suite id, then key_ID, nonce and sender
    # behind one-byte lengths, then the ciphertext
    envelope = EncryptedEnvelope(
        key_id="11111111-2222-4333-8444-555555555555", suite_id=1,
        nonce=bytes.fromhex("000000000000000000000007"), ciphertext=b"\xde\xad\xbe\xef",
        sender_sae="sae-client",
    )
    assert envelope.to_bytes() == (
        b"\x01\x01"
        b"\x2411111111-2222-4333-8444-555555555555"
        b"\x0c\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x07"
        b"\x0asae-client"
        b"\xde\xad\xbe\xef"
    )


@settings(max_examples=100, deadline=None)
@given(key_id=st.text(st.characters(max_codepoint=127), max_size=255),
       suite_id=st.integers(0, 255),
       nonce=st.binary(max_size=255),
       sender=st.text(max_size=63),  # at most 4 UTF-8 bytes a character
       ciphertext=st.binary(max_size=512))
@example(key_id="11111111-2222-4333-8444-555555555555", suite_id=2, nonce=b"",
         sender="sae-client", ciphertext=b"\x00" * 64)
@example(key_id="k", suite_id=1, nonce=b"\x01" * 12, sender="sae-mec", ciphertext=b"")
@example(key_id="k", suite_id=1, nonce=b"\x00" * 12, sender="sae-client",
         ciphertext=bytes(64 * 1024))
def test_envelope_codec_roundtrip(key_id, suite_id, nonce, sender, ciphertext):
    envelope = EncryptedEnvelope(key_id, suite_id, nonce, ciphertext, sender)
    assert EncryptedEnvelope.from_bytes(envelope.to_bytes()) == envelope


def test_envelope_decode_rejects_missing_fields():
    good = EncryptedEnvelope("kid", 1, b"\x00" * 12, b"ct", "sae-client").to_bytes()
    header = len(good) - len(b"ct")
    hostile = [good[:cut] for cut in range(header)] + [  # empty, then every truncated header
        b"\x01\x01\x05abc",                    # key_ID length past the end
        b"\x02" + good[1:],                     # unknown version
        b'{"key_ID":"x","cipher_suite":1}',     # the former JSON envelope
        b"\x01\x01\x02\xc3\xa9\x00\x00",         # non-ASCII key_ID
        b"\x01\x01\x01k\x00\x02\xff\xfe",         # non-UTF-8 sender
    ]
    for body in hostile:
        with pytest.raises(MalformedError):
            EncryptedEnvelope.from_bytes(body)


@pytest.mark.parametrize("field_name, envelope", [
    ("key_ID", EncryptedEnvelope("k" * 256, 1, b"", b"", "s")),
    ("nonce", EncryptedEnvelope("k", 1, b"n" * 256, b"", "s")),
    ("sender", EncryptedEnvelope("k", 1, b"", b"", "\u00e9" * 128)),
    ("suite id", EncryptedEnvelope("k", 256, b"", b"", "s")),
])
def test_envelope_encode_rejects_oversized_fields(field_name, envelope):
    with pytest.raises(ValueError, match=field_name):
        envelope.to_bytes()


def test_nonce_direction_is_checked(sim_clock):
    # a reply opened as a request (or the reverse) is refused before the
    # server could seal an answer under the reply's own nonce
    ctx, _, server_kme, server_keys, *_ = make_side(sim_clock)
    request = encrypt(ctx, b"question", None, clock=sim_clock)
    server_decrypt(request, server_keys, server_kme)
    reply = encrypt_response(request, b"answer", server_keys[request.key_id], "sae-mec")
    with pytest.raises(AuthFailureError):
        decrypt(reply, server_keys[reply.key_id])
    with pytest.raises(AuthFailureError):
        decrypt(request, ctx.key, response=True)
