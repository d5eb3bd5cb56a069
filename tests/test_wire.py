from __future__ import annotations

import base64
import uuid

import pytest
from hypothesis import given, strategies as st

from edgeqkd.errors import MalformedError
from edgeqkd.wire import (
    decode_error,
    decode_key_container,
    decode_status,
    encode_error,
    encode_key_container,
    encode_status,
)

KEY_ID = "7f9c24e5-1cae-4b6e-9d3a-0123456789ab"


def test_single_key_shape():
    key = bytes(range(32))
    data = encode_key_container([(KEY_ID, key)])
    text = data.decode("ascii")
    b64 = base64.b64encode(key).decode("ascii")
    assert len(b64) == 44  # 32 raw bytes -> 44 base64 chars
    assert text == '{"keys":[{"key_ID":"%s","key":"%s"}]}' % (KEY_ID, b64)


def test_two_keys_preserve_order():
    ids = [str(uuid.UUID(int=1)), str(uuid.UUID(int=2))]
    pairs = decode_key_container(encode_key_container([(ids[0], b"a" * 8), (ids[1], b"b" * 8)]))
    assert [key_id for key_id, _ in pairs] == ids


def test_empty_container_rejected():
    with pytest.raises(ValueError):
        encode_key_container([])


def test_encode_is_canonical():
    pairs = [(KEY_ID, b"\x00\xff" * 16)]
    assert encode_key_container(pairs) == encode_key_container(pairs)


def test_decode_tolerates_unknown_fields():
    doc = ('{"keys":[{"key_ID":"%s","key":"%s","extension":{"x":1}}],"vendor":"y"}'
           % (KEY_ID, base64.b64encode(b"k" * 8).decode()))
    assert decode_key_container(doc) == [(KEY_ID, b"k" * 8)]


@pytest.mark.parametrize("payload", [
    b"not json at all",
    b'{"keys":"nope"}',
    b'{"keys":[]}',
    b'{"keys":[{"key_ID":"not-a-uuid","key":"YWJj"}]}',
    ('{"keys":[{"key_ID":"%s","key":"!!bad-base64!!"}]}' % KEY_ID).encode(),
    ('{"keys":[{"key_ID":"%s"}]}' % KEY_ID).encode(),
])
def test_decode_rejects_malformed(payload):
    with pytest.raises(MalformedError):
        decode_key_container(payload)


@given(st.lists(st.tuples(st.uuids(version=4), st.binary(min_size=1, max_size=64)),
                min_size=1, max_size=16))
def test_container_roundtrip(pairs):
    encoded = encode_key_container([(str(u), k) for u, k in pairs])
    decoded = decode_key_container(encoded)
    assert decoded == [(str(u), k) for u, k in pairs]
    # decode/encode is a fixpoint
    assert encode_key_container(decoded) == encoded


def test_status_roundtrip():
    doc = {"peer_sae": "sae-mec", "key_length_default": 256,
           "stored_key_count": 4, "max_key_per_request": 128}
    assert decode_status(encode_status(doc)) == doc


def test_status_missing_field():
    with pytest.raises(ValueError):
        encode_status({"peer_sae": "x"})
    with pytest.raises(MalformedError):
        decode_status(b'{"peer_sae":"x"}')


def test_error_roundtrip():
    code, message = decode_error(encode_error("key-exhausted", "budget gone"))
    assert code == "key-exhausted"
    assert message == "budget gone"


def test_error_decode_degrades():
    code, _ = decode_error(b"\xff\xfenot json")
    assert code == "internal-error"
