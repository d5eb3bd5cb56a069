from __future__ import annotations

import base64
import binascii
import codecs
import json
import string
import sys
import threading
import uuid
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import example, given, strategies as st

from edgeqkd.entropy import ByteStream, uuid4_from
from edgeqkd.errors import MalformedError
from edgeqkd.wire import (
    _require_uuid,
    b64decode,
    b64encode,
    decode_error,
    decode_key_container,
    decode_status,
    dumps,
    encode_error,
    encode_key_container,
    encode_status,
    loads,
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


# ---------------------------------------------------------------------------
# Each codec gives what the standard library gives
# ---------------------------------------------------------------------------

def json_values(floats=st.floats()):
    integers = st.integers() | st.integers(min_value=-2**256, max_value=2**256)
    scalars = st.none() | st.booleans() | integers | floats | st.text()
    return st.recursive(scalars, lambda inner: st.lists(inner, max_size=4)
                        | st.dictionaries(st.text(), inner, max_size=4), max_leaves=12)


@given(json_values())
@example({"k\u00e9y": ["\U0001f511", 1.5e300, -0.0, 2**200, {"": [[None, True]]}]})
@example([float("nan"), float("inf"), float("-inf")])
def test_dumps_equals_json_dumps(value):
    assert dumps(value) == json.dumps(value, separators=(",", ":")).encode("ascii")


class PythonItems(dict):
    """A dict whose items() runs Python code, so a thread can switch inside an encode."""

    def items(self):
        return list(super().items())


def test_shared_encoder_gives_each_thread_the_same_bytes():
    doc = {"keys": [PythonItems(key_ID=KEY_ID, key=base64.b64encode(bytes([i]) * 32).decode())
                    for i in range(64)], "nested": [[PythonItems(x=1.25, y="\u00e9")]] * 32}
    expected = json.dumps(doc, separators=(",", ":")).encode("ascii")
    barrier = threading.Barrier(4)

    def encode_many():
        barrier.wait(timeout=10)
        return {dumps(doc) for _ in range(500)}

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = [future.result(timeout=60)
                       for future in [pool.submit(encode_many) for _ in range(4)]]
    finally:
        sys.setswitchinterval(interval)
    assert results == [{expected}] * 4


BASE64_ALPHABET = string.ascii_letters + string.digits + "+/=" + " \t\n-_" + "\u00e9\u0661"


@st.composite
def base64_texts(draw):
    """Valid base64 of drawn bytes, sometimes with one character changed,
    inserted or deleted, or text drawn from the alphabet and its neighbours."""
    text = base64.b64encode(draw(st.binary(max_size=48))).decode("ascii")
    edit = draw(st.sampled_from(["none", "replace", "insert", "delete", "free"]))
    if edit == "free":
        return draw(st.text(alphabet=BASE64_ALPHABET, max_size=24))
    if edit == "none":
        return text
    at = draw(st.integers(min_value=0, max_value=len(text)))
    char = draw(st.sampled_from(BASE64_ALPHABET))
    if edit == "insert":
        return text[:at] + char + text[at:]
    if edit == "replace":
        return text[:at] + char + text[at + 1:]
    return text[:at] + text[at + 1:]


@given(base64_texts())
@example("QUJD=")
@example("QQ==\n")
@example("=")
def test_b64decode_equals_strict_base64_module(text):
    try:
        expected = base64.b64decode(text.encode("ascii"), validate=True)
    except (binascii.Error, UnicodeEncodeError):
        with pytest.raises(MalformedError):
            b64decode(text)
    else:
        assert b64decode(text) == expected


@given(st.binary(max_size=96))
def test_b64encode_equals_base64_module(raw):
    assert b64encode(raw) == base64.b64encode(raw).decode("ascii")
    assert b64decode(b64encode(raw)) == raw


def test_b64decode_refuses_non_strings():
    with pytest.raises(MalformedError):
        b64decode(b"QUJD")


@given(json_values(st.floats(allow_nan=False)))
def test_loads_of_utf8_equals_json_loads(value):
    text = json.dumps(value, ensure_ascii=False)
    assert loads(text.encode("utf-8")) == json.loads(text)
    assert loads(text) == json.loads(text)


class FixedStream(ByteStream):
    def __init__(self, data: bytes) -> None:
        self._data = data

    def read(self, n: int) -> bytes:
        assert n == len(self._data)
        return self._data


@given(st.binary(min_size=16, max_size=16))
def test_uuid4_from_equals_uuid_module(raw):
    text = uuid4_from(FixedStream(raw))
    assert text == str(uuid.UUID(bytes=raw, version=4))  # version and variant bits set
    assert uuid.UUID(text).version == 4
    assert uuid.UUID(text).variant == uuid.RFC_4122


SPELLINGS = {
    "canonical": str,
    "upper": str.upper,
    "braced": lambda text: "{%s}" % text,
    "urn": lambda text: "urn:uuid:" + text,
    "hex": lambda text: text.replace("-", ""),
}


@given(st.uuids(), st.sampled_from(sorted(SPELLINGS)))
def test_require_uuid_equals_uuid_module(value, spelling):
    text = SPELLINGS[spelling](str(value))
    assert _require_uuid(text) == str(uuid.UUID(text))


HEX_DIGITS = frozenset("0123456789abcdefABCDEF")


def is_rfc9562_spelling(text):
    """Hyphenated in any case, braced, after `urn:uuid:`, or 32 bare hex digits."""
    def hyphenated(t):
        return (len(t) == 36 and all(t[i] == "-" for i in (8, 13, 18, 23))
                and all(c in HEX_DIGITS for i, c in enumerate(t) if i not in (8, 13, 18, 23)))

    return (hyphenated(text)
            or (text.startswith("{") and text.endswith("}") and hyphenated(text[1:-1]))
            or (text.startswith("urn:uuid:") and hyphenated(text[9:]))
            or (len(text) == 32 and all(c in HEX_DIGITS for c in text)))


ALPHABET = "0123456789abcdefABCDEF-{}:nruid_+ g\n\u0661"


@st.composite
def near_spellings(draw):
    """A valid spelling with one character replaced, inserted or deleted."""
    text = list(SPELLINGS[draw(st.sampled_from(sorted(SPELLINGS)))](str(draw(st.uuids()))))
    at = draw(st.integers(0, len(text) - 1))
    edit = draw(st.sampled_from(["replace", "insert", "delete"]))
    if edit == "delete":
        del text[at]
    else:
        text[at:at + (edit == "replace")] = [draw(st.sampled_from(ALPHABET))]
    return "".join(text)


@given(st.one_of(st.text(alphabet=ALPHABET, max_size=46), near_spellings()))
@example("7f9c_24e5-1cae-4b6e-9d3a-0123456789a")  # uuid.UUID reads the underscore
@example("+7f9c24e51cae4b6e9d3a0123456789a")  # and a sign
@example("7f9c24e5-1cae-4b6e-9d3a-0123456789a\u0661")  # and an Arabic-Indic one
@example("{7F9C24E5-1CAE-4b6e-9d3a-0123456789ab}")
def test_require_uuid_accepts_only_rfc9562_spellings(text):
    if is_rfc9562_spelling(text):
        assert _require_uuid(text) == str(uuid.UUID(text))
    else:
        with pytest.raises(MalformedError):
            _require_uuid(text)


@pytest.mark.parametrize("text", [
    "not-a-uuid",
    KEY_ID + "\n",
    KEY_ID[:-1],
    KEY_ID[:-1] + "g",
    KEY_ID + "0",
])
def test_require_uuid_refuses_invalid_strings(text):
    with pytest.raises(ValueError):
        uuid.UUID(text)
    with pytest.raises(MalformedError):
        _require_uuid(text)


@pytest.mark.parametrize("value", [None, 7, 1.5, True, uuid.UUID(KEY_ID).bytes, [KEY_ID],
                                   {"key_ID": KEY_ID}])
def test_require_uuid_refuses_non_strings(value):
    with pytest.raises(MalformedError):
        _require_uuid(value)


# ---------------------------------------------------------------------------
# Only UTF-8 JSON is read
# ---------------------------------------------------------------------------

CONTAINER = ('{"keys":[{"key_ID":"%s","key":"%s"}]}'
             % (KEY_ID, base64.b64encode(b"k" * 32).decode("ascii")))
NON_UTF8 = {
    "utf-16": CONTAINER.encode("utf-16"),
    "utf-16-le": CONTAINER.encode("utf-16-le"),
    "utf-32": CONTAINER.encode("utf-32"),
    "utf-8-bom": codecs.BOM_UTF8 + CONTAINER.encode("utf-8"),
}


@pytest.mark.parametrize("encoding", sorted(NON_UTF8))
def test_loads_refuses_json_that_is_not_plain_utf8(encoding):
    body = NON_UTF8[encoding]
    assert json.loads(body) == json.loads(CONTAINER)  # the standard library reads it
    with pytest.raises(MalformedError):
        loads(body)
    with pytest.raises(MalformedError):
        decode_key_container(body)
    assert decode_key_container(CONTAINER.encode("utf-8")) == [(KEY_ID, b"k" * 32)]
