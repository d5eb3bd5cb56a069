"""Wire formats for the key-delivery REST protocol.

Single source of truth for the key-container, status, and error JSON bodies
exchanged between key-management servers and their application-side clients.
Encoding is canonical (fixed field order, compact separators) so equal values
always serialize to identical bytes; decoding tolerates unknown extra fields
but is strict about missing or ill-typed required ones.

The JSON encoder and decoder are built once, at import, and shared by every
call. The encoder is the C one that `json.dumps` uses, with its compact
separators, ASCII-only output, no key sorting and NaN allowed. Its
circular-reference check is off, so it keeps no state between calls and the
HTTP server threads can share it; a value that contains itself raises
RecursionError, not ValueError. Base64 takes one `binascii` call each
way, and decoding is as strict as `base64.b64decode` with `validate=True`:
a character outside the alphabet or a misplaced `=` is malformed.

A byte body is decoded as UTF-8, the one encoding RFC 8259 §8.1 allows
between systems; a UTF-16 or UTF-32 body, or one that starts with a byte
order mark, is malformed. A key_ID already in canonical form (lowercase,
hyphenated) is checked with one regular expression. Only the other RFC 9562
spellings are read: the hyphenated form in any case, braced, after
`urn:uuid:`, or as 32 bare hex digits; `uuid.UUID` canonicalises them.
Anything else `uuid.UUID` would take (an underscore between digits, a sign,
a non-ASCII digit) is malformed.
"""

from __future__ import annotations

import json
import re
import uuid
from binascii import a2b_base64, b2a_base64
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import Any, Iterable, Mapping

from .errors import MalformedError


# markers, default, string encoder (ASCII), indent, key and item separators,
# sort_keys, skipkeys, allow_nan
_ENCODE = c_make_encoder(None, json.JSONEncoder().default, encode_basestring_ascii, None,
                         ":", ",", False, False, True)
_DECODER = json.JSONDecoder()
_CANONICAL_UUID = re.compile(r"[0-9a-f]{8}-[0-9a-f]{4}-[0-9a-f]{4}-[0-9a-f]{4}-[0-9a-f]{12}")
_HYPHENATED = r"[0-9a-fA-F]{8}-[0-9a-fA-F]{4}-[0-9a-fA-F]{4}-[0-9a-fA-F]{4}-[0-9a-fA-F]{12}"
_UUID_SPELLING = re.compile("|".join((_HYPHENATED, r"\{" + _HYPHENATED + r"\}",
                                      "urn:uuid:" + _HYPHENATED, "[0-9a-fA-F]{32}")))


def dumps(obj: Any) -> bytes:
    return "".join(_ENCODE(obj, 0)).encode("ascii")


def loads(data: bytes | str) -> Any:
    """A JSON value from a str, or from bytes holding UTF-8 without a byte order mark."""
    try:
        if isinstance(data, (bytes, bytearray)):
            data = data.decode("utf-8")
        return _DECODER.decode(data)
    except (ValueError, UnicodeDecodeError) as exc:
        raise MalformedError(f"invalid JSON: {exc}") from exc


def b64encode(raw: bytes) -> str:
    return b2a_base64(raw, newline=False).decode("ascii")


def b64decode(text: str) -> bytes:
    if not isinstance(text, str):
        raise MalformedError("expected base64 string")
    try:
        return a2b_base64(text, strict_mode=True)
    except ValueError as exc:  # binascii.Error, or a non-ASCII character
        raise MalformedError(f"invalid base64: {exc}") from exc


def _require_uuid(value: Any) -> str:
    if not isinstance(value, str):
        raise MalformedError("key_ID must be a string")
    if _CANONICAL_UUID.fullmatch(value):
        return value
    if not _UUID_SPELLING.fullmatch(value):
        raise MalformedError(f"invalid key_ID {value!r}")
    return str(uuid.UUID(value))


def encode_key_container(pairs: Iterable[tuple[str, bytes]]) -> bytes:
    entries = [{"key_ID": key_id, "key": b64encode(key)} for key_id, key in pairs]
    if not entries:
        raise ValueError("key container requires at least one key")
    return dumps({"keys": entries})


def decode_key_container(data: bytes | str) -> list[tuple[str, bytes]]:
    """The (key_ID, key) pairs of a container: the inverse of encode_key_container."""
    doc = loads(data)
    if not isinstance(doc, dict) or not isinstance(doc.get("keys"), list):
        raise MalformedError("key container must hold a 'keys' array")
    pairs = []
    for item in doc["keys"]:
        if not isinstance(item, dict):
            raise MalformedError("key container entries must be objects")
        if "key_ID" not in item or "key" not in item:
            raise MalformedError("key container entry missing key_ID or key")
        pairs.append((_require_uuid(item["key_ID"]), b64decode(item["key"])))
    if not pairs:
        raise MalformedError("key container must not be empty")
    return pairs


STATUS_FIELDS = ("peer_sae", "key_length_default", "stored_key_count", "max_key_per_request")


def encode_status(status: Mapping[str, Any]) -> bytes:
    missing = [f for f in STATUS_FIELDS if f not in status]
    if missing:
        raise ValueError(f"status missing fields: {missing}")
    return dumps({field: status[field] for field in STATUS_FIELDS})


def decode_status(data: bytes | str) -> dict[str, Any]:
    doc = loads(data)
    if not isinstance(doc, dict):
        raise MalformedError("status body must be an object")
    out: dict[str, Any] = {}
    for field in STATUS_FIELDS:
        if field not in doc:
            raise MalformedError(f"status missing field {field!r}")
        out[field] = doc[field]
    return out


def encode_error(code: str, message: str) -> bytes:
    return dumps({"message": message, "code": code})


def decode_error(data: bytes | str) -> tuple[str, str]:
    """Best-effort parse of an error body; unparseable bodies degrade gracefully."""
    try:
        doc = loads(data)
    except MalformedError:
        return "internal-error", data.decode("utf-8", "replace") if isinstance(data, bytes) else str(data)
    if isinstance(doc, dict):
        return str(doc.get("code", "internal-error")), str(doc.get("message", ""))
    return "internal-error", str(doc)
