"""Secure channel between two application entities.

Protocol: both sides share one suite table, `SUITES`. The client picks the
lowest suite id it offers that the table knows, fetches one key from its
key-management entity, and payloads then travel as envelopes carrying
(key_ID, cipher_suite, nonce, ciphertext) with no plaintext. As in ETSI GS
QKD 014, no set-up message reaches the server: it fetches the key named by
the first envelope lazily. `decrypt` and `encrypt_response` take the key
itself, a `Key`; finding it is the caller's job. A `Key` holds the key's
bytes and the AES-GCM object built from them once, so each key holder (the
client's `SecurityContext`, the host's `keystore.KeyStoreEntry`) keeps the
cipher beside the bytes, and it goes when they go: sealing and opening never
build one. A key's length fixes its suite: every suite in `SUITES` has its
own key length, so `suite_for` checks on every envelope that the suite is
known and that the key has that suite's length. Key identifiers and suite identifiers are not secret and travel in
the clear.

An envelope is sent as `application/octet-stream`, with a header in the
manner of RFC 8188 §2.1: one version byte (1), one suite-id byte, then the
key_ID (its ASCII UUID text), the nonce (12 bytes, or none for the pad) and
the sender SAE id (UTF-8), each behind a one-byte length. The rest of the
body is the ciphertext.

Keys are refreshed per policy: after `max_uses` encryptions or once the
current key is older than `max_age_sec`, the next encryption fetches a
fresh key in place of the one the security context holds. Refresh is atomic
per context, so racing encryptions never consume two keys for one rollover.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, replace
from types import MappingProxyType
from typing import Mapping, Sequence

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from .clock import Clock
from .errors import (
    AuthFailureError,
    MalformedError,
    MessageTooLongError,
    NoCommonSuiteError,
)

MODE_AEAD = "aead"
MODE_OTP = "one-time-pad"

NONCE_BYTES = 12
ENVELOPE_VERSION = 1
_DIR_REQUEST = 0x00
_DIR_RESPONSE = 0x01


@dataclass(frozen=True)
class CipherSuite:
    suite_id: int
    name: str
    key_length: int  # bits
    mode: str


# Built-in suites: 1 = AES-256-GCM, 2 = one-time pad (single use per key).
SUITES: Mapping[int, CipherSuite] = MappingProxyType({
    1: CipherSuite(suite_id=1, name="aes256-gcm", key_length=256, mode=MODE_AEAD),
    2: CipherSuite(suite_id=2, name="one-time-pad", key_length=2048, mode=MODE_OTP),
})


_AEAD_KEY_BYTES = frozenset(s.key_length // 8 for s in SUITES.values() if s.mode == MODE_AEAD)


@dataclass(frozen=True)
class Key:
    """A key's bytes and, for an AEAD key, the AES-GCM object built from them
    (None for a pad)."""
    bits: bytes = field(repr=False)
    aead: AESGCM | None = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "aead",
                           AESGCM(self.bits) if len(self.bits) in _AEAD_KEY_BYTES else None)


def negotiate(offered: Sequence[int], supported: Sequence[int]) -> int:
    """Pick the lowest suite id both sides know; symmetric in its arguments."""
    common = set(offered) & set(supported)
    if not common:
        raise NoCommonSuiteError(f"no common suite in offered={list(offered)}")
    return min(common)


@dataclass(frozen=True)
class RefreshPolicy:
    max_uses: int
    max_age_sec: float

    def __post_init__(self) -> None:
        if self.max_uses < 1:
            raise ValueError("max_uses must be positive")
        if self.max_age_sec <= 0:
            raise ValueError("max_age_sec must be positive")


@dataclass
class SecurityContext:
    client_sae: str
    server_sae: str
    suite: CipherSuite
    policy: RefreshPolicy
    current_key_id: str = ""
    key: Key = field(default=Key(b""), repr=False)  # the current key
    established_at: float = 0.0  # when the current key was bound
    uses: int = 0
    lock: threading.RLock = field(default_factory=threading.RLock, repr=False)


@dataclass(frozen=True)
class EncryptedEnvelope:
    key_id: str
    suite_id: int
    nonce: bytes
    ciphertext: bytes
    sender_sae: str

    def to_bytes(self) -> bytes:
        key_id = self.key_id.encode("ascii")
        sender = self.sender_sae.encode("utf-8")
        for name, value in (("key_ID", key_id), ("nonce", self.nonce), ("sender", sender)):
            if len(value) > 255:
                raise ValueError(f"envelope {name} is {len(value)} bytes, over 255")
        if not 0 <= self.suite_id <= 255:
            raise ValueError(f"envelope suite id {self.suite_id} does not fit one byte")
        return b"".join((bytes((ENVELOPE_VERSION, self.suite_id, len(key_id))), key_id,
                         bytes((len(self.nonce),)), self.nonce, bytes((len(sender),)), sender,
                         self.ciphertext))

    @classmethod
    def from_bytes(cls, data: bytes) -> "EncryptedEnvelope":
        if len(data) < 2:
            raise MalformedError("envelope header is truncated")
        if data[0] != ENVELOPE_VERSION:
            raise MalformedError(f"unknown envelope version {data[0]}")
        fields, pos = [], 2
        for name in ("key_ID", "nonce", "sender"):
            if pos >= len(data) or pos + 1 + data[pos] > len(data):
                raise MalformedError(f"envelope {name} runs past the end")
            fields.append(data[pos + 1:pos + 1 + data[pos]])
            pos += 1 + data[pos]
        key_id, nonce, sender = fields
        try:
            return cls(key_id=key_id.decode("ascii"), suite_id=data[1], nonce=nonce,
                       ciphertext=data[pos:], sender_sae=sender.decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise MalformedError(f"envelope key_ID or sender is not valid text: {exc}") from exc


# ---------------------------------------------------------------------------
# Core operations
# ---------------------------------------------------------------------------

def should_refresh(ctx: SecurityContext, now: float) -> bool:
    return ctx.uses >= ctx.policy.max_uses or (now - ctx.established_at) > ctx.policy.max_age_sec


def establish_context(client_sae: str, server_sae: str, offered_suites: Sequence[int],
                      kme, policy: RefreshPolicy, *, clock: Clock) -> SecurityContext:
    """Create a security context on the client side.

    The suite is the lowest offered id in `SUITES`; the server needs no
    set-up message because every envelope names its suite. One key is
    fetched eagerly and held by the context; the server side fetches its
    copy lazily when the first envelope names its key id.
    """
    suite = SUITES[negotiate(offered_suites, list(SUITES))]
    if suite.mode == MODE_OTP:
        # a pad is never reused, whatever the configured budget says
        policy = replace(policy, max_uses=1)
    ctx = SecurityContext(client_sae=client_sae, server_sae=server_sae, suite=suite,
                          policy=policy)
    _roll_over(ctx, kme, clock.now())
    return ctx


def _roll_over(ctx: SecurityContext, kme, now: float) -> None:
    """Replace the current key (requests in flight hold the old one) with a fresh one."""
    (ctx.current_key_id, key_bits), = kme.get_enc_keys(
        ctx.server_sae, size=ctx.suite.key_length, number=1)
    ctx.key = Key(key_bits)
    ctx.uses = 0
    ctx.established_at = now


def retire(ctx: SecurityContext, key_id: str) -> None:
    """Have the next encryption roll over, if `key_id` is still the current key."""
    with ctx.lock:
        if ctx.current_key_id == key_id:
            ctx.uses = ctx.policy.max_uses


def _request_nonce(counter: int) -> bytes:
    return bytes([_DIR_REQUEST]) + counter.to_bytes(NONCE_BYTES - 1, "big")


def response_nonce(request_nonce: bytes) -> bytes:
    """The reply's nonce for a request nonce that `decrypt` has accepted."""
    return bytes([_DIR_RESPONSE]) + request_nonce[1:]


def _aad(key_id: str, suite_id: int, sender_sae: str) -> bytes:
    return f"{key_id}|{suite_id}|{sender_sae}".encode("utf-8")


def _xor(data: bytes, pad: bytes) -> bytes:
    return (int.from_bytes(data, "big") ^ int.from_bytes(pad, "big")).to_bytes(len(data), "big")


def _pad_slice(key_bits: bytes, size: int, response: bool) -> bytes:
    """One-time-pad bytes for one direction: requests read the pad from the
    front, responses from the back, so the two directions never share bits."""
    if size > len(key_bits):
        raise MessageTooLongError(
            f"message of {size} bytes exceeds the {len(key_bits)}-byte pad"
        )
    return key_bits[len(key_bits) - size:] if response else key_bits[:size]


def _seal(suite: CipherSuite, key: Key, nonce: bytes, plaintext: bytes,
          aad: bytes, *, response: bool = False) -> bytes:
    if suite.mode == MODE_AEAD:
        return key.aead.encrypt(nonce, plaintext, aad)
    return _xor(plaintext, _pad_slice(key.bits, len(plaintext), response))


def _open(suite: CipherSuite, key: Key, nonce: bytes, ciphertext: bytes,
          aad: bytes, *, response: bool = False) -> bytes:
    if suite.mode == MODE_AEAD:
        try:
            return key.aead.decrypt(nonce, ciphertext, aad)
        except InvalidTag as exc:
            raise AuthFailureError("envelope failed authentication") from exc
    return _xor(ciphertext, _pad_slice(key.bits, len(ciphertext), response))


def encrypt(ctx: SecurityContext, plaintext: bytes, kme, *,
            clock: Clock) -> EncryptedEnvelope:
    """Encrypt under the context's current key, rolling it over first if due."""
    with ctx.lock:
        now = clock.now()
        if should_refresh(ctx, now):
            _roll_over(ctx, kme, now)
        nonce = _request_nonce(ctx.uses) if ctx.suite.mode == MODE_AEAD else b""
        aad = _aad(ctx.current_key_id, ctx.suite.suite_id, ctx.client_sae)
        ciphertext = _seal(ctx.suite, ctx.key, nonce, plaintext, aad)
        ctx.uses += 1
        return EncryptedEnvelope(
            key_id=ctx.current_key_id, suite_id=ctx.suite.suite_id,
            nonce=nonce, ciphertext=ciphertext, sender_sae=ctx.client_sae,
        )


def suite_for(envelope: EncryptedEnvelope, key_bits: bytes) -> CipherSuite:
    """The suite an envelope names, checked against the key it names: the
    suite is known and the key has that suite's length."""
    suite = SUITES.get(envelope.suite_id)
    if suite is None:
        raise MalformedError(f"unknown cipher suite {envelope.suite_id}")
    if len(key_bits) * 8 != suite.key_length:
        # stops a cached AEAD key from being replayed through the pad path
        raise AuthFailureError("cipher suite does not match the stored key")
    return suite


def decrypt(envelope: EncryptedEnvelope, key: Key, *, response: bool = False) -> bytes:
    """Open an envelope under the key it names.

    `response` selects the reply direction (nonce space and pad half). An
    AEAD nonce is 12 bytes: the direction, then the use counter.
    """
    suite = suite_for(envelope, key.bits)
    if suite.mode == MODE_AEAD:
        if len(envelope.nonce) != NONCE_BYTES:
            raise MalformedError("envelope nonce must be 96 bits")
        if envelope.nonce[0] != (_DIR_RESPONSE if response else _DIR_REQUEST):
            # a reply sent back as a request would get its answer sealed under
            # the reply's own nonce: AES-GCM nonce reuse
            raise AuthFailureError("envelope nonce is from the other direction")
    aad = _aad(envelope.key_id, envelope.suite_id, envelope.sender_sae)
    return _open(suite, key, envelope.nonce, envelope.ciphertext, aad, response=response)


def encrypt_response(request_envelope: EncryptedEnvelope, plaintext: bytes,
                     key: Key, sender_sae: str) -> EncryptedEnvelope:
    """Seal a reply under the key the request used (distinct nonce direction)."""
    suite = suite_for(request_envelope, key.bits)
    if suite.mode == MODE_OTP:
        # both directions share one pad; they must not overlap
        if len(request_envelope.ciphertext) + len(plaintext) > len(key.bits):
            raise MessageTooLongError("request and reply together exceed the pad")
    nonce = response_nonce(request_envelope.nonce) if suite.mode == MODE_AEAD else b""
    aad = _aad(request_envelope.key_id, request_envelope.suite_id, sender_sae)
    ciphertext = _seal(suite, key, nonce, plaintext, aad, response=True)
    return EncryptedEnvelope(
        key_id=request_envelope.key_id, suite_id=request_envelope.suite_id,
        nonce=nonce, ciphertext=ciphertext, sender_sae=sender_sae,
    )
