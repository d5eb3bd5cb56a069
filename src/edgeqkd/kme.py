"""Simulated key-management pair over a point-to-point quantum link.

Two key-management entities (one per security perimeter) share a single
entropy pool. Each entity acts for its local application entity and is a
key source with the same three calls as the REST client `KmeClient`:
`get_enc_keys` (master side: fresh keys), `get_dec_keys` (slave side: the
matching bytes, exactly once per key identifier) and `get_status`, which
returns the `wire.STATUS_FIELDS` dict. The pair keeps one ledger, key_ID to
key bytes until the slave side releases them, then None: the material is
purged, the id stays so a second release is refused. Key bytes and
identifiers are expanded deterministically from the pool seed, so identical
request transcripts reproduce identical keys.

Rate model: the link produces secret bits continuously at the configured
rate, metered as a cumulative production ledger; `capacity_bits` bounds the
stock a single observation or request may see. Undrawn production is not
forfeited, which keeps conservation exact: dispensed bits never exceed
initial capacity plus rate times elapsed time.
"""

from __future__ import annotations

import threading
from typing import Sequence

from .clock import Clock, SystemClock
from .entropy import make_stream, uuid4_from
from .errors import (
    AlreadyConsumedError,
    BadLengthError,
    InvalidConfigError,
    KeyExhaustedError,
    UnknownKeyIdError,
    UnknownPeerError,
    WrongPeerError,
)
from .transport import Router, Transport, WireRequest, WireResponse, raise_for_status
from .wire import (
    decode_key_container,
    decode_status,
    dumps,
    encode_key_container,
    encode_status,
    loads,
)

# Fixed for every entity: the key size used when a request names none, and
# the most keys one enc_keys request may draw.
DEFAULT_KEY_LENGTH = 256
DEFAULT_MAX_KEYS_PER_REQUEST = 128

class EntropyPool:
    """Shared per-pair randomness budget with rate-limited accrual.

    The pool starts full. Accrual is lazy: callers (dispense, status) invoke
    `accrue` which folds elapsed time into the production ledger. A clock
    regression clamps the step to zero.
    """

    def __init__(self, seed: bytes | None, rate_bits_per_sec: int, capacity_bits: int,
                 clock: Clock | None = None) -> None:
        if capacity_bits <= 0:
            raise InvalidConfigError("capacity_bits must be positive")
        if rate_bits_per_sec < 0:
            raise InvalidConfigError("rate_bits_per_sec must be non-negative")
        self._clock = clock or SystemClock()
        self.rate_bits_per_sec = int(rate_bits_per_sec)
        self.capacity_bits = int(capacity_bits)
        self._produced = float(capacity_bits)  # pool starts full
        self._dispensed = 0
        self._last_accrual = self._clock.now()
        self._bits = make_stream(seed, "qkd-key-material")

    def accrue(self, now: float | None = None) -> int:
        if now is None:
            now = self._clock.now()
        step = max(0.0, now - self._last_accrual)
        self._last_accrual = max(self._last_accrual, now)
        self._produced += self.rate_bits_per_sec * step
        return self.available_bits

    @property
    def available_bits(self) -> int:
        return min(self.capacity_bits, int(self._produced) - self._dispensed)

    @property
    def dispensed_bits(self) -> int:
        return self._dispensed

    @property
    def produced_bits(self) -> int:
        return int(self._produced)

    def require(self, bits: int) -> None:
        """Raise (with a retry hint) unless `bits` are currently available."""
        available = self.accrue()
        if available < bits:
            retry_after = None
            if self.rate_bits_per_sec > 0:
                retry_after = (bits - available) / self.rate_bits_per_sec
            raise KeyExhaustedError(
                f"requested {bits} bits, {available} available", retry_after=retry_after
            )

    def draw(self, bits: int) -> bytes:
        """Consume `bits` from the budget; caller must hold the pair lock."""
        self.require(bits)
        self._dispensed += bits
        return self._bits.read(bits // 8)


class KmePair:
    """Shared state of the two entities terminating one link."""

    def __init__(self, pool: EntropyPool, master_sae: str, slave_sae: str, *,
                 seed: bytes | None) -> None:
        self.pool = pool
        self.master_sae = master_sae
        self.slave_sae = slave_sae
        self._ids = make_stream(seed, "qkd-key-id")
        # key_ID -> key bytes until the slave side releases it, then None
        self._records: dict[str, bytes | None] = {}
        self._lock = threading.RLock()
        self.dispensed_keys = 0

    # -- master side ---------------------------------------------------------

    def dispense(self, slave_sae: str, key_length: int, count: int) -> list[tuple[str, bytes]]:
        """`count` fresh keys of `key_length` bits, each with its new key_ID.

        The batch is taken from the pool in one draw and cut into keys. A
        stream gives the same bytes read at once or in pieces, so a batch of
        k keys equals k single dispenses from the same state. A batch over
        budget draws nothing.
        """
        if key_length <= 0 or key_length % 8 != 0:
            raise BadLengthError(f"key length {key_length} is not a positive multiple of 8")
        if count < 1 or count > DEFAULT_MAX_KEYS_PER_REQUEST:
            raise BadLengthError(f"count must be in [1, {DEFAULT_MAX_KEYS_PER_REQUEST}]")
        if slave_sae != self.slave_sae:
            raise UnknownPeerError(
                f"no master link {self.master_sae!r} -> {slave_sae!r} on this entity"
            )
        with self._lock:
            # all-or-nothing: one draw checks the budget for the whole batch
            material = self.pool.draw(count * key_length)
            size = key_length // 8
            out = [(uuid4_from(self._ids), material[offset:offset + size])
                   for offset in range(0, len(material), size)]
            self._records.update(out)
            self.dispensed_keys += count
            return out

    # -- slave side ----------------------------------------------------------

    def release(self, master_sae: str, key_ids: Sequence[str]) -> list[tuple[str, bytes]]:
        """The keys named, each released once; a refused request releases none."""
        if not key_ids:
            raise BadLengthError("key_ids must not be empty")
        if len(set(key_ids)) != len(key_ids):
            raise BadLengthError("key_ids must not repeat a key_ID")
        if master_sae != self.master_sae:
            raise WrongPeerError(f"no key on this link is bound to {master_sae!r}")
        with self._lock:
            out = []
            for key_id in key_ids:
                if key_id not in self._records:
                    raise UnknownKeyIdError(f"no key with id {key_id}")
                key = self._records[key_id]
                if key is None:
                    raise AlreadyConsumedError(f"key {key_id} was already released")
                out.append((key_id, key))
            self._records.update(dict.fromkeys(key_ids))  # purge: no secret material retained
            return out

    def holds_material(self, key_id: str) -> bool:
        with self._lock:
            return self._records.get(key_id) is not None

    def stats(self) -> dict:
        with self._lock:
            return {
                "dispensed_keys": self.dispensed_keys,
                "dispensed_bits": self.pool.dispensed_bits,
                "produced_bits": self.pool.produced_bits,
                "available_bits": self.pool.available_bits,
            }


class KmeHandle:
    """One entity of a pair, acting for its local SAE: the master side
    dispenses, the slave side releases, both report status."""

    def __init__(self, pair: KmePair, *, master: bool) -> None:
        self.pair = pair
        self.master = master
        self.peer_sae = pair.slave_sae if master else pair.master_sae

    def get_enc_keys(self, slave_sae: str, *, size: int, number: int = 1) -> list[tuple[str, bytes]]:
        if not self.master:
            raise UnknownPeerError(f"{self.pair.slave_sae!r} is not registered as master here")
        return self.pair.dispense(slave_sae, size, number)

    def get_dec_keys(self, master_sae: str, key_ids: Sequence[str]) -> list[tuple[str, bytes]]:
        if self.master:
            raise WrongPeerError(f"{self.pair.master_sae!r} is not the release side of this link")
        return self.pair.release(master_sae, key_ids)

    def get_status(self, peer_sae: str, *, size: int | None = None) -> dict:
        if peer_sae != self.peer_sae:
            raise UnknownPeerError(f"unknown peer {peer_sae!r}")
        length = DEFAULT_KEY_LENGTH if size is None else size
        if length <= 0 or length % 8 != 0:
            raise BadLengthError(f"key length {length} is not a positive multiple of 8")
        with self.pair._lock:
            available = self.pair.pool.accrue()
        return {
            "peer_sae": peer_sae,
            "key_length_default": length,
            "stored_key_count": available // length,
            "max_key_per_request": DEFAULT_MAX_KEYS_PER_REQUEST,
        }


def new_kme_pair(seed: bytes | None, rate_bits_per_sec: int, capacity_bits: int, *,
                 clock: Clock | None = None,
                 master_sae: str = "sae-client", slave_sae: str = "sae-mec",
                 ) -> tuple[KmeHandle, KmeHandle]:
    """Create both ends of a link sharing one full pool. Roles are fixed for life."""
    pool = EntropyPool(seed, rate_bits_per_sec, capacity_bits, clock)
    pair = KmePair(pool, master_sae, slave_sae, seed=seed)
    return KmeHandle(pair, master=True), KmeHandle(pair, master=False)


# ---------------------------------------------------------------------------
# REST surface (server and application-side client)
# ---------------------------------------------------------------------------

def _json_ok(body: bytes) -> WireResponse:
    return WireResponse(status=200, headers={"content-type": "application/json"}, body=body)


class KmeApi:
    """REST routes for one entity, served on behalf of its local application entity.

    Caller identity is implicit: everything inside one security perimeter is
    trusted, so the server acts for its configured local SAE.
    """

    def __init__(self, handle: KmeHandle) -> None:
        self._handle = handle

    def router(self) -> Router:
        router = Router()
        router.add("GET", "/api/v1/keys/{peer}/status", self._status)
        router.add("POST", "/api/v1/keys/{peer}/enc_keys", self._enc_keys)
        router.add("POST", "/api/v1/keys/{peer}/dec_keys", self._dec_keys)
        return router

    def _status(self, request: WireRequest, peer: str):
        size = request.query.get("size")
        if size is not None:
            if not (size.isascii() and size.isdigit()):
                raise BadLengthError(f"bad size {size!r}")
            size = int(size)
        return _json_ok(encode_status(self._handle.get_status(peer, size=size)))

    def _enc_keys(self, request: WireRequest, peer: str):
        doc = loads(request.body) if request.body else {}
        if not isinstance(doc, dict):
            raise BadLengthError("enc_keys body must be an object")
        number = doc.get("number", 1)
        size = doc.get("size", DEFAULT_KEY_LENGTH)
        if not all(isinstance(v, int) and not isinstance(v, bool) for v in (number, size)):
            raise BadLengthError("number and size must be integers")
        keys = self._handle.get_enc_keys(peer, size=size, number=number)
        return _json_ok(encode_key_container(keys))

    def _dec_keys(self, request: WireRequest, peer: str):
        doc = loads(request.body) if request.body else {}
        ids_doc = doc.get("key_IDs") if isinstance(doc, dict) else None
        if not isinstance(ids_doc, list) or not ids_doc:
            raise BadLengthError("dec_keys body must hold a non-empty key_IDs array")
        key_ids = []
        for item in ids_doc:
            if not isinstance(item, dict) or not isinstance(item.get("key_ID"), str):
                raise BadLengthError("key_IDs entries must be objects with a string key_ID")
            key_ids.append(item["key_ID"])
        keys = self._handle.get_dec_keys(peer, key_ids)
        return _json_ok(encode_key_container(keys))


class KmeClient:
    """Application-side client speaking the REST protocol through a transport."""

    def __init__(self, transport: Transport, *, src: str, base_url: str,
                 channel: str) -> None:
        self._transport = transport
        self._src = src
        self._base = base_url.rstrip("/")
        self._channel = channel

    def _request(self, method: str, path: str, body: bytes = b""):
        response = self._transport.request(
            src=self._src, channel=self._channel, method=method,
            url=self._base + path, body=body,
            headers={"content-type": "application/json"} if body else None,
        )
        return raise_for_status(response)

    def get_enc_keys(self, slave_sae: str, *, size: int, number: int = 1) -> list[tuple[str, bytes]]:
        response = self._request("POST", f"/api/v1/keys/{slave_sae}/enc_keys",
                                 dumps({"number": number, "size": size}))
        return decode_key_container(response.body)

    def get_dec_keys(self, master_sae: str, key_ids: Sequence[str]) -> list[tuple[str, bytes]]:
        response = self._request("POST", f"/api/v1/keys/{master_sae}/dec_keys",
                                 dumps({"key_IDs": [{"key_ID": kid} for kid in key_ids]}))
        return decode_key_container(response.body)

    def get_status(self, peer_sae: str, *, size: int | None = None) -> dict:
        query = "" if size is None else f"?size={size}"
        response = self._request("GET", f"/api/v1/keys/{peer_sae}/status{query}")
        return decode_status(response.body)

