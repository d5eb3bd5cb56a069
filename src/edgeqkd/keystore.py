"""In-memory symmetric-key cache, one instance per security domain.

Entries are immutable once inserted (re-inserting an id is an error) and
never outlive the configured maximum age: lookups past expiry evict the
entry and report not-found. An entry holds only the key bytes: the key's
length fixes its cipher suite (see `channel.SUITES`), so no suite is stored.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from .clock import Clock
from .errors import DuplicateIdError, NotFoundError


@dataclass
class KeyStoreEntry:
    key_bits: bytes
    inserted_at: float


class KeyStore:
    def __init__(self, clock: Clock, max_age_sec: float) -> None:
        if max_age_sec <= 0:
            raise ValueError("max_age_sec must be positive")
        self._clock = clock
        self._max_age = float(max_age_sec)
        self._entries: dict[str, KeyStoreEntry] = {}
        self._lock = threading.RLock()

    def _expired(self, entry: KeyStoreEntry, now: float) -> bool:
        return (now - entry.inserted_at) > self._max_age

    def put(self, key_id: str, key_bits: bytes) -> None:
        now = self._clock.now()
        with self._lock:
            current = self._entries.get(key_id)
            if current is not None and not self._expired(current, now):
                raise DuplicateIdError(f"key {key_id} already stored")
            self._entries[key_id] = KeyStoreEntry(key_bits=key_bits, inserted_at=now)

    def get(self, key_id: str) -> KeyStoreEntry:
        now = self._clock.now()
        with self._lock:
            entry = self._entries.get(key_id)
            if entry is None:
                raise NotFoundError(f"no key {key_id} in store")
            if self._expired(entry, now):
                del self._entries[key_id]
                raise NotFoundError(f"key {key_id} expired")
            return entry

    def purge(self, key_ids) -> None:
        with self._lock:
            for key_id in key_ids:
                self._entries.pop(key_id, None)

    def __contains__(self, key_id: str) -> bool:
        now = self._clock.now()
        with self._lock:
            entry = self._entries.get(key_id)
            return entry is not None and not self._expired(entry, now)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
