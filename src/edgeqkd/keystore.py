"""The host's key table. Its owner serialises every call.

Re-inserting a live id is an error. A lookup returns None for an id the
table does not hold, and a lookup past the maximum age evicts the entry and
returns None too; a miss is the host's normal first sight of a fresh key,
so it costs no exception. An entry holds the key, built once at
`put` as a `channel.Key`: its bytes (their length fixes the suite, see
`channel.SUITES`) and, beside them, their AES-GCM object, which goes
whenever the entry goes. It also holds the context first served under the
key. A context keeps its current and previous key: binding a third drops
the oldest, and detaching the context drops them all.
"""

from __future__ import annotations

from dataclasses import dataclass

from .channel import Key
from .clock import Clock
from .errors import DuplicateIdError


@dataclass
class KeyStoreEntry:
    key: Key
    inserted_at: float
    context_id: str | None = None  # the context first served under this key


class KeyStore:
    def __init__(self, clock: Clock, max_age_sec: float) -> None:
        if max_age_sec <= 0:
            raise ValueError("max_age_sec must be positive")
        self._clock = clock
        self._max_age = float(max_age_sec)
        self._entries: dict[str, KeyStoreEntry] = {}
        self._bound: dict[str, list[str]] = {}  # context_id -> [previous, current] key_IDs

    def put(self, key_id: str, key_bits: bytes) -> KeyStoreEntry:
        now = self._clock.now()
        current = self._entries.get(key_id)
        if current is not None and now - current.inserted_at <= self._max_age:
            raise DuplicateIdError(f"key {key_id} already stored")
        self._entries[key_id] = entry = KeyStoreEntry(key=Key(key_bits), inserted_at=now)
        return entry

    def get(self, key_id: str) -> KeyStoreEntry | None:
        entry = self._entries.get(key_id)
        if entry is not None and self._clock.now() - entry.inserted_at > self._max_age:
            del self._entries[key_id]
            return None
        return entry

    def bind(self, key_id: str, context_id: str) -> None:
        entry = self._entries.get(key_id)
        if entry is None or entry.context_id is not None:
            return
        entry.context_id = context_id
        keys = self._bound.setdefault(context_id, [])
        keys.append(key_id)
        while len(keys) > 2:
            self._entries.pop(keys.pop(0), None)

    def discard(self, key_id: str) -> None:
        self._entries.pop(key_id, None)

    def detach(self, context_id: str) -> None:
        for key_id in self._bound.pop(context_id, ()):
            self._entries.pop(key_id, None)

    def __len__(self) -> int:
        return len(self._entries)
