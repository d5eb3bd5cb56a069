"""The host's key table. Its owner serialises every call.

Re-inserting a live id is an error. A lookup returns None for an id the
table does not hold, and one past the maximum age evicts the entry and
returns None too; a miss is the host's normal first sight of a fresh key,
so it costs no exception. An entry holds the key as a `channel.Key`, built
once at `put`, and which of its uses have arrived (`max_uses` for an AEAD
key, one for a pad): a floor below which all have, and the early ones above
it. A use that has arrived or been given up, or that the key does not have,
is refused, so no envelope is served twice. The first use binds the key to
its context. A key leaves on its last use, past `max_age_sec`, or when its
context is detached.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .channel import Key, RefreshPolicy
from .clock import Clock
from .errors import DuplicateIdError, UnknownKeyIdError

# keys with uses due per context: bounds a client that opens keys and never finishes them
MAX_OPEN_KEYS = 8
# early uses kept above a key's floor; a use that many behind was lost, and is given up
REPLAY_WINDOW = 64


@dataclass
class KeyStoreEntry:
    key: Key
    inserted_at: float
    uses: int  # the uses the key has
    floor: int = 0  # every use below it has arrived or been given up
    ahead: set[int] = field(default_factory=set)  # uses above the floor that have arrived
    context_id: str | None = None  # the context of the key's first use


class KeyStore:
    def __init__(self, clock: Clock, policy: RefreshPolicy) -> None:
        self._clock = clock
        self._max_age = float(policy.max_age_sec)
        self._max_uses = policy.max_uses
        self._entries: dict[str, KeyStoreEntry] = {}

    def put(self, key_id: str, key_bits: bytes) -> KeyStoreEntry:
        now = self._clock.now()
        current = self._entries.get(key_id)
        if current is not None and now - current.inserted_at <= self._max_age:
            raise DuplicateIdError(f"key {key_id} already stored")
        key = Key(key_bits)
        self._entries[key_id] = entry = KeyStoreEntry(
            key=key, inserted_at=now, uses=1 if key.aead is None else self._max_uses)
        return entry

    def get(self, key_id: str) -> KeyStoreEntry | None:
        entry = self._entries.get(key_id)
        if entry is not None and self._clock.now() - entry.inserted_at > self._max_age:
            del self._entries[key_id]
            return None
        return entry

    def use(self, key_id: str, entry: KeyStoreEntry, use: int, context_id: str) -> None:
        """Record use `use` of the key for `context_id`: the first binds the
        key, and the last deletes it. Refused with UnknownKeyIdError, with
        nothing recorded, if the entry has left, the use is not due or the
        key serves another context."""
        if (self._entries.get(key_id) is not entry or not entry.floor <= use < entry.uses
                or use in entry.ahead):
            raise UnknownKeyIdError(f"key {key_id} has no use {use} left")
        if entry.context_id is None:
            # the one scan of the table: the context's oldest key beyond the
            # cap goes, and so does every entry past its age, bound or not
            entry.context_id, now, held = context_id, self._clock.now(), []
            for other_id, other in list(self._entries.items()):
                if other is not entry and now - other.inserted_at > self._max_age:
                    del self._entries[other_id]
                elif other is not entry and other.context_id == context_id:
                    held.append(other_id)
            if len(held) >= MAX_OPEN_KEYS:
                del self._entries[held[0]]
        elif entry.context_id != context_id:
            raise UnknownKeyIdError(f"key {key_id} is bound to another context")
        entry.ahead.add(use)
        if len(entry.ahead) > REPLAY_WINDOW:
            entry.floor = min(entry.ahead)
        while entry.floor in entry.ahead:
            entry.ahead.remove(entry.floor)
            entry.floor += 1
        if entry.floor == entry.uses:
            del self._entries[key_id]

    def discard(self, key_id: str, entry: KeyStoreEntry) -> None:
        """Drop a key fetched for a context that left before its first use."""
        if self._entries.get(key_id) is entry and entry.context_id is None:
            del self._entries[key_id]

    def detach(self, context_id: str) -> None:
        for key_id in [k for k, e in self._entries.items() if e.context_id == context_id]:
            del self._entries[key_id]

    def __len__(self) -> int:
        return len(self._entries)
