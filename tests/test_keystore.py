from __future__ import annotations

import gc
import weakref

import pytest
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from edgeqkd.errors import DuplicateIdError
from edgeqkd.keystore import KeyStore

from conftest import holds


@pytest.fixture
def store(sim_clock):
    return KeyStore(sim_clock, max_age_sec=60)


def held(store, *key_ids):
    return [key_id for key_id in key_ids if holds(store, key_id)]


def test_put_then_get(store):
    store.put("k1", b"\x01" * 32)
    entry = store.get("k1")
    assert entry.key.bits == b"\x01" * 32
    assert isinstance(entry.key.aead, AESGCM)
    assert entry.context_id is None
    assert store.put("pad", b"\x02" * 256).key.aead is None  # a pad has no AES-GCM object


def test_duplicate_put_rejected(store):
    store.put("k1", b"a" * 32)
    with pytest.raises(DuplicateIdError):
        store.put("k1", b"b" * 32)


def test_get_missing(store):
    assert store.get("nope") is None


def test_expiry_after_max_age(sim_clock):
    store = KeyStore(sim_clock, max_age_sec=10)
    store.put("k1", b"x" * 32)
    sim_clock.advance(10)
    assert held(store, "k1") == ["k1"]  # exactly max_age: still alive
    sim_clock.advance(0.001)
    assert store.get("k1") is None
    assert len(store) == 0


def test_get_is_none_after_a_miss_an_expiry_and_an_eviction(sim_clock):
    store = KeyStore(sim_clock, max_age_sec=10)
    assert store.get("never-stored") is None
    store.put("old", b"o" * 32)
    sim_clock.advance(11)
    assert store.get("old") is None  # expired, and evicted by the lookup
    assert len(store) == 0
    for key_id in ("a1", "a2", "a3"):
        store.put(key_id, key_id.encode() * 16)
        store.bind(key_id, "ctx-a")
    assert store.get("a1") is None  # the context's third key dropped its oldest
    assert store.get("a3").context_id == "ctx-a"


def test_reinsert_after_expiry(sim_clock):
    store = KeyStore(sim_clock, max_age_sec=5)
    store.put("k1", b"old!" * 8)
    sim_clock.advance(6)
    store.put("k1", b"new!" * 8)  # stale slot may be reused
    assert store.get("k1").key.bits == b"new!" * 8


def test_discard(store):
    store.put("a", b"1" * 16)
    store.discard("a")
    store.discard("missing")
    assert len(store) == 0


def test_bind_keeps_current_and_previous_key_per_context(store):
    for key_id in ("a1", "a2", "a3", "b1"):
        store.put(key_id, key_id.encode() * 8)
    store.bind("a1", "ctx-a")
    store.bind("b1", "ctx-b")
    store.bind("a2", "ctx-a")
    assert held(store, "a1", "a2", "a3", "b1") == ["a1", "a2", "a3", "b1"]
    store.bind("a3", "ctx-a")  # a1 is two keys back: it goes
    assert held(store, "a1", "a2", "a3", "b1") == ["a2", "a3", "b1"]
    assert store.get("a3").context_id == "ctx-a"


def test_bind_happens_once_per_key(store):
    store.put("k", b"k" * 32)
    store.bind("k", "ctx-a")
    store.bind("k", "ctx-b")  # a later context does not take the key over
    assert store.get("k").context_id == "ctx-a"
    store.bind("missing", "ctx-a")  # a key no longer held binds nothing
    assert len(store) == 1


def test_detach_drops_every_key_of_the_context(store):
    for key_id in ("a1", "a2", "b1", "unbound"):
        store.put(key_id, key_id.encode() * 8)
    store.bind("a1", "ctx-a")
    store.bind("a2", "ctx-a")
    store.bind("b1", "ctx-b")
    store.detach("ctx-a")
    assert held(store, "a1", "a2", "b1", "unbound") == ["b1", "unbound"]
    store.detach("ctx-a")  # idempotent
    store.detach("never-bound")
    assert len(store) == 2


def _discard(store, clock):
    store.discard("k")


def _detach(store, clock):
    store.bind("k", "ctx-a")
    store.detach("ctx-a")


def _third_bind(store, clock):
    store.bind("k", "ctx-a")
    for key_id in ("k2", "k3"):
        store.put(key_id, key_id.encode() * 16)
        store.bind(key_id, "ctx-a")


def _expire(store, clock):
    clock.advance(61)
    assert store.get("k") is None


@pytest.mark.parametrize("drop", [_discard, _detach, _third_bind, _expire],
                         ids=["discard", "detach", "third-bind", "expiry"])
def test_dropping_an_entry_drops_its_cipher(store, sim_clock, drop):
    entry = store.put("k", b"k" * 32)
    key = weakref.ref(entry.key)  # the key's bytes and their AES-GCM object
    del entry
    drop(store, sim_clock)
    assert not holds(store, "k")
    gc.collect()
    assert key() is None
