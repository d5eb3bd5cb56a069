from __future__ import annotations

import pytest

from edgeqkd.errors import DuplicateIdError, NotFoundError
from edgeqkd.keystore import KeyStore


@pytest.fixture
def store(sim_clock):
    return KeyStore(sim_clock, max_age_sec=60)


def test_put_then_get(store):
    store.put("k1", b"\x01" * 32)
    entry = store.get("k1")
    assert entry.key_bits == b"\x01" * 32


def test_duplicate_put_rejected(store):
    store.put("k1", b"a" * 32)
    with pytest.raises(DuplicateIdError):
        store.put("k1", b"b" * 32)


def test_get_missing(store):
    with pytest.raises(NotFoundError):
        store.get("nope")


def test_expiry_after_max_age(sim_clock):
    store = KeyStore(sim_clock, max_age_sec=10)
    store.put("k1", b"x" * 32)
    sim_clock.advance(10)
    assert "k1" in store  # exactly max_age: still alive
    sim_clock.advance(0.001)
    with pytest.raises(NotFoundError):
        store.get("k1")
    assert "k1" not in store


def test_reinsert_after_expiry(sim_clock):
    store = KeyStore(sim_clock, max_age_sec=5)
    store.put("k1", b"old!" * 8)
    sim_clock.advance(6)
    store.put("k1", b"new!" * 8)  # stale slot may be reused
    assert store.get("k1").key_bits == b"new!" * 8


def test_purge_and_discard(store):
    store.put("a", b"1" * 16)
    store.put("b", b"2" * 16)
    store.purge(["a"])
    store.purge(["b", "missing"])
    assert len(store) == 0
