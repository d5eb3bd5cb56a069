from __future__ import annotations

import gc
import weakref

import pytest
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from edgeqkd.channel import RefreshPolicy
from edgeqkd.errors import DuplicateIdError, UnknownKeyIdError
from edgeqkd.keystore import MAX_OPEN_KEYS, REPLAY_WINDOW, KeyStore

from conftest import holds


def key_store(clock, max_uses=3, max_age_sec=60):
    return KeyStore(clock, RefreshPolicy(max_uses, max_age_sec))


@pytest.fixture
def store(sim_clock):
    return key_store(sim_clock)


def held(store, *key_ids):
    return [key_id for key_id in key_ids if holds(store, key_id)]


def use(store, key_id, n, context_id="ctx-a"):
    store.use(key_id, store.get(key_id), n, context_id)


def arrived(entry):
    return set(range(entry.floor)) | entry.ahead


def test_put_then_get(store):
    store.put("k1", b"\x01" * 32)
    entry = store.get("k1")
    assert entry.key.bits == b"\x01" * 32
    assert isinstance(entry.key.aead, AESGCM)
    assert (entry.uses, arrived(entry), entry.context_id) == (3, set(), None)
    pad = store.put("pad", b"\x02" * 256)
    assert pad.key.aead is None  # a pad has no AES-GCM object
    assert pad.uses == 1  # and one use, whatever max_uses says


def test_duplicate_put_rejected(store):
    store.put("k1", b"a" * 32)
    with pytest.raises(DuplicateIdError):
        store.put("k1", b"b" * 32)


def test_get_missing(store):
    assert store.get("nope") is None


def test_expiry_after_max_age(sim_clock):
    store = key_store(sim_clock, max_age_sec=10)
    store.put("k1", b"x" * 32)
    sim_clock.advance(10)
    assert held(store, "k1") == ["k1"]  # exactly max_age: still alive
    sim_clock.advance(0.001)
    assert store.get("k1") is None
    assert len(store) == 0


def test_get_is_none_after_a_miss_an_expiry_and_a_last_use(sim_clock):
    store = key_store(sim_clock, max_uses=2, max_age_sec=10)
    assert store.get("never-stored") is None
    store.put("old", b"o" * 32)
    sim_clock.advance(11)
    assert store.get("old") is None  # expired, and evicted by the lookup
    assert len(store) == 0
    store.put("k", b"k" * 32)
    use(store, "k", 1)  # uses arrive in any order
    assert arrived(store.get("k")) == {1}
    use(store, "k", 0)
    assert store.get("k") is None  # its last use: the key left
    assert len(store) == 0


def test_reinsert_after_expiry(sim_clock):
    store = key_store(sim_clock, max_age_sec=5)
    store.put("k1", b"old!" * 8)
    sim_clock.advance(6)
    store.put("k1", b"new!" * 8)  # stale slot may be reused
    assert store.get("k1").key.bits == b"new!" * 8


def test_a_use_is_recorded_once_and_only_if_the_key_has_it(store):
    entry = store.put("k", b"k" * 32)
    use(store, "k", 1)
    for n in (1, 3, 1000):  # arrived already, and beyond max_uses=3
        with pytest.raises(UnknownKeyIdError):
            use(store, "k", n)
    assert arrived(entry) == {1}
    store.put("pad", b"p" * 256)
    use(store, "pad", 0)  # a pad's one use
    with pytest.raises(UnknownKeyIdError):
        store.use("pad", entry, 0, "ctx-a")  # an entry no longer in the table
    assert held(store, "k", "pad") == ["k"]


def test_first_use_binds_the_key_to_its_context(store):
    entry = store.put("k", b"k" * 32)
    use(store, "k", 0)
    with pytest.raises(UnknownKeyIdError):
        use(store, "k", 1, "ctx-b")  # a later context does not take the key over
    assert (entry.context_id, arrived(entry)) == ("ctx-a", {0})  # and records nothing
    use(store, "k", 1)
    assert arrived(entry) == {0, 1}


def test_a_context_holds_at_most_max_open_keys(store):
    keys = [f"a{i}" for i in range(MAX_OPEN_KEYS + 1)]
    for key_id in ["b1", *keys]:
        store.put(key_id, key_id.encode().ljust(32, b"."))
    use(store, "b1", 0, "ctx-b")
    for key_id in keys[:MAX_OPEN_KEYS]:
        use(store, key_id, 0)
    assert held(store, "b1", *keys) == ["b1", *keys]
    use(store, keys[-1], 0)  # one key too many: the context's oldest goes
    assert held(store, "b1", *keys) == ["b1", *keys[1:]]


def test_the_record_stays_small_whatever_max_uses_is(sim_clock):
    store = key_store(sim_clock, max_uses=2**40)
    entry = store.put("k", b"k" * 32)
    for n in (1, 0, 3, 2, 4):  # nearly in order, as lanes in flight deliver them
        use(store, "k", n)
    assert (entry.floor, entry.ahead) == (5, set())
    use(store, "k", 2**40 - 1)  # the last use the key has
    assert (entry.floor, entry.ahead) == (5, {2**40 - 1})
    with pytest.raises(UnknownKeyIdError):
        use(store, "k", 2**40)


def test_a_use_lost_on_the_way_is_given_up(sim_clock):
    store = key_store(sim_clock, max_uses=REPLAY_WINDOW + 3)
    entry = store.put("k", b"k" * 32)
    for n in range(1, REPLAY_WINDOW + 1):  # use 0 never arrives
        use(store, "k", n)
    assert (entry.floor, len(entry.ahead)) == (0, REPLAY_WINDOW)
    use(store, "k", REPLAY_WINDOW + 1)  # one more: use 0 is given up
    assert (entry.floor, entry.ahead) == (REPLAY_WINDOW + 2, set())
    with pytest.raises(UnknownKeyIdError):
        use(store, "k", 0)  # refused if it turns up late
    use(store, "k", REPLAY_WINDOW + 2)  # every other use has arrived: the key left
    assert not holds(store, "k")
    entry = store.put("k2", b"2" * 32)
    for n in range(2, REPLAY_WINDOW + 3):  # uses 0 and 1 are lost
        use(store, "k2", n)
    assert (entry.floor, entry.ahead) == (REPLAY_WINDOW + 3, set())  # both given up
    assert not holds(store, "k2")


def test_binding_sweeps_out_expired_entries(sim_clock):
    store = key_store(sim_clock, max_age_sec=10)
    store.put("stale", b"s" * 32)  # fetched, never used
    store.put("stale-bound", b"b" * 32)
    use(store, "stale-bound", 0, "ctx-b")
    claimed = store.put("claimed", b"c" * 32)
    sim_clock.advance(11)
    store.put("fresh", b"f" * 32)
    assert len(store) == 4  # nothing looks the stale ids up
    # claimed while it was young, recorded once it is not: the sweep its
    # binding makes spares it
    store.use("claimed", claimed, 0, "ctx-a")
    assert len(store) == 2
    assert holds(store, "fresh")


def test_discard_drops_only_an_unbound_entry(store):
    entry = store.put("k", b"k" * 32)
    store.discard("k", store.put("other", b"o" * 32))  # not the entry under "k"
    use(store, "other", 0)
    store.discard("other", store.get("other"))  # bound: it stays
    assert held(store, "k", "other") == ["k", "other"]
    store.discard("k", entry)
    assert held(store, "k", "other") == ["other"]


def test_detach_drops_every_key_of_the_context(store):
    for key_id in ("a1", "a2", "b1", "unbound"):
        store.put(key_id, key_id.encode() * 16)
    use(store, "a1", 0)
    use(store, "a2", 0)
    use(store, "b1", 0, "ctx-b")
    store.detach("ctx-a")
    assert held(store, "a1", "a2", "b1", "unbound") == ["b1", "unbound"]
    store.detach("ctx-a")  # idempotent
    store.detach("never-bound")
    assert len(store) == 2


def _last_use(store, clock):
    for n in range(3):
        use(store, "k", n)


def _discard(store, clock):
    store.discard("k", store.get("k"))


def _detach(store, clock):
    use(store, "k", 0)
    store.detach("ctx-a")


def _over_the_cap(store, clock):
    use(store, "k", 0)
    for i in range(MAX_OPEN_KEYS):
        store.put(f"k{i}", b"%32d" % i)
        use(store, f"k{i}", 0)


def _expire(store, clock):
    clock.advance(61)
    assert store.get("k") is None


@pytest.mark.parametrize("drop", [_last_use, _discard, _detach, _over_the_cap, _expire],
                         ids=["last-use", "discard", "detach", "over-the-cap", "expiry"])
def test_dropping_an_entry_drops_its_cipher(store, sim_clock, drop):
    entry = store.put("k", b"k" * 32)
    key = weakref.ref(entry.key)  # the key's bytes and their AES-GCM object
    del entry
    drop(store, sim_clock)
    assert not holds(store, "k")
    gc.collect()
    assert key() is None
