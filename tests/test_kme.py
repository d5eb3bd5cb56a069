from __future__ import annotations

import threading
import uuid

import pytest
from hypothesis import given, settings, strategies as st

from edgeqkd.clock import SimulatedClock
from edgeqkd.errors import (
    AlreadyConsumedError,
    BadLengthError,
    EdgeQkdError,
    InvalidConfigError,
    KeyExhaustedError,
    UnknownKeyIdError,
    UnknownPeerError,
    WrongPeerError,
)
from edgeqkd.kme import EntropyPool, KmeApi, KmeClient, new_kme_pair
from edgeqkd.transport import InprocTransport
from edgeqkd.wire import dumps, loads

SEED = b"\x42" * 32


def make_pair(rate=1000, cap=4096, clock=None, seed=SEED, **kw):
    return new_kme_pair(seed, rate, cap, clock=clock or SimulatedClock(), **kw)


def test_pair_starts_full():
    master, slave = make_pair(rate=1000, cap=4096)
    assert master.pair.pool.available_bits == 4096
    assert master.pair.pool is slave.pair.pool


def test_invalid_capacity():
    with pytest.raises(InvalidConfigError):
        new_kme_pair(SEED, 1000, 0)
    with pytest.raises(InvalidConfigError):
        new_kme_pair(SEED, -1, 256)


def test_zero_rate_never_refills():
    clock = SimulatedClock()
    master, _ = make_pair(rate=0, cap=256, clock=clock)
    master.get_enc_keys("sae-mec", size=256)
    clock.advance(3600)
    assert master.pair.pool.accrue() == 0


def test_same_seed_reproduces_key_stream():
    # identical seed and dispense sequence => byte-identical keys and ids
    transcripts = []
    for _ in range(2):
        master, slave = make_pair(clock=SimulatedClock())
        out = []
        for _ in range(4):
            out.extend(master.get_enc_keys("sae-mec", size=256))
        out.extend(master.get_enc_keys("sae-mec", size=64, number=2))
        released = slave.get_dec_keys("sae-client", [k for k, _ in out])
        transcripts.append((out, released))
    assert transcripts[0] == transcripts[1]


@settings(max_examples=40)
@given(count=st.integers(1, 16), key_length=st.sampled_from([8, 64, 256, 1024]),
       warmup=st.integers(0, 3))
def test_batch_equals_single_dispenses(count, key_length, warmup):
    batched, single = make_pair(cap=1 << 16)[0], make_pair(cap=1 << 16)[0]
    for master in (batched, single):
        for _ in range(warmup):
            master.get_enc_keys("sae-mec", size=256)
    keys = batched.get_enc_keys("sae-mec", size=key_length, number=count)
    assert keys == [key for _ in range(count)
                    for key in single.get_enc_keys("sae-mec", size=key_length)]
    assert batched.pair.stats() == single.pair.stats()
    assert [len(key) for _, key in keys] == [key_length // 8] * count


def test_batch_over_budget_draws_nothing():
    master, _ = make_pair(rate=0, cap=1024)
    master.get_enc_keys("sae-mec", size=256)
    pair = master.pair
    before = (pair.stats(), pair.pool._bits._counter, pair.pool._bits._buffer, pair._ids._buffer)
    with pytest.raises(KeyExhaustedError):
        master.get_enc_keys("sae-mec", size=256, number=4)  # 768 bits left
    after = (pair.stats(), pair.pool._bits._counter, pair.pool._bits._buffer, pair._ids._buffer)
    assert after == before
    assert pair.pool.dispensed_bits == 256
    # what the refused batch would have taken is still the next material
    expected = make_pair(rate=0, cap=1024)[0]
    assert master.get_enc_keys("sae-mec", size=256, number=3) == \
        expected.get_enc_keys("sae-mec", size=256, number=4)[1:]


def test_dispense_decrements_budget():
    master, _ = make_pair(rate=0, cap=300)
    keys = master.get_enc_keys("sae-mec", size=256)
    assert len(keys) == 1
    assert len(keys[0][1]) == 32
    assert master.pair.pool.available_bits == 44


def test_dispense_insufficient_budget():
    master, _ = make_pair(rate=0, cap=300)
    master.get_enc_keys("sae-mec", size=256)
    with pytest.raises(KeyExhaustedError):
        master.get_enc_keys("sae-mec", size=256)


def test_multi_key_dispense_and_release():
    master, slave = make_pair(rate=0, cap=4096)
    keys = master.get_enc_keys("sae-mec", size=256, number=2)
    assert len({kid for kid, _ in keys}) == 2
    assert master.pair.pool.available_bits == 4096 - 512
    for kid, key in keys:
        released = slave.get_dec_keys("sae-client", [kid])
        assert released == [(kid, key)]


def test_release_is_consume_once_and_purges():
    master, slave = make_pair()
    (kid, key), = master.get_enc_keys("sae-mec", size=256)
    assert master.pair.holds_material(kid)
    (kid2, key2), = slave.get_dec_keys("sae-client", [kid])
    assert (kid2, key2) == (kid, key)
    assert not master.pair.holds_material(kid)
    with pytest.raises(AlreadyConsumedError):
        slave.get_dec_keys("sae-client", [kid])


def test_release_unknown_id():
    _, slave = make_pair()
    with pytest.raises(UnknownKeyIdError):
        slave.get_dec_keys("sae-client", [str(uuid.uuid4())])


def test_release_wrong_peer():
    master, slave = make_pair()
    (kid, _), = master.get_enc_keys("sae-mec", size=256)
    with pytest.raises(WrongPeerError):
        slave.get_dec_keys("sae-intruder", [kid])
    with pytest.raises(WrongPeerError):
        master.get_dec_keys("sae-client", [kid])


def test_dispense_side_and_peer_checks():
    master, slave = make_pair()
    with pytest.raises(UnknownPeerError):
        slave.get_enc_keys("sae-client", size=256)
    with pytest.raises(UnknownPeerError):
        master.get_enc_keys("sae-other", size=256)


@pytest.mark.parametrize("length,count", [(0, 1), (100, 1), (-8, 1), (256, 0), (256, 1000)])
def test_dispense_bad_length_or_count(length, count):
    master, _ = make_pair()
    with pytest.raises(BadLengthError):
        master.get_enc_keys("sae-mec", size=length, number=count)


def test_status_floor_division():
    master, _ = make_pair(rate=0, cap=1024)
    assert master.get_status("sae-mec", size=256)["stored_key_count"] == 4
    master2, _ = make_pair(rate=0, cap=100)
    assert master2.get_status("sae-mec", size=256)["stored_key_count"] == 0


def test_status_after_accrual():
    clock = SimulatedClock()
    master, slave = make_pair(rate=1000, cap=4096, clock=clock)
    # drain to zero, then accrue for 2 simulated seconds
    master.get_enc_keys("sae-mec", size=4096)
    assert master.pair.pool.available_bits == 0
    clock.advance(2)
    expected = (2 * 1000) // 256  # independent token-bucket arithmetic
    assert expected == 7
    assert slave.get_status("sae-client", size=256)["stored_key_count"] == expected


def rest_pair():
    """Both entities of a pair served by their KmeApi over an InprocTransport."""
    master, slave = make_pair()
    transport = InprocTransport(clock=SimulatedClock())
    transport.register("kme-client", KmeApi(master).router())
    transport.register("kme-mec", KmeApi(slave).router())
    return master, slave, transport


@pytest.mark.parametrize("method, url, body", [
    ("GET", "http://kme-client/api/v1/keys/sae-mec/status?size=0", b""),
    ("POST", "http://kme-client/api/v1/keys/sae-mec/enc_keys", dumps({"number": True, "size": 256})),
    # "\u0662\u0665\u0666" percent-encoded: a URL itself must be ASCII
    ("GET", "http://kme-client/api/v1/keys/sae-mec/status?size=%D9%A2%D9%A5%D9%A6", b""),
    ("GET", "http://kme-client/api/v1/keys/sae-mec/status?size=2_56", b""),
    ("POST", "http://kme-mec/api/v1/keys/sae-client/dec_keys", dumps({"key_IDs": [{"key_ID": None}]})),
], ids=["status-size-zero", "enc-keys-boolean-number", "status-size-arabic-indic-digits",
        "status-size-underscore", "dec-keys-null-key-id"])
def test_rest_rejects_a_zero_or_boolean_number(method, url, body):
    master, _, transport = rest_pair()
    response = transport.request(src="gateway", channel="qkd", method=method, url=url, body=body)
    assert response.status == 400
    assert loads(response.body)["code"] == "bad-length"
    assert master.pair.dispensed_keys == 0


def test_rest_refuses_a_repeated_key_id_and_releases_nothing():
    master, _, transport = rest_pair()
    (kid, key), = master.get_enc_keys("sae-mec", size=256)
    response = transport.request(
        src="edge-a", channel="qkd", method="POST",
        url="http://kme-mec/api/v1/keys/sae-client/dec_keys",
        body=dumps({"key_IDs": [{"key_ID": kid}, {"key_ID": kid}]}))
    assert response.status == 400
    assert loads(response.body)["code"] == "bad-length"
    client = KmeClient(transport, src="edge-a", base_url="http://kme-mec", channel="qkd")
    assert client.get_dec_keys("sae-client", [kid]) == [(kid, key)]


def _answers(master, slave) -> list:
    """The same calls on any two key sources: each result, or its error's type."""
    (kid, _), (kid2, _) = keys = master.get_enc_keys("sae-mec", size=256, number=2)
    calls = [
        lambda: master.get_status("sae-mec", size=256),
        lambda: slave.get_status("sae-client"),
        lambda: slave.get_dec_keys("sae-client", [kid]),
        lambda: slave.get_dec_keys("sae-client", [kid]),
        lambda: slave.get_dec_keys("sae-intruder", [kid2]),
        lambda: master.get_dec_keys("sae-client", [kid2]),
        lambda: slave.get_dec_keys("sae-client", [kid2, kid2]),
        lambda: slave.get_dec_keys("sae-client", ["00000000-0000-4000-8000-000000000000"]),
        lambda: master.get_enc_keys("sae-other", size=256),
        lambda: slave.get_enc_keys("sae-client", size=256),
        lambda: master.get_enc_keys("sae-mec", size=12),
        lambda: master.get_enc_keys("sae-mec", size=256, number=0),
        lambda: master.get_status("sae-nobody"),
        lambda: slave.get_status("sae-client", size=0),
        lambda: slave.get_dec_keys("sae-client", [kid2]),
        lambda: master.get_status("sae-mec", size=256),
    ]
    out: list = [keys]
    for call in calls:
        try:
            out.append(call())
        except EdgeQkdError as exc:
            out.append(type(exc))
    return out


def test_a_handle_and_a_rest_client_give_the_same_answers():
    direct = _answers(*make_pair())
    _, _, transport = rest_pair()
    over_rest = _answers(
        KmeClient(transport, src="gateway", base_url="http://kme-client", channel="qkd"),
        KmeClient(transport, src="edge-a", base_url="http://kme-mec", channel="qkd"))
    assert direct == over_rest
    assert [a for a in direct if isinstance(a, type)] == [
        AlreadyConsumedError, WrongPeerError, WrongPeerError, BadLengthError, UnknownKeyIdError,
        UnknownPeerError, UnknownPeerError, BadLengthError, BadLengthError, UnknownPeerError,
        BadLengthError,
    ]
    keys = direct[0]
    assert direct[3] == [keys[0]] and direct[-2] == [keys[1]]
    assert direct[1]["stored_key_count"] == 4096 // 256 - 2


@pytest.mark.parametrize("body", [
    '{"number":1,"size":256}'.encode("utf-16"),
    b"\xef\xbb\xbf" + b'{"number":1,"size":256}',
], ids=["utf-16", "utf-8-bom"])
def test_rest_answers_json_that_is_not_plain_utf8_as_malformed(body):
    master, _ = make_pair()
    transport = InprocTransport(clock=SimulatedClock())
    transport.register("kme-client", KmeApi(master).router())
    response = transport.request(src="gateway", channel="qkd", method="POST",
                                 url="http://kme-client/api/v1/keys/sae-mec/enc_keys",
                                 body=body)
    assert response.status == 400
    assert loads(response.body)["code"] == "malformed"
    assert master.pair.dispensed_keys == 0


def test_status_unknown_peer():
    master, _ = make_pair()
    with pytest.raises(UnknownPeerError):
        master.get_status("sae-nobody")


def test_accrue_arithmetic():
    clock = SimulatedClock()
    pool = EntropyPool(SEED, 1000, 4096, clock)
    pool.draw(4096)  # empty it
    clock.advance(1)
    assert pool.accrue() == 1000
    pool.draw(1000)
    clock.advance(10)
    assert pool.accrue() == 4096  # capped at capacity
    before = pool.available_bits
    assert pool.accrue(clock.now()) == before  # zero elapsed: unchanged


def test_accrue_clamps_clock_regression():
    clock = SimulatedClock(start=100.0)
    pool = EntropyPool(SEED, 1000, 4096, clock)
    pool.draw(4096)
    assert pool.accrue(now=50.0) == 0  # going backwards adds nothing
    clock.advance(1)
    assert pool.accrue() == 1000


def test_conservation_counters():
    clock = SimulatedClock()
    master, _ = make_pair(rate=1000, cap=4096, clock=clock)
    total = 0
    for _ in range(5):
        master.get_enc_keys("sae-mec", size=512, number=2)
        total += 2 * 512
        clock.advance(1)
    stats = master.pair.stats()
    assert stats["dispensed_bits"] == total
    assert stats["dispensed_bits"] <= stats["produced_bits"]
    assert 0 <= stats["available_bits"] <= 4096


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------

op_strategy = st.lists(
    st.one_of(
        st.tuples(st.just("enc"), st.sampled_from([64, 128, 256]), st.integers(1, 3)),
        st.tuples(st.just("dec"), st.integers(0, 20), st.just(0)),
    ),
    min_size=1, max_size=40,
)


@settings(max_examples=60, deadline=None)
@given(ops=op_strategy)
def test_pairing_property(ops):
    """Every dispensed id is slave-retrievable exactly once, byte-identical."""
    clock = SimulatedClock()
    master, slave = new_kme_pair(SEED, 0, 1 << 20, clock=clock)
    dispensed: dict[str, bytes] = {}
    released: set[str] = set()
    order: list[str] = []
    for kind, a, b in ops:
        if kind == "enc":
            for kid, key in master.get_enc_keys("sae-mec", size=a, number=b):
                assert kid not in dispensed
                dispensed[kid] = key
                order.append(kid)
        else:
            pending = [k for k in order if k not in released]
            if not pending:
                continue
            kid = pending[a % len(pending)]
            out = slave.get_dec_keys("sae-client", [kid])
            assert out == [(kid, dispensed[kid])]
            released.add(kid)
    # every remaining id still releases exactly once, then never again
    for kid in order:
        if kid in released:
            with pytest.raises(AlreadyConsumedError):
                slave.get_dec_keys("sae-client", [kid])
        else:
            assert slave.get_dec_keys("sae-client", [kid]) == [(kid, dispensed[kid])]
    assert master.pair.pool.dispensed_bits == sum(len(v) * 8 for v in dispensed.values())


def test_concurrent_dispense_and_release_no_double():
    master, slave = new_kme_pair(SEED, 0, 1 << 22, clock=SimulatedClock())
    ids = [kid for kid, _ in master.get_enc_keys("sae-mec", size=64, number=100)]
    wins: dict[str, int] = {kid: 0 for kid in ids}
    errors: dict[str, int] = {kid: 0 for kid in ids}
    lock = threading.Lock()
    barrier = threading.Barrier(8)

    def worker():
        barrier.wait()
        for kid in ids:
            try:
                slave.get_dec_keys("sae-client", [kid])
                with lock:
                    wins[kid] += 1
            except AlreadyConsumedError:
                with lock:
                    errors[kid] += 1

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert all(w == 1 for w in wins.values())
    assert all(e == 7 for e in errors.values())
