"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (echoed again in the terminal summary)."""

from __future__ import annotations

import itertools
import math
import random
import string
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from edgeqkd.clock import SimulatedClock
from edgeqkd.control import AppInfo, HostDescriptor, InstanceInfo, Placement, place_app
from edgeqkd.errors import AlreadyConsumedError, CapacityExhaustedError
from edgeqkd.harness import ScenarioConfig, Stack, run_scenario
from edgeqkd.host import BUILTIN_HANDLERS
from edgeqkd.kme import new_kme_pair
from conftest import record_criterion

SEED_HEX = "c0ffee17" * 8


def demo_doc(**overrides):
    doc = {
        "qkd": {"seed": SEED_HEX, "rate_bits_per_sec": 100_000, "capacity_bits": 1 << 20},
        "catalog": [
            {"app_name": "fn-echo", "provider": "demo", "version": "1.0", "required_slots": 1},
            {"app_name": "fn-upper", "provider": "demo", "version": "1.0", "required_slots": 1},
            {"app_name": "fn-sum", "provider": "demo", "version": "1.0", "required_slots": 1},
        ],
        "hosts": [{"host_id": "edge-a", "total_slots": 4}, {"host_id": "edge-b", "total_slots": 4}],
        "bindings": [
            {"path_prefix": "/echo", "app_name": "fn-echo", "provider": "demo", "version": "1.0"},
            {"path_prefix": "/upper", "app_name": "fn-upper", "provider": "demo", "version": "1.0"},
            {"path_prefix": "/sum", "app_name": "fn-sum", "provider": "demo", "version": "1.0"},
        ],
        "policy": {"max_uses": 7, "max_age_sec": 1e9},
        "workload": [],
        "clock": "simulated",
    }
    doc.update(overrides)
    return doc


def _criterion(name):
    """Record the verdict line even when the assertion machinery trips."""
    def decorator(fn):
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                record_criterion(name, False)
                raise
            record_criterion(name, True)
        wrapper.__name__ = fn.__name__
        return wrapper
    return decorator


# ---------------------------------------------------------------------------
# 1. End-to-end transparency
# ---------------------------------------------------------------------------

@_criterion("C1 end-to-end transparency (3 handlers x 100 bodies, <10s)")
def test_c1_transparency():
    rng = random.Random(0xC1)
    ascii_pool = string.ascii_letters + string.digits + " _-"
    cases = []
    for i in range(100):
        cases.append(("/echo", "fn-echo", rng.randbytes(rng.randint(0, 512))))
        cases.append(("/upper", "fn-upper",
                      "".join(rng.choice(ascii_pool) for _ in range(rng.randint(0, 80))).encode()))
        cases.append(("/sum", "fn-sum",
                      str([rng.randint(-1000, 1000) for _ in range(rng.randint(0, 30))]).encode()))
    stack = Stack.build(ScenarioConfig.from_doc(demo_doc()))
    started = time.monotonic()
    for path, handler, body in cases:
        response = stack.client_request(path, body)
        assert response.status == 200, (path, body, response.body)
        assert response.body == BUILTIN_HANDLERS[handler](body)  # direct-call oracle
    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"300 transparent round trips took {elapsed:.2f}s"


# ---------------------------------------------------------------------------
# 2. Pairing oracle under concurrency
# ---------------------------------------------------------------------------

@_criterion("C2 pairing oracle (1000 sequences, 10 pairs, 8-way callers)")
def test_c2_pairing_oracle():
    rng = random.Random(0xC2)
    pairs = [new_kme_pair(bytes([i]) * 32, 0, 1 << 22, clock=SimulatedClock())
             for i in range(10)]
    plan = [(rng.randrange(10), rng.choice([64, 128, 256]), rng.randint(1, 2))
            for _ in range(1000)]

    dispensed: dict[tuple[int, str], bytes] = {}
    successes: dict[tuple[int, str], list[bytes]] = {}
    already: dict[tuple[int, str], int] = {}
    lock = threading.Lock()

    def release(pair_idx: int, key_id: str) -> None:
        _, slave = pairs[pair_idx]
        try:
            out = slave.get_dec_keys("sae-client", [key_id])
            with lock:
                successes.setdefault((pair_idx, key_id), []).append(out[0][1])
        except AlreadyConsumedError:
            with lock:
                already[(pair_idx, key_id)] = already.get((pair_idx, key_id), 0) + 1

    with ThreadPoolExecutor(max_workers=8) as pool:
        def sequence(args):
            pair_idx, length, count = args
            master, _ = pairs[pair_idx]
            keys = master.get_enc_keys("sae-mec", size=length, number=count)
            with lock:
                for key_id, key in keys:
                    dispensed[(pair_idx, key_id)] = key
            futures = []
            for key_id, _ in keys:
                futures.append(pool.submit(release, pair_idx, key_id))
                futures.append(pool.submit(release, pair_idx, key_id))  # racing duplicate
            return futures

        inner = [f for args in plan for f in pool.submit(sequence, args).result()]
        for future in inner:
            future.result()

    assert len(dispensed) >= 1000
    for key, material in dispensed.items():
        wins = successes.get(key, [])
        assert len(wins) == 1, f"double or zero release for {key}: {len(wins)}"
        assert wins[0] == material
        assert already.get(key, 0) == 1  # the racing duplicate always lost
    for master, _ in pairs:
        stats = master.pair.stats()
        assert stats["dispensed_bits"] <= stats["produced_bits"]


# ---------------------------------------------------------------------------
# 3. Consume-once, racing duplicates
# ---------------------------------------------------------------------------

@_criterion("C3 consume-once holds in 10000/10000 racing trials")
def test_c3_consume_once():
    trials = 10_000
    master, slave = new_kme_pair(b"\xc3" * 32, 0, trials * 64, clock=SimulatedClock())
    ids: list[str] = []
    while len(ids) < trials:
        batch = min(100, trials - len(ids))
        ids.extend(k for k, _ in master.get_enc_keys("sae-mec", size=64, number=batch))

    outcomes: dict[str, list[str]] = {kid: [] for kid in ids}
    lock = threading.Lock()

    def attempt(kid: str) -> None:
        try:
            slave.get_dec_keys("sae-client", [kid])
            result = "ok"
        except AlreadyConsumedError:
            result = "already"
        with lock:
            outcomes[kid].append(result)

    with ThreadPoolExecutor(max_workers=8) as pool:
        futures = []
        for kid in ids:
            futures.append(pool.submit(attempt, kid))
            futures.append(pool.submit(attempt, kid))
        for future in futures:
            future.result()

    violations = [kid for kid, res in outcomes.items()
                  if sorted(res) != ["already", "ok"]]
    assert not violations, f"{len(violations)} trials broke consume-once"
    # and the material is purged
    assert not any(master.pair.holds_material(kid) for kid in ids[:100])


# ---------------------------------------------------------------------------
# 4. Conservation and metric cross-check
# ---------------------------------------------------------------------------

@_criterion("C4 conservation: dispensed <= accrued + capacity; metrics exact")
def test_c4_conservation():
    scenarios = [
        demo_doc(workload=[
            {"path": "/echo", "body": "conservation check body", "repeat": 9},
            {"path": "/sum", "body": "[1,2,3]", "repeat": 4},
        ]),
        demo_doc(qkd={"seed": SEED_HEX, "rate_bits_per_sec": 1000, "capacity_bits": 256},
                 policy={"max_uses": 1, "max_age_sec": 1e9},
                 workload=[{"path": "/echo", "body": "scarce", "repeat": 30,
                            "interval_sec": 0.1}]),
    ]
    for doc in scenarios:
        result = run_scenario(ScenarioConfig.from_doc(doc))
        pool = result.pool_stats
        initial_capacity = doc["qkd"]["capacity_bits"]
        accrued = pool["produced_bits"] - initial_capacity
        assert pool["dispensed_bits"] <= accrued + initial_capacity
        assert 0 <= pool["available_bits"] <= initial_capacity
        assert result.metrics.qkd_bits_consumed == pool["dispensed_bits"]
        assert result.metrics.qkd_keys_consumed == pool["dispensed_keys"]


# ---------------------------------------------------------------------------
# 5. Refresh accounting
# ---------------------------------------------------------------------------

@_criterion("C5 refresh accounting: keys == ceil(M/max_uses) for all cases")
def test_c5_refresh_accounting():
    for messages, max_uses in ((5, 1), (7, 3), (100, 10), (1, 100)):
        doc = demo_doc(policy={"max_uses": max_uses, "max_age_sec": 1e9},
                       workload=[{"path": "/echo", "body": "refresh accounting probe",
                                  "repeat": messages}])
        result = run_scenario(ScenarioConfig.from_doc(doc))
        expected = math.ceil(messages / max_uses)  # independent oracle
        assert result.metrics.requests_ok == messages
        assert result.metrics.qkd_keys_consumed == expected, (messages, max_uses)


# ---------------------------------------------------------------------------
# 6. Scarcity experiment
# ---------------------------------------------------------------------------

def token_bucket_expected_successes(rate: int, capacity: int, key_length: int,
                                    duration: float) -> float:
    """Arithmetic oracle: initial whole keys plus rate-funded refills."""
    return capacity // key_length + (rate * duration) / key_length


@_criterion("C6 scarcity: requests_ok = 40 +/- 2 under a 1 kbit/s pool")
def test_c6_scarcity():
    doc = demo_doc(
        qkd={"seed": SEED_HEX, "rate_bits_per_sec": 1000, "capacity_bits": 256},
        policy={"max_uses": 1, "max_age_sec": 1e9},
        workload=[{"path": "/echo", "body": "x", "repeat": 100, "interval_sec": 0.1}],
    )
    result = run_scenario(ScenarioConfig.from_doc(doc))
    expected = token_bucket_expected_successes(1000, 256, 256, 10.0)
    assert expected == pytest.approx(40, abs=1)
    ok = result.metrics.requests_ok
    assert abs(ok - expected) <= 2, f"requests_ok={ok}, oracle={expected}"
    assert result.metrics.requests_total == 100
    assert result.metrics.errors == {"key-exhausted": 100 - ok}


# ---------------------------------------------------------------------------
# 7. Confidentiality wiretap
# ---------------------------------------------------------------------------

@_criterion("C7 confidentiality: zero plaintext inter-domain; detector valid")
def test_c7_confidentiality():
    markers = {
        "/echo": "CONFIDENTIAL-echo-1f2e3d4c5b6a79 patient record",
        "/upper": "confidential-upper-98a7b6c5d4e3f2 shift plan",
        "/sum": "[11,22,33,44,55,66,77,88]",
    }
    workload = [{"path": path, "body": body, "repeat": 3}
                for path, body in markers.items()]
    # responses are client plaintext too; the /upper reply differs from its
    # request, so forbid it explicitly (>=16 bytes keeps the scan sound)
    upper_reply = markers["/upper"].upper()
    doc = demo_doc(workload=workload,
                   assertions={"forbidden_plaintexts": list(markers.values()) + [upper_reply],
                               "auto_forbid_bodies": True})
    result = run_scenario(ScenarioConfig.from_doc(doc))
    assert result.metrics.requests_ok == 9
    assert result.wiretap.passed, result.wiretap.findings
    assert result.wiretap.frames_scanned > 0

    # negative control: an identical scenario with one deliberately plaintext
    # route must trip the detector
    bad = demo_doc(workload=[{"path": "/echo", "body": markers["/echo"], "repeat": 1}])
    bad["bindings"][0]["plaintext"] = True
    control = run_scenario(ScenarioConfig.from_doc(bad))
    assert not control.wiretap.passed, "detector failed to flag the plaintext route"


# ---------------------------------------------------------------------------
# 8. Placement oracle
# ---------------------------------------------------------------------------

def brute_force_place(target: AppInfo, hosts) -> Placement:
    reuse = []
    for h in hosts:
        for inst in h.instances.values():
            if inst.shareable and inst.app == target:
                reuse.append((h.host_id, inst.uri))
    if reuse:
        host_id, uri = sorted(reuse)[0]
        return Placement(kind="reuse", host_id=host_id, uri=uri)
    feasible = [h for h in hosts if h.total_slots - h.used_slots >= target.required_slots]
    if not feasible:
        raise CapacityExhaustedError("nothing fits")
    best = sorted(feasible, key=lambda h: (-(h.total_slots - h.used_slots), h.host_id))[0]
    return Placement(kind="deploy", host_id=best.host_id)


def _check_case(target, hosts):
    try:
        expected = brute_force_place(target, hosts)
    except CapacityExhaustedError:
        try:
            place_app(target, hosts)
        except CapacityExhaustedError:
            return
        raise AssertionError(f"expected exhaustion for {hosts}")
    assert place_app(target, hosts) == expected


@_criterion("C8 placement matches brute force (<=10 hosts, <=5 slots)")
def test_c8_placement_oracle():
    other = AppInfo("fn-other", "demo", "1.0", 1)
    checked = 0
    # full slot alphabet for small fleets
    for need in (1, 2, 5):
        target = AppInfo("fn-echo", "demo", "1.0", need)
        for n in range(1, 6):
            for frees in itertools.product(range(6), repeat=n):
                hosts = [HostDescriptor(f"h{i:02d}", 5, 5 - f) for i, f in enumerate(frees)]
                _check_case(target, hosts)
                checked += 1
    # ten-host fleets on a reduced slot alphabet
    target = AppInfo("fn-echo", "demo", "1.0", 2)
    for frees in itertools.product((0, 2, 5), repeat=10):
        hosts = [HostDescriptor(f"h{i:02d}", 5, 5 - f) for i, f in enumerate(frees)]
        _check_case(target, hosts)
        checked += 1
    # randomized full-alphabet sweep incl. reuse precedence and shareability
    rng = random.Random(0xC8)
    for _ in range(20_000):
        n = rng.randint(1, 10)
        need = rng.randint(1, 5)
        target = AppInfo("fn-echo", "demo", "1.0", need)
        hosts = []
        for i in range(n):
            total = rng.randint(1, 5)
            used = rng.randint(0, total)
            instances = {}
            if rng.random() < 0.3:
                which = target if rng.random() < 0.6 else other
                uri = f"http://h{i:02d}/apps/{which.app_name}-{rng.randint(1, 3)}"
                instances[uri] = InstanceInfo(uri=uri, app=which,
                                              shareable=rng.random() < 0.5)
            hosts.append(HostDescriptor(f"h{i:02d}", total, used, instances))
        _check_case(target, hosts)
        checked += 1
    assert checked > 100_000


# ---------------------------------------------------------------------------
# 9. Lifecycle
# ---------------------------------------------------------------------------

@_criterion("C9 lifecycle: delete -> reject stale, re-establish fresh")
def test_c9_lifecycle():
    stack = Stack.build(ScenarioConfig.from_doc(demo_doc()))
    assert stack.client_request("/echo", b"before delete").status == 200
    binding = stack.gateway.binding_for("/echo")
    old_context, old_key = binding.context_id, binding.security.current_key_id
    endpoint = binding.endpoint_uri
    stale_security = binding.security

    stack.lcmp.delete_context(old_context)

    # a stale invocation against the deleted context is rejected
    from edgeqkd import channel

    stale = channel.encrypt(stale_security, b"stale", None,
                            clock=stack.clock)
    refused = stack.transport.request(
        src="gateway", channel="data", method="POST", url=endpoint + "/invoke",
        body=stale.to_bytes(), headers={"x-app-context-id": old_context},
    )
    assert refused.status in (404, 410)

    # the next client request re-establishes everything and succeeds
    response = stack.client_request("/echo", b"after delete")
    assert response.status == 200 and response.body == b"after delete"
    assert binding.context_id not in (None, old_context)
    assert binding.security.current_key_id != old_key


# ---------------------------------------------------------------------------
# 10. Reproducibility
# ---------------------------------------------------------------------------

@_criterion("C10 reproducibility: equal seeds give byte-identical transcripts")
def test_c10_reproducibility():
    docs = [
        demo_doc(workload=[
            {"path": "/echo", "body": "replay me exactly", "repeat": 5, "interval_sec": 0.2},
            {"path": "/sum", "body": "[1,2,3,4,5,6]", "repeat": 2, "concurrency": 2},
        ]),
        demo_doc(qkd={"seed": "11" * 32, "rate_bits_per_sec": 1000, "capacity_bits": 256},
                 policy={"max_uses": 1, "max_age_sec": 1e9},
                 workload=[{"path": "/upper", "body": "scarce replay", "repeat": 25,
                            "interval_sec": 0.1}]),
    ]
    for doc in docs:
        first = run_scenario(ScenarioConfig.from_doc(doc))
        second = run_scenario(ScenarioConfig.from_doc(doc))
        assert first.transcript_ndjson() == second.transcript_ndjson()
        assert first.metrics.to_doc() == second.metrics.to_doc()
