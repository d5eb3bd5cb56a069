from __future__ import annotations

import itertools
import threading

import pytest
from hypothesis import given, settings, strategies as st

from edgeqkd.clock import SimulatedClock
from edgeqkd.control import (
    AppInfo,
    Catalog,
    CatalogEntry,
    HostDescriptor,
    InstanceInfo,
    Lcmp,
    Meo,
    Placement,
    place_app,
)
from edgeqkd.channel import RefreshPolicy
from edgeqkd.entropy import make_stream
from edgeqkd.errors import (
    AppNotFoundError,
    CapacityExhaustedError,
    UnknownAppImageError,
    UnknownContextError,
)
from edgeqkd.host import MecHost
from edgeqkd.keystore import KeyStore
from edgeqkd.kme import KmeApi, KmeClient, new_kme_pair
from edgeqkd.transport import InprocTransport

SEED = b"\x11" * 32


def app(name="fn-echo", provider="demo", version="1.0", slots=1):
    return AppInfo(app_name=name, provider=provider, version=version, required_slots=slots)


# ---------------------------------------------------------------------------
# Catalog lookup
# ---------------------------------------------------------------------------

def test_lookup_by_name():
    catalog = Catalog([CatalogEntry(app=app("fn-echo"), handler="fn-echo")])
    assert [a.app_name for a in catalog.lookup("fn-echo")] == ["fn-echo"]


def test_lookup_miss_returns_empty():
    catalog = Catalog([CatalogEntry(app=app("fn-echo"), handler="fn-echo")])
    assert catalog.lookup("missing") == []


def test_lookup_version_mismatch():
    catalog = Catalog([CatalogEntry(app=app(version="1.0"), handler="fn-echo")])
    assert catalog.lookup("fn-echo", version="2.0") == []


# ---------------------------------------------------------------------------
# Placement
# ---------------------------------------------------------------------------

def host_desc(host_id, total, used=0, instances=()):
    return HostDescriptor(
        host_id=host_id, total_slots=total, used_slots=used,
        instances={inst.uri: inst for inst in instances},
    )


def test_reuse_precedence():
    target = app()
    inst = InstanceInfo(uri="http://a/apps/fn-echo-1", app=target, shareable=True)
    hosts = [host_desc("a", 2, 1, [inst]), host_desc("b", 5)]
    placement = place_app(target, hosts)
    assert placement == Placement(kind="reuse", host_id="a", uri=inst.uri)


def test_non_shareable_instance_not_reused():
    target = app()
    inst = InstanceInfo(uri="http://a/apps/fn-echo-1", app=target, shareable=False)
    placement = place_app(target, [host_desc("a", 2, 1, [inst]), host_desc("b", 1)])
    assert placement.kind == "deploy"


def test_deploy_prefers_most_free_slots():
    hosts = [host_desc("a", 3, 1), host_desc("b", 3, 2)]  # free: a=2, b=1
    assert place_app(app(), hosts) == Placement(kind="deploy", host_id="a")


def test_deploy_tie_breaks_lexicographically():
    hosts = [host_desc("b", 2, 0), host_desc("a", 2, 0)]
    assert place_app(app(), hosts).host_id == "a"


def test_capacity_exhausted():
    with pytest.raises(CapacityExhaustedError):
        place_app(app(slots=2), [host_desc("a", 1), host_desc("b", 2, 1)])


def brute_force_place(target: AppInfo, hosts) -> Placement:
    """Independent oracle: full scan with explicit tie-breaking."""
    reuse_candidates = []
    for h in hosts:
        for inst in h.instances.values():
            if inst.shareable and inst.app == target:
                reuse_candidates.append((h.host_id, inst.uri))
    if reuse_candidates:
        host_id, uri = sorted(reuse_candidates)[0]
        return Placement(kind="reuse", host_id=host_id, uri=uri)
    feasible = [h for h in hosts if h.total_slots - h.used_slots >= target.required_slots]
    if not feasible:
        raise CapacityExhaustedError("brute force: nothing fits")
    best = sorted(feasible, key=lambda h: (-(h.total_slots - h.used_slots), h.host_id))[0]
    return Placement(kind="deploy", host_id=best.host_id)


def assert_matches_oracle(target, hosts):
    try:
        expected = brute_force_place(target, hosts)
    except CapacityExhaustedError:
        with pytest.raises(CapacityExhaustedError):
            place_app(target, hosts)
        return
    assert place_app(target, hosts) == expected


def test_placement_oracle_exhaustive_small():
    # every free-slot vector for up to 4 hosts with up to 5 slots each
    target = app(slots=1)
    for n in range(1, 5):
        for frees in itertools.product(range(6), repeat=n):
            hosts = [host_desc(f"h{i:02d}", 5, 5 - free) for i, free in enumerate(frees)]
            assert_matches_oracle(target, hosts)


def test_placement_oracle_exhaustive_with_reuse_flags():
    # 3 hosts, free slots 0..3, each host optionally holding a (non)shareable instance
    target = app(slots=2)
    other = app(name="fn-other")
    for frees in itertools.product(range(4), repeat=3):
        for flags in itertools.product([None, True, False], repeat=3):
            hosts = []
            for i, (free, flag) in enumerate(zip(frees, flags)):
                instances = []
                if flag is not None:
                    instances.append(InstanceInfo(
                        uri=f"http://h{i}/apps/x-{i}", app=target if flag else other,
                        shareable=True,
                    ))
                hosts.append(host_desc(f"h{i:02d}", 3, 3 - free, instances))
            assert_matches_oracle(target, hosts)


@settings(max_examples=300, deadline=None)
@given(
    frees=st.lists(st.integers(0, 5), min_size=1, max_size=10),
    need=st.integers(1, 5),
    reuse_at=st.one_of(st.none(), st.tuples(st.integers(0, 9), st.booleans())),
)
def test_placement_oracle_random(frees, need, reuse_at):
    target = app(slots=need)
    hosts = []
    for i, free in enumerate(frees):
        instances = []
        if reuse_at is not None and reuse_at[0] == i:
            instances.append(InstanceInfo(
                uri=f"http://h{i}/apps/r", app=target, shareable=reuse_at[1],
            ))
        hosts.append(host_desc(f"h{i:02d}", 5, 5 - free, instances))
    assert_matches_oracle(target, hosts)


# ---------------------------------------------------------------------------
# Lifecycle proxy + orchestrator over the wire
# ---------------------------------------------------------------------------

def build_control_plane(catalog_entries, host_slots, clock=None):
    clock = clock or SimulatedClock()
    transport = InprocTransport(clock=clock)
    master, slave = new_kme_pair(SEED, 0, 1 << 20, clock=clock)
    transport.register("kme-mec", KmeApi(slave).router())
    hosts = {}
    for host_id, slots in host_slots.items():
        host = MecHost(host_id, slots, base_url=f"http://{host_id}", sae_id="sae-mec",
                       kme=KmeClient(transport, src=host_id, base_url="http://kme-mec",
                                     channel="qkd"),
                       key_store=KeyStore(clock, RefreshPolicy(1, 3600)), transport=transport)
        transport.register(host_id, host.router())
        hosts[host_id] = host
    catalog = Catalog(catalog_entries)
    meo = Meo(catalog, transport, dict(host_slots))
    lcmp = Lcmp(catalog, meo, clock=clock, id_stream=make_stream(SEED, "ctx"))
    return lcmp, meo, hosts, transport


ECHO = CatalogEntry(app=app("fn-echo"), handler="fn-echo")


def test_create_context_happy_path():
    lcmp, meo, hosts, _ = build_control_plane([ECHO], {"edge-a": 2})
    context = lcmp.create_context(ECHO.app.key)
    assert context.to_doc()["state"] == "active"
    assert context.endpoint_uri.startswith("http://edge-a/apps/fn-echo-")
    assert hosts["edge-a"].used_slots == 1
    (instance,) = hosts["edge-a"]._instances.values()
    assert instance.active_contexts == {context.context_id}


def test_create_context_unknown_app():
    lcmp, *_ = build_control_plane([ECHO], {"edge-a": 2})
    with pytest.raises(AppNotFoundError):
        lcmp.create_context(("fn-nope", "demo", "1.0"))


def test_create_context_capacity_exhausted():
    entry = CatalogEntry(app=app(slots=1), handler="fn-echo", shareable=False)
    lcmp, *_ = build_control_plane([entry], {"edge-a": 1})
    lcmp.create_context(entry.app.key)
    with pytest.raises(CapacityExhaustedError):
        lcmp.create_context(entry.app.key)


def test_delete_context_and_idempotency():
    lcmp, meo, hosts, _ = build_control_plane([ECHO], {"edge-a": 2})
    context = lcmp.create_context(ECHO.app.key)
    lcmp.delete_context(context.context_id)
    assert lcmp._contexts == {}  # forgotten, not kept as deleted
    assert hosts["edge-a"].used_slots == 0  # idle instance reaped
    with pytest.raises(UnknownContextError):
        lcmp.delete_context(context.context_id)


def test_shared_instance_survives_one_delete():
    lcmp, meo, hosts, _ = build_control_plane([ECHO], {"edge-a": 2})
    c1 = lcmp.create_context(ECHO.app.key)
    c2 = lcmp.create_context(ECHO.app.key)
    assert c1.endpoint_uri == c2.endpoint_uri  # reuse
    lcmp.delete_context(c1.context_id)
    assert hosts["edge-a"].used_slots == 1
    (instance,) = meo._inventory["edge-a"].instances.values()
    assert instance.refcount == 1
    lcmp.delete_context(c2.context_id)
    assert hosts["edge-a"].used_slots == 0


def test_reservation_no_reap_while_active():
    entry = CatalogEntry(app=app("fn-upper", slots=1), handler="fn-upper", shareable=False)
    lcmp, meo, hosts, _ = build_control_plane([entry, ECHO], {"edge-a": 3})
    kept = lcmp.create_context(ECHO.app.key)
    dropped = lcmp.create_context(entry.app.key)
    lcmp.delete_context(dropped.context_id)
    uris = [inst.uri for inst in hosts["edge-a"]._instances.values()]
    assert kept.endpoint_uri in uris
    assert dropped.endpoint_uri not in uris


def test_no_overcommit_under_concurrency():
    entry = CatalogEntry(app=app(slots=1), handler="fn-echo", shareable=False)
    lcmp, meo, hosts, _ = build_control_plane([entry], {"edge-a": 3})
    results = []
    lock = threading.Lock()
    barrier = threading.Barrier(8)

    def worker():
        barrier.wait()
        try:
            context = lcmp.create_context(entry.app.key)
            with lock:
                results.append(context)
        except CapacityExhaustedError:
            with lock:
                results.append(None)

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    created = [r for r in results if r is not None]
    assert len(created) == 3
    assert hosts["edge-a"].used_slots == 3
    assert meo._inventory["edge-a"].used_slots == 3


def test_chain_deploys_and_reaps_with_parent():
    upper = CatalogEntry(app=app("fn-upper"), handler="fn-upper")
    chained = CatalogEntry(app=app("fn-echo"), handler="fn-echo",
                           chain_to=upper.app.key, shareable=False)
    lcmp, meo, hosts, _ = build_control_plane([chained, upper], {"edge-a": 4})
    context = lcmp.create_context(chained.app.key)
    assert hosts["edge-a"].used_slots == 2  # entry app + its hop
    lcmp.delete_context(context.context_id)
    assert hosts["edge-a"].used_slots == 0


def test_context_is_attached_along_the_whole_chain():
    upper = CatalogEntry(app=app("fn-upper"), handler="fn-upper")  # shareable hop
    chained = CatalogEntry(app=app("fn-echo"), handler="fn-echo",
                           chain_to=upper.app.key, shareable=False)
    lcmp, _, hosts, _ = build_control_plane([chained, upper], {"edge-a": 4})
    first = lcmp.create_context(chained.app.key)
    second = lcmp.create_context(chained.app.key)

    def contexts():
        return {segment: i.active_contexts for segment, i in hosts["edge-a"]._instances.items()}

    one, two = first.context_id, second.context_id
    assert contexts() == {"fn-upper-1": {one, two}, "fn-echo-2": {one}, "fn-echo-3": {two}}
    lcmp.delete_context(one)
    assert contexts() == {"fn-upper-1": {two}, "fn-echo-3": {two}}


def test_refused_acquire_changes_nothing():
    # fn-sum -> fn-echo -> fn-upper on 2 slots, fn-upper already serving: the
    # chain reuses fn-upper and deploys fn-echo, then finds no slot for fn-sum
    upper = CatalogEntry(app=app("fn-upper"), handler="fn-upper")
    echo = CatalogEntry(app=app("fn-echo"), handler="fn-echo", chain_to=upper.app.key)
    summed = CatalogEntry(app=app("fn-sum"), handler="fn-sum", chain_to=echo.app.key)
    lcmp, meo, hosts, _ = build_control_plane([summed, echo, upper], {"edge-a": 2})
    served = lcmp.create_context(upper.app.key)
    with pytest.raises(CapacityExhaustedError):
        lcmp.create_context(summed.app.key)
    (instance,) = hosts["edge-a"]._instances.values()
    assert instance.uri == served.endpoint_uri == "http://edge-a/apps/fn-upper-1"
    assert instance.active_contexts == {served.context_id}
    (info,) = meo._inventory["edge-a"].instances.values()
    assert (info.refcount, meo._inventory["edge-a"].used_slots) == (1, 1)
    assert list(lcmp._contexts) == [served.context_id]


def test_a_refused_deploy_releases_its_chained_hop():
    # the host knows no image "fn-nope", so fn-x's deploy fails after its hop's
    echo = CatalogEntry(app=app("fn-echo"), handler="fn-echo")
    broken = CatalogEntry(app=app("fn-x"), handler="fn-nope", chain_to=echo.app.key)
    lcmp, meo, hosts, _ = build_control_plane([broken, echo], {"edge-a": 2})
    with pytest.raises(UnknownAppImageError):
        lcmp.create_context(broken.app.key)
    assert hosts["edge-a"]._instances == {}
    assert meo._inventory["edge-a"].used_slots == 0


def test_mx2_wire_surface():
    lcmp, _, _, transport = build_control_plane([ECHO], {"edge-a": 2})
    transport.register("lcmp", lcmp.router())
    from edgeqkd.control import Mx2Client

    mx2 = Mx2Client(transport, src="gateway", base_url="http://lcmp")
    apps = mx2.lookup("fn-echo", "demo", "1.0")
    assert apps and apps[0]["app_name"] == "fn-echo"
    assert mx2.lookup("fn-missing") == []
    doc = mx2.create_context("fn-echo", "demo", "1.0", callback_uri="http://client/cb")
    assert doc["state"] == "active"
    assert doc["callback_uri"] == "http://client/cb"
    mx2.delete_context(doc["context_id"])
    with pytest.raises(UnknownContextError):
        mx2.delete_context(doc["context_id"])
