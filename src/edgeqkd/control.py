"""Edge control plane: application catalog, lifecycle proxy, and orchestrator.

The lifecycle proxy exposes discovery and application-context create/delete
to client-domain device apps. The orchestrator owns placement: reuse a
shareable instance of the exact same application if one exists anywhere,
otherwise deploy on the feasible host with the most free slots (ties broken
by lexicographically smallest host id). Placement decisions and their slot
commits run as one atomic transaction, so hosts are never over-committed
even under concurrent context creation.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence
from urllib.parse import urlencode

from .clock import Clock
from .entropy import ByteStream, uuid4_from
from .errors import (
    CapacityExhaustedError,
    InvalidConfigError,
    MalformedError,
    NotFoundError,
    UnknownContextError,
)
from .transport import Router, Transport, WireRequest, WireResponse, json_response, raise_for_status
from .wire import dumps, loads

STATE_ACTIVE = "active"  # a context exists only while it is active


@dataclass(frozen=True)
class AppInfo:
    app_name: str
    provider: str
    version: str
    required_slots: int
    characteristics: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        if self.required_slots < 1:
            raise InvalidConfigError("required_slots must be positive")

    @property
    def key(self) -> tuple[str, str, str]:
        return (self.app_name, self.provider, self.version)

    def to_doc(self) -> dict:
        return {
            "app_name": self.app_name,
            "provider": self.provider,
            "version": self.version,
            "required_slots": self.required_slots,
            "characteristics": sorted(self.characteristics),
        }

    @classmethod
    def from_doc(cls, doc: Mapping) -> "AppInfo":
        try:
            if type(slots := doc.get("required_slots", 1)) is not int:  # refuses a bool too
                raise TypeError(f"required_slots must be an integer, not {slots!r}")
            return cls(
                app_name=str(doc["app_name"]),
                provider=str(doc["provider"]),
                version=str(doc["version"]),
                required_slots=slots,
                characteristics=frozenset(doc.get("characteristics", ())),
            )
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise MalformedError(f"bad application descriptor: {exc}") from exc


@dataclass(frozen=True)
class CatalogEntry:
    app: AppInfo
    handler: str  # registered function implementing the app
    shareable: bool = True
    chain_to: tuple[str, str, str] | None = None  # catalog key of an optional second hop


class Catalog:
    """Offered applications, unique by (name, provider, version)."""

    def __init__(self, entries: Iterable[CatalogEntry] = ()) -> None:
        self._entries: dict[tuple[str, str, str], CatalogEntry] = {}
        for entry in entries:
            self.add(entry)

    def add(self, entry: CatalogEntry) -> None:
        if entry.app.key in self._entries:
            raise InvalidConfigError(f"duplicate catalog entry {entry.app.key}")
        self._entries[entry.app.key] = entry

    def get(self, key: tuple[str, str, str]) -> CatalogEntry | None:
        return self._entries.get(key)

    def lookup(self, app_name: str | None = None, provider: str | None = None,
               version: str | None = None) -> list[AppInfo]:
        out = []
        for entry in self._entries.values():
            app = entry.app
            if app_name is not None and app.app_name != app_name:
                continue
            if provider is not None and app.provider != provider:
                continue
            if version is not None and app.version != version:
                continue
            out.append(app)
        return out


@dataclass
class AppContext:
    context_id: str
    app: AppInfo
    endpoint_uri: str
    created_at: float
    callback_uri: str | None = None

    def to_doc(self) -> dict:
        return {
            "context_id": self.context_id,
            "app": self.app.to_doc(),
            "endpoint_uri": self.endpoint_uri,
            "state": STATE_ACTIVE,
            "created_at": self.created_at,
            "callback_uri": self.callback_uri,
        }


@dataclass
class InstanceInfo:
    uri: str
    app: AppInfo
    shareable: bool
    refcount: int = 0
    chain_uri: str | None = None


@dataclass
class HostDescriptor:
    host_id: str
    total_slots: int
    used_slots: int = 0
    instances: dict[str, InstanceInfo] = field(default_factory=dict)  # by uri

    @property
    def free_slots(self) -> int:
        return self.total_slots - self.used_slots


@dataclass(frozen=True)
class Placement:
    kind: str  # "reuse" | "deploy"
    host_id: str
    uri: str | None = None  # set for reuse


def place_app(app: AppInfo, hosts: Sequence[HostDescriptor]) -> Placement:
    """Pure placement decision over a host snapshot.

    Reuse wins whenever a shareable instance of the exact same application
    exists; otherwise deploy where the most slots are free. Both legs break
    ties on the smallest host id (reuse additionally on smallest uri).
    """
    reuse: tuple[str, str] | None = None
    for host in hosts:
        for instance in host.instances.values():
            if instance.shareable and instance.app == app:
                candidate = (host.host_id, instance.uri)
                if reuse is None or candidate < reuse:
                    reuse = candidate
    if reuse is not None:
        return Placement(kind="reuse", host_id=reuse[0], uri=reuse[1])

    best: HostDescriptor | None = None
    for host in hosts:
        if host.free_slots < app.required_slots:
            continue
        if best is None or (-host.free_slots, host.host_id) < (-best.free_slots, best.host_id):
            best = host
    if best is None:
        raise CapacityExhaustedError(f"no host can place {app.app_name}")
    return Placement(kind="deploy", host_id=best.host_id)


# ---------------------------------------------------------------------------
# Orchestrator
# ---------------------------------------------------------------------------

class HostCommander:
    """Deploy/undeploy/attach/detach commands sent to one host over the wire."""

    def __init__(self, transport: Transport, *, src: str, base_url: str) -> None:
        self._transport = transport
        self._src = src
        self.base_url = base_url.rstrip("/")

    def _post(self, path: str, doc: dict) -> dict:
        response = self._transport.request(
            src=self._src, channel="mec-internal", method="POST",
            url=self.base_url + path, body=dumps(doc),
            headers={"content-type": "application/json"},
        )
        raise_for_status(response)
        return loads(response.body) if response.body else {}

    def deploy(self, entry: CatalogEntry, chain_uri: str | None) -> str:
        doc = {
            "app": entry.app.to_doc(),
            "handler": entry.handler,
            "chain_uri": chain_uri,
        }
        return str(self._post("/mgmt/v1/deploy", doc)["uri"])

    def undeploy(self, uri: str) -> None:
        self._post("/mgmt/v1/undeploy", {"uri": uri})

    def attach(self, uri: str, context_id: str) -> None:
        self._post("/mgmt/v1/attach", {"uri": uri, "context_id": context_id})

    def detach(self, uri: str, context_id: str) -> None:
        self._post("/mgmt/v1/detach", {"uri": uri, "context_id": context_id})


class Meo:
    """Orchestrator: owns the host inventory and every slot commitment."""

    def __init__(self, catalog: Catalog, commanders: Mapping[str, HostCommander],
                 host_slots: Mapping[str, int]) -> None:
        self._catalog = catalog
        self._commanders = dict(commanders)
        self._inventory = {
            host_id: HostDescriptor(host_id=host_id, total_slots=slots)
            for host_id, slots in host_slots.items()
        }
        self._lock = threading.RLock()

    def snapshot(self) -> list[HostDescriptor]:
        with self._lock:
            return [
                HostDescriptor(
                    host_id=h.host_id, total_slots=h.total_slots, used_slots=h.used_slots,
                    instances={
                        uri: InstanceInfo(uri=i.uri, app=i.app, shareable=i.shareable,
                                          refcount=i.refcount, chain_uri=i.chain_uri)
                        for uri, i in h.instances.items()
                    },
                )
                for h in sorted(self._inventory.values(), key=lambda h: h.host_id)
            ]

    def _find_instance(self, uri: str) -> tuple[HostDescriptor, InstanceInfo]:
        for host in self._inventory.values():
            if uri in host.instances:
                return host, host.instances[uri]
        raise NotFoundError(f"no instance at {uri}")

    def _deploy_locked(self, entry: CatalogEntry) -> InstanceInfo:
        placement = place_app(entry.app, list(self._inventory.values()))
        if placement.kind == "reuse":
            assert placement.uri is not None
            _, instance = self._find_instance(placement.uri)
            return instance
        chain_uri = None
        if entry.chain_to is not None:
            chain_entry = self._catalog.get(entry.chain_to)
            if chain_entry is None:
                raise NotFoundError(f"chained app {entry.chain_to} not in catalog")
            chain_uri = self._acquire_instance_locked(chain_entry).uri
        try:
            # the chained hop may have consumed slots, so place again; chains
            # are acyclic, so the hop deployed no instance of this app to reuse
            placement = place_app(entry.app, list(self._inventory.values()))
        except CapacityExhaustedError:
            if chain_uri is not None:
                self._release_ref_locked(chain_uri)
            raise
        host = self._inventory[placement.host_id]
        uri = self._commanders[placement.host_id].deploy(entry, chain_uri)
        instance = InstanceInfo(uri=uri, app=entry.app, shareable=entry.shareable,
                                refcount=0, chain_uri=chain_uri)
        host.instances[uri] = instance
        host.used_slots += entry.app.required_slots
        return instance

    def _acquire_instance_locked(self, entry: CatalogEntry) -> InstanceInfo:
        instance = self._deploy_locked(entry)
        instance.refcount += 1
        return instance

    def _release_ref_locked(self, uri: str) -> None:
        host, instance = self._find_instance(uri)
        instance.refcount = max(0, instance.refcount - 1)
        if instance.refcount == 0:
            self._commanders[host.host_id].undeploy(uri)
            del host.instances[uri]
            host.used_slots -= instance.app.required_slots
            if instance.chain_uri is not None:
                self._release_ref_locked(instance.chain_uri)

    def _chain_locked(self, uri: str | None) -> list[tuple[str, str]]:
        """(host id, uri) of the instance at `uri` and of each hop it chains to."""
        hops = []
        while uri is not None:
            host, instance = self._find_instance(uri)
            hops.append((host.host_id, uri))
            uri = instance.chain_uri
        return hops

    def acquire(self, entry: CatalogEntry, context_id: str) -> str:
        """Place (or reuse) an instance for a new context and attach the
        context to it and to every hop of its chain; returns its URI."""
        with self._lock:
            instance = self._acquire_instance_locked(entry)
            for host_id, uri in self._chain_locked(instance.uri):
                self._commanders[host_id].attach(uri, context_id)
            return instance.uri

    def release(self, uri: str, context_id: str) -> None:
        with self._lock:
            for host_id, hop in self._chain_locked(uri):
                self._commanders[host_id].detach(hop, context_id)
            self._release_ref_locked(uri)


# ---------------------------------------------------------------------------
# Lifecycle proxy
# ---------------------------------------------------------------------------

class Lcmp:
    """Discovery and application-context lifecycle, fronting the orchestrator."""

    def __init__(self, catalog: Catalog, meo: Meo, *, clock: Clock,
                 id_stream: ByteStream) -> None:
        self._catalog = catalog
        self._meo = meo
        self._clock = clock
        self._ids = id_stream
        self._contexts: dict[str, AppContext] = {}
        self._lock = threading.RLock()

    def create_context(self, app_key: tuple[str, str, str],
                       callback_uri: str | None = None) -> AppContext:
        entry = self._catalog.get(app_key)
        if entry is None:
            raise NotFoundError(f"application {app_key} not offered")
        with self._lock:
            context_id = uuid4_from(self._ids)
        created_at = self._clock.now()
        uri = self._meo.acquire(entry, context_id)
        context = AppContext(context_id=context_id, app=entry.app, endpoint_uri=uri,
                             created_at=created_at, callback_uri=callback_uri)
        with self._lock:
            self._contexts[context_id] = context
        return context

    def delete_context(self, context_id: str) -> None:
        with self._lock:
            context = self._contexts.pop(context_id, None)
        if context is None:
            raise UnknownContextError(f"no active context {context_id}")
        self._meo.release(context.endpoint_uri, context_id)

    def get_context(self, context_id: str) -> AppContext | None:
        with self._lock:
            return self._contexts.get(context_id)

    # -- wire surface ---------------------------------------------------------

    def router(self) -> Router:
        router = Router()
        router.add("GET", "/dev_app/v1/app_list", self._app_list)
        router.add("POST", "/dev_app/v1/app_contexts", self._create)
        router.add("DELETE", "/dev_app/v1/app_contexts/{context_id}", self._delete)
        return router

    def _app_list(self, request: WireRequest):
        apps = self._catalog.lookup(
            request.query.get("appName"), request.query.get("provider"),
            request.query.get("version"),
        )
        return json_response(200, {"app_list": [a.to_doc() for a in apps]})

    def _create(self, request: WireRequest):
        doc = loads(request.body)
        if not isinstance(doc, dict):
            raise MalformedError("context creation body must be a JSON object")
        callback = doc.get("callback_uri")
        context = self.create_context(AppInfo.from_doc(doc.get("app")).key,
                                      str(callback) if callback else None)
        return json_response(201, context.to_doc())

    def _delete(self, request: WireRequest, context_id: str):
        self.delete_context(context_id)
        return WireResponse(status=204)


class Mx2Client:
    """Device-app side of the lifecycle interface."""

    def __init__(self, transport: Transport, *, src: str, base_url: str) -> None:
        self._transport = transport
        self._src = src
        self._base = base_url.rstrip("/")

    def lookup(self, app_name: str, provider: str | None = None,
               version: str | None = None) -> list[dict]:
        fields = {"appName": app_name, "provider": provider, "version": version}
        query = urlencode({name: value for name, value in fields.items() if value is not None})
        response = self._transport.request(
            src=self._src, channel="mx2", method="GET",
            url=f"{self._base}/dev_app/v1/app_list?{query}",
        )
        raise_for_status(response)
        doc = loads(response.body)
        return list(doc.get("app_list", []))

    def create_context(self, app_name: str, provider: str, version: str,
                       callback_uri: str | None = None) -> dict:
        body = dumps({
            "app": {"app_name": app_name, "provider": provider, "version": version},
            "callback_uri": callback_uri,
        })
        response = self._transport.request(
            src=self._src, channel="mx2", method="POST",
            url=self._base + "/dev_app/v1/app_contexts", body=body,
            headers={"content-type": "application/json"},
        )
        raise_for_status(response)
        return loads(response.body)

    def delete_context(self, context_id: str) -> None:
        response = self._transport.request(
            src=self._src, channel="mx2", method="DELETE",
            url=self._base + f"/dev_app/v1/app_contexts/{context_id}",
        )
        raise_for_status(response)
