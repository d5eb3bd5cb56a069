"""Edge execution node: function instances behind a decrypting entry point.

Every request reaching an instance is an encrypted envelope. The host
claims the key it names under one lock: a lookup in its key table, on a
miss a consume-once fetch from its key-management entity, and the check
that the key fits the named suite. Only then does it decrypt, record the
use in the table (see `keystore`), run the registered handler, optionally
forward the intermediate result one hop to a chained instance inside the
same perimeter, and seal the result under the same key bytes. Nothing
leaves the host toward the client domain in the clear, handler failures
included. An envelope whose use has arrived, or whose key is gone or bound
to another context, gets 404 `unknown-key-id` before any handler runs. The
context is the one the `x-app-context-id` header names, and nothing
authenticates that header: a copy of a key's first envelope that arrives
first under another active context's header binds the key to that context.
The gateway then gets 404 and rolls its key over once (see `gateway`).

The plaintext entry point (`invoke_plain`, for a route configured without
encryption and for the chained hop) runs a handler only for a context that
is active on its instance, as `invoke` does. An instance is deployed with
the context it is placed for active, the orchestrator attaches a later
context to every instance of a chain it reuses, and the chained hop sends
the context header on.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, field
from typing import Callable, Mapping

from . import channel
from .control import AppInfo
from .errors import (
    AlreadyConsumedError,
    CapacityExhaustedError,
    ContextDeletedError,
    EdgeQkdError,
    HandlerError,
    MalformedError,
    NotFoundError,
    UnknownAppImageError,
    UnknownKeyIdError,
)
from .keystore import KeyStore, KeyStoreEntry
from .transport import Router, Transport, WireRequest, WireResponse, error_response, json_response
from .wire import dumps, loads

Handler = Callable[[bytes], bytes]


def _fn_echo(body: bytes) -> bytes:
    return body


def _fn_upper(body: bytes) -> bytes:
    return body.decode("utf-8").upper().encode("utf-8")


def _fn_sum(body: bytes) -> bytes:
    try:
        values = json.loads(body)
    except (ValueError, UnicodeDecodeError) as exc:
        raise ValueError(f"input is not JSON: {exc}") from exc
    if not isinstance(values, list) or not all(
        isinstance(v, int) and not isinstance(v, bool) for v in values
    ):
        raise ValueError("input must be a JSON array of integers")
    return dumps(sum(values))


BUILTIN_HANDLERS: dict[str, Handler] = {
    "fn-echo": _fn_echo,
    "fn-upper": _fn_upper,
    "fn-sum": _fn_sum,
}


@dataclass
class MecAppInstance:
    app: AppInfo
    uri: str
    handler: Handler
    chain_uri: str | None = None
    active_contexts: set[str] = field(default_factory=set)


class MecHost:
    def __init__(self, host_id: str, total_slots: int, *, base_url: str,
                 sae_id: str, kme, key_store: KeyStore,
                 transport: Transport, master_sae: str = "sae-client",
                 handlers: Mapping[str, Handler] | None = None) -> None:
        self.host_id = host_id
        self.total_slots = total_slots
        self.base_url = base_url.rstrip("/")
        self.sae_id = sae_id
        self.master_sae = master_sae
        self._kme = kme
        self._store = key_store
        self._transport = transport
        self._handlers = dict(handlers) if handlers is not None else dict(BUILTIN_HANDLERS)
        self._instances: dict[str, MecAppInstance] = {}  # by path segment
        self._seq = 0
        self._lock = threading.RLock()
        self._key_lock = threading.Lock()
        self.dec_fetches = 0

    # -- management ------------------------------------------------------------

    @property
    def used_slots(self) -> int:
        with self._lock:
            return sum(i.app.required_slots for i in self._instances.values())

    def deploy(self, app: AppInfo, handler_name: str, chain_uri: str | None,
               context_id: str) -> MecAppInstance:
        """A new instance of `app`, with `context_id` active on it."""
        handler = self._handlers.get(handler_name)
        if handler is None:
            raise UnknownAppImageError(f"no function image {handler_name!r}")
        with self._lock:
            if self.used_slots + app.required_slots > self.total_slots:
                raise CapacityExhaustedError(f"host {self.host_id} is full")
            self._seq += 1
            segment = f"{app.app_name}-{self._seq}"
            instance = MecAppInstance(
                app=app, uri=f"{self.base_url}/apps/{segment}",
                handler=handler, chain_uri=chain_uri, active_contexts={context_id},
            )
            self._instances[segment] = instance
            return instance

    def undeploy(self, uri: str) -> None:
        with self._lock:
            segment = self._segment_for(uri)
            if self._instances.pop(segment, None) is None:
                raise NotFoundError(f"no instance at {uri}")

    def attach_context(self, uri: str, context_id: str) -> None:
        with self._lock:
            self._instance(self._segment_for(uri)).active_contexts.add(context_id)

    def detach_context(self, uri: str, context_id: str) -> None:
        instance = self._instance(self._segment_for(uri))
        with self._key_lock:
            # under the key lock, so no request in flight binds a key to it later
            instance.active_contexts.discard(context_id)
            self._store.detach(context_id)

    def _segment_for(self, uri: str) -> str:
        return uri.rstrip("/").rsplit("/", 1)[-1]

    def _instance(self, segment: str) -> MecAppInstance:
        with self._lock:
            instance = self._instances.get(segment)
        if instance is None:
            raise NotFoundError(f"no instance {segment!r} on host {self.host_id}")
        return instance

    # -- key handling ------------------------------------------------------------

    def _claim_key(self, instance: MecAppInstance, context_id: str | None,
                   envelope: channel.EncryptedEnvelope) -> KeyStoreEntry:
        """The key entry an envelope names, its bytes checked against its suite.

        One lock covers lookup, fetch and, for a pad, the record of its one
        use, so concurrent envelopes under an unseen key share one
        consume-once fetch, and a pad serves exactly one of them. The use is
        recorded only once the length check has passed, so a forged suite on
        a seen key burns nothing.
        """
        with self._key_lock:
            self._require_context(instance, context_id)
            entry = self._store.get(envelope.key_id)
            if entry is None:
                try:
                    (_, key_bits), = self._kme.get_dec_keys(self.master_sae, [envelope.key_id])
                except AlreadyConsumedError as exc:
                    # consumption state is internal to the key plane; callers
                    # only learn that the key cannot be obtained
                    raise UnknownKeyIdError(str(exc)) from exc
                self.dec_fetches += 1
                entry = self._store.put(envelope.key_id, key_bits)
            if channel.suite_for(envelope, entry.key.bits).mode == channel.MODE_OTP:
                self._store.use(envelope.key_id, entry, 0, context_id)
        return entry

    # -- invocation ----------------------------------------------------------------

    @staticmethod
    def _require_context(instance: MecAppInstance, context_id: str | None) -> None:
        if context_id not in instance.active_contexts:
            raise ContextDeletedError("no active application context for this instance")

    def invoke(self, instance: MecAppInstance, context_id: str | None,
               envelope: channel.EncryptedEnvelope) -> WireResponse:
        entry = self._claim_key(instance, context_id, envelope)
        plaintext = channel.decrypt(envelope, entry.key)
        if entry.key.aead is not None:
            # authenticated, so the nonce's counter is the use; of two
            # copies in flight, one records it and the other is refused
            with self._key_lock:
                if context_id not in instance.active_contexts:  # detached meanwhile
                    self._store.discard(envelope.key_id, entry)
                    self._require_context(instance, context_id)
                self._store.use(envelope.key_id, entry,
                                int.from_bytes(envelope.nonce[1:], "big"), context_id)
        headers = {"content-type": "application/octet-stream", "x-envelope": "1"}
        try:
            status, result = 200, self._run(instance, plaintext, context_id)
        except EdgeQkdError as exc:
            # whatever went wrong mid-execution, the detail leaves sealed only
            failure = error_response(HandlerError(exc.message))
            status, result = failure.status, failure.body
            headers["x-error-code"] = HandlerError.code
        sealed = channel.encrypt_response(envelope, result, entry.key, self.sae_id)
        return WireResponse(status=status, headers=headers, body=sealed.to_bytes())

    def _run(self, instance: MecAppInstance, payload: bytes, context_id: str) -> bytes:
        """Run the instance's handler, then its chained hop if it has one."""
        try:
            result = instance.handler(payload)
            if instance.chain_uri is not None:
                result = self._invoke_chained(instance.chain_uri, result, context_id)
        except EdgeQkdError:
            raise
        except Exception as exc:
            raise HandlerError(str(exc)) from exc
        return result

    def _invoke_chained(self, chain_uri: str, payload: bytes, context_id: str) -> bytes:
        # second hop stays inside the perimeter, no envelope required
        response = self._transport.request(
            src=self.host_id, channel="mec-internal", method="POST",
            url=chain_uri + "/invoke_plain", body=payload,
            headers={"x-app-context-id": context_id},
        )
        if response.status != 200:
            raise EdgeQkdError(f"chained invocation failed with {response.status}")
        return response.body

    # -- wire surface ------------------------------------------------------------

    def router(self) -> Router:
        router = Router()
        router.add("POST", "/mgmt/v1/deploy", self._w_deploy)
        router.add("POST", "/mgmt/v1/undeploy", self._w_undeploy)
        router.add("POST", "/mgmt/v1/attach", self._w_attach)
        router.add("POST", "/mgmt/v1/detach", self._w_detach)
        router.add("POST", "/apps/{segment}/invoke", self._w_invoke)
        router.add("POST", "/apps/{segment}/invoke_plain", self._w_invoke_plain)
        router.add("GET", "/apps/{segment}/healthz", self._w_healthz)
        return router

    @staticmethod
    def _mgmt_body(request: WireRequest, *names: str) -> dict:
        """A management body: a JSON object whose `names` are non-empty strings."""
        doc = loads(request.body)
        if not isinstance(doc, dict):
            raise MalformedError("management body must be a JSON object")
        for name in names:
            if not isinstance(doc.get(name), str) or not doc[name]:
                raise MalformedError(f"management body needs a non-empty {name!r}")
        return doc

    def _w_deploy(self, request: WireRequest):
        doc = self._mgmt_body(request, "context_id")
        app = AppInfo.from_doc(doc.get("app"))
        instance = self.deploy(app, str(doc.get("handler", app.app_name)), doc.get("chain_uri"),
                               doc["context_id"])
        return json_response(200, {"uri": instance.uri})

    def _w_undeploy(self, request: WireRequest):
        self.undeploy(self._mgmt_body(request, "uri")["uri"])
        return json_response(200, {})

    def _w_attach(self, request: WireRequest):
        doc = self._mgmt_body(request, "uri", "context_id")
        self.attach_context(doc["uri"], doc["context_id"])
        return json_response(200, {})

    def _w_detach(self, request: WireRequest):
        doc = self._mgmt_body(request, "uri", "context_id")
        self.detach_context(doc["uri"], doc["context_id"])
        return json_response(200, {})

    def _w_invoke(self, request: WireRequest, segment: str):
        instance = self._instance(segment)
        envelope = channel.EncryptedEnvelope.from_bytes(request.body)
        return self.invoke(instance, request.headers.get("x-app-context-id"), envelope)

    def _w_invoke_plain(self, request: WireRequest, segment: str):
        instance = self._instance(segment)
        context_id = request.headers.get("x-app-context-id")
        self._require_context(instance, context_id)
        result = self._run(instance, request.body, context_id)
        return WireResponse(status=200, headers={"content-type": "application/octet-stream"},
                            body=result)

    def _w_healthz(self, request: WireRequest, segment: str):
        self._instance(segment)
        return json_response(200, {"status": "ok"})
