"""Client-domain gateway: reverse proxy, device app, and client-side SAE.

Client programs speak plain HTTP to the gateway and never see anything
else. On the first request for a route the gateway discovers the
application, creates an application context, picks the lowest offered
cipher suite, and binds a key; afterwards it encrypts request bodies,
invokes the remote instance, and decrypts responses with the key that
sealed the request, rolling keys per the refresh policy. A route holds one
key, in its security context, until a rollover or teardown. When the host
answers 404 `unknown-key-id`, it will not serve under that key again, so
the route rolls its key over and retries the request once.
Establishment is single-flight per route, so a burst of first requests
costs exactly one context and one key.
"""

from __future__ import annotations

import hmac
import logging
import threading
from dataclasses import dataclass, field

from . import channel
from .clock import Clock
from .control import Mx2Client
from .errors import (
    AppNotFoundError,
    AuthFailureError,
    ContextDeletedError,
    EdgeQkdError,
    KeyExhaustedError,
    NoRouteError,
    NotFoundError,
    UnauthorizedError,
    UnknownContextError,
    UnknownKeyIdError,
)
from .transport import (
    Router,
    Transport,
    WireRequest,
    WireResponse,
    error_response,
    json_response,
    raise_for_status,
)

logger = logging.getLogger(__name__)


@dataclass
class RouteBinding:
    path_prefix: str
    app_name: str
    provider: str
    version: str
    plaintext: bool = False  # diagnostic passthrough, defeats the whole point
    context_id: str | None = None
    endpoint_uri: str | None = None
    security: channel.SecurityContext | None = None
    lock: threading.RLock = field(default_factory=threading.RLock, repr=False)


class Gateway:
    def __init__(self, *, bindings: list[RouteBinding], transport: Transport,
                 lcmp_url: str, kme, policy: channel.RefreshPolicy, clock: Clock,
                 offered_suites: tuple[int, ...] = (1,),
                 sae_id: str = "sae-client", server_sae: str = "sae-mec",
                 auth_token: str | None = None,
                 component: str = "gateway") -> None:
        self._bindings = sorted(bindings, key=lambda b: len(b.path_prefix), reverse=True)
        self._transport = transport
        self._mx2 = Mx2Client(transport, src=component, base_url=lcmp_url)
        self._kme = kme
        self._policy = policy
        self._clock = clock
        self._offered = tuple(offered_suites)
        self._sae = sae_id
        self._server_sae = server_sae
        # compared as bytes in constant time: hmac.compare_digest refuses a non-ASCII str
        self._authorization = (None if auth_token is None
                               else f"Bearer {auth_token}".encode("utf-8", "surrogatepass"))
        self._component = component

    @property
    def _store(self) -> tuple[str, ...]:
        """The key_IDs the secure routes hold; perfbench/run.py:293 is its only reader."""
        return tuple(b.security.current_key_id for b in self._bindings if b.security is not None)

    # -- establishment -----------------------------------------------------------

    def binding_for(self, path: str) -> RouteBinding:
        for binding in self._bindings:
            prefix = binding.path_prefix.rstrip("/")
            if path == prefix or path.startswith(prefix + "/"):
                return binding
        raise NoRouteError(f"no route bound for {path}")

    def init_app(self, binding: RouteBinding) -> dict:
        """Discovery plus context creation; returns the new context document."""
        found = self._mx2.lookup(binding.app_name, binding.provider, binding.version)
        if not found:
            raise AppNotFoundError(
                f"{binding.app_name} {binding.version} by {binding.provider} is not offered"
            )
        doc = self._mx2.create_context(binding.app_name, binding.provider, binding.version)
        binding.context_id = str(doc["context_id"])
        binding.endpoint_uri = str(doc["endpoint_uri"])
        return doc

    def _ensure_ready(self, binding: RouteBinding) -> None:
        with binding.lock:
            if binding.context_id is None:
                self.init_app(binding)
            if binding.plaintext or binding.security is not None:
                return
            binding.security = channel.establish_context(
                self._sae, self._server_sae, self._offered, self._kme, self._policy,
                clock=self._clock,
            )

    def _purge_binding(self, binding: RouteBinding) -> None:
        with binding.lock:
            binding.security = None
            binding.context_id = None
            binding.endpoint_uri = None

    def teardown(self, binding: RouteBinding) -> None:
        """Delete the route's context and scrub its keys; idempotent."""
        with binding.lock:
            if binding.context_id is not None:
                try:
                    self._mx2.delete_context(binding.context_id)
                except UnknownContextError:
                    logger.warning("context %s was already gone", binding.context_id)
            else:
                logger.warning("teardown of %s without an active context", binding.path_prefix)
            self._purge_binding(binding)

    # -- request path ------------------------------------------------------------

    def handle_request(self, path: str, body: bytes, headers: dict[str, str]) -> WireResponse:
        try:
            if self._authorization is not None and not hmac.compare_digest(
                    headers.get("authorization", "").encode("utf-8", "surrogatepass"),
                    self._authorization):
                raise UnauthorizedError("missing or invalid bearer token")
            binding = self.binding_for(path)
            return self._proxy(binding, body)
        except KeyExhaustedError as exc:
            if exc.retry_after is None:
                exc.retry_after = 1.0  # clients must still get a Retry-After hint
            return error_response(exc)
        except EdgeQkdError as exc:
            return error_response(exc)

    def _proxy(self, binding: RouteBinding, body: bytes) -> WireResponse:
        last_error: EdgeQkdError | None = None
        for attempt in (0, 1):
            self._ensure_ready(binding)
            try:
                if binding.plaintext:
                    return self._invoke_plaintext(binding, body)
                return self._invoke_secure(binding, body)
            except (ContextDeletedError, NotFoundError) as exc:
                # the context or instance vanished underneath us: rebuild once
                last_error = exc
                self._purge_binding(binding)
                continue
            except UnknownKeyIdError as exc:
                # the host will not serve under the route's key, which is
                # now retired: retry once under a fresh one
                last_error = exc
                continue
        assert last_error is not None
        raise last_error

    def _invoke_secure(self, binding: RouteBinding, body: bytes) -> WireResponse:
        assert binding.security is not None and binding.endpoint_uri is not None
        ctx = binding.security
        with ctx.lock:
            # read the key before a later rollover replaces it
            envelope = channel.encrypt(ctx, body, self._kme, clock=self._clock)
            key = ctx.key
        response = self._transport.request(
            src=self._component, channel="data", method="POST",
            url=binding.endpoint_uri + "/invoke", body=envelope.to_bytes(),
            headers={"content-type": "application/octet-stream",
                     "x-app-context-id": binding.context_id or ""},
        )
        if response.headers.get("x-envelope") == "1":
            reply = channel.EncryptedEnvelope.from_bytes(response.body)
            if reply.key_id != envelope.key_id:
                raise AuthFailureError("reply is sealed under another key")
            plaintext = channel.decrypt(reply, key, response=True)
            # a sealed handler failure surfaces its decrypted JSON error body
            content_type = "application/octet-stream" if response.status == 200 else "application/json"
            return WireResponse(status=response.status, headers={"content-type": content_type},
                                body=plaintext)
        try:
            return raise_for_status(response)
        except UnknownKeyIdError:
            # say, a copy of the key's first envelope bound it to another
            # context: the host refuses the key for good
            channel.retire(ctx, envelope.key_id)
            raise

    def _invoke_plaintext(self, binding: RouteBinding, body: bytes) -> WireResponse:
        assert binding.endpoint_uri is not None
        response = self._transport.request(
            src=self._component, channel="data", method="POST",
            url=binding.endpoint_uri + "/invoke_plain", body=body,
            headers={"x-app-context-id": binding.context_id or ""},
        )
        raise_for_status(response)
        return WireResponse(status=200,
                            headers={"content-type": "application/octet-stream"},
                            body=response.body)

    # -- wire surface ------------------------------------------------------------

    def router(self) -> Router:
        router = Router()
        router.set_fallback(self._w_any)
        return router

    def _w_any(self, request: WireRequest) -> WireResponse:
        if request.method != "POST":
            return json_response(405, {"message": "only POST is proxied", "code": "no-route"})
        return self.handle_request(request.path, request.body, request.headers)
