"""Stateful test of the host's key table under requests delivered at once or
held back and delivered out of order, replays, envelopes sent under another
context's header, rollovers and context detaches: it holds exactly the keys
of attached contexts with uses still due, and no envelope is served twice."""

from __future__ import annotations

from unittest import mock

from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from edgeqkd import channel, keystore
from edgeqkd.channel import EncryptedEnvelope, RefreshPolicy, establish_context
from edgeqkd.clock import SimulatedClock
from edgeqkd.control import AppInfo
from edgeqkd.host import MecHost
from edgeqkd.keystore import KeyStore
from edgeqkd.kme import new_kme_pair
from edgeqkd.transport import InprocTransport

from conftest import holds

SEED = b"\x5e" * 32
CONTEXTS = ("ctx-aead", "ctx-pad")
OPEN_KEYS = 2  # the table's cap on a context's open keys, lowered so that runs reach it


class RecordingKmeClient:
    """The host's key source, noting every key_ID it obtains."""

    def __init__(self, handle) -> None:
        self._handle = handle
        self.fetched: list[str] = []

    def get_dec_keys(self, master_sae, key_ids):
        keys = self._handle.get_dec_keys(master_sae, key_ids)
        self.fetched.extend(key_id for key_id, _ in keys)
        return keys


class HostKeyTable(RuleBasedStateMachine):
    @initialize(max_uses=st.integers(1, 4))
    def build(self, max_uses):
        self.cap = mock.patch.object(keystore, "MAX_OPEN_KEYS", OPEN_KEYS)
        self.cap.start()
        self.clock = SimulatedClock()
        self.transport = InprocTransport(clock=self.clock)
        master, slave = new_kme_pair(SEED, 0, 1 << 20, clock=self.clock)
        self.host_kme = RecordingKmeClient(slave)
        self.calls = 0

        def handler(body):
            self.calls += 1
            return body

        policy = RefreshPolicy(max_uses, 3600)
        self.host = MecHost("edge-a", 1, base_url="http://edge-a", sae_id="sae-mec",
                            kme=self.host_kme, key_store=KeyStore(self.clock, policy),
                            transport=self.transport, handlers={"fn-rec": handler})
        self.transport.register("edge-a", self.host.router())
        app = AppInfo(app_name="fn-rec", provider="demo", version="1.0", required_slots=1)
        self.inst = self.host.deploy(app, "fn-rec", None, CONTEXTS[0])
        self.client_kme = master
        self.contexts = {}
        for context_id, suite in zip(CONTEXTS, (1, 2)):
            self.host.attach_context(self.inst.uri, context_id)
            self.contexts[context_id] = establish_context(
                "sae-client", "sae-mec", [suite], self.client_kme, policy, clock=self.clock)
        self.max_uses = max_uses
        self.detached: set[str] = set()
        self.keys = {context_id: [] for context_id in CONTEXTS}  # AEAD keys fetched, in order
        self.open = {context_id: [] for context_id in CONTEXTS}  # ... with uses still due
        self.due: dict[str, int] = {}  # AEAD key_ID -> its uses that have not arrived
        self.pads: list[str] = []
        self.captured: list[tuple[str, EncryptedEnvelope]] = []  # served once
        self.in_flight: list[tuple[str, EncryptedEnvelope, bytes, channel.Key]] = []
        self.sent = 0
        self.served = 0

    def _invoke(self, context_id, envelope):
        return self.transport.request(
            src="gateway", channel="data", method="POST", url=self.inst.uri + "/invoke",
            body=envelope.to_bytes(),
            headers={"x-app-context-id": context_id, "content-type": "application/octet-stream"},
        )

    def _expect(self, context_id, envelope, status, body=None, key=None):
        calls = self.calls
        response = self._invoke(context_id, envelope)
        assert response.status == status, (response.status, response.body)
        if status != 200:
            assert "x-envelope" not in response.headers
            assert self.calls == calls  # no handler ran
            return
        self.served += 1
        reply = EncryptedEnvelope.from_bytes(response.body)
        assert channel.decrypt(reply, key, response=True) == body

    def _encrypt(self, context_id):
        ctx = self.contexts[context_id]
        self.sent += 1
        body = b"request %d" % self.sent
        envelope = channel.encrypt(ctx, body, self.client_kme, clock=self.clock)
        return context_id, envelope, body, ctx.key

    def _deliver(self, context_id, envelope, body, key):
        key_id = envelope.key_id
        if context_id in self.detached:
            self._expect(context_id, envelope, 410)
            return
        if envelope.suite_id == 2:
            self.pads.append(key_id)
        elif key_id not in self.due:  # first use: the host fetches the key and binds it
            self.keys[context_id].append(key_id)
            self.due[key_id] = self.max_uses
            self.open[context_id].append(key_id)
            if len(self.open[context_id]) > OPEN_KEYS:
                self.open[context_id].pop(0)  # the context's oldest key goes
        elif key_id not in self.open[context_id]:  # dropped for a newer key
            self._expect(context_id, envelope, 404)
            return
        self._expect(context_id, envelope, 200, body, key)
        self.captured.append((context_id, envelope))
        if envelope.suite_id == 1:
            self.due[key_id] -= 1
            if not self.due[key_id]:
                self.open[context_id].remove(key_id)  # its last use: the key left

    @rule(context_id=st.sampled_from(CONTEXTS))
    def send_fresh_request(self, context_id):
        self._deliver(*self._encrypt(context_id))

    @rule(context_id=st.sampled_from(CONTEXTS))
    def hold_a_request_back(self, context_id):
        self.in_flight.append(self._encrypt(context_id))

    @precondition(lambda self: self.in_flight)
    @rule(data=st.data())
    def deliver_a_held_back_request(self, data):
        self._deliver(*self.in_flight.pop(data.draw(st.integers(0, len(self.in_flight) - 1))))

    @precondition(lambda self: self.captured)
    @rule(data=st.data())
    def resend_captured_envelope(self, data):
        context_id, envelope = data.draw(st.sampled_from(self.captured))
        self._expect(context_id, envelope, 410 if context_id in self.detached else 404)

    @precondition(lambda self: any(c == CONTEXTS[0] for c, _ in self.captured))
    @rule(data=st.data())
    def send_under_the_other_contexts_header(self, data):
        # an AEAD envelope whose key is bound to its own context, or already
        # gone, is refused under the other context's header
        envelope = data.draw(st.sampled_from([e for c, e in self.captured if c == CONTEXTS[0]]))
        self._expect(CONTEXTS[1], envelope, 410 if CONTEXTS[1] in self.detached else 404)

    @rule(context_id=st.sampled_from(CONTEXTS))
    def roll_over(self, context_id):
        ctx = self.contexts[context_id]
        ctx.uses = ctx.policy.max_uses  # the next encryption fetches a fresh key

    @precondition(lambda self: len(self.detached) < len(CONTEXTS))
    @rule(data=st.data())
    def detach_context(self, data):
        context_id = data.draw(st.sampled_from([c for c in CONTEXTS if c not in self.detached]))
        self.host.detach_context(self.inst.uri, context_id)
        self.detached.add(context_id)
        self.open[context_id] = []

    def teardown(self):
        self.cap.stop()

    @invariant()
    def table_holds_the_keys_of_attached_contexts_with_uses_due(self):
        for context_id, keys in self.keys.items():
            assert [k for k in keys if holds(self.host._store, k)] == self.open[context_id]
        assert len(self.host._store) == sum(len(keys) for keys in self.open.values())

    @invariant()
    def no_pad_outlives_its_request(self):
        assert not any(holds(self.host._store, k) for k in self.pads)

    @invariant()
    def each_fetch_is_a_distinct_key(self):
        fetched = self.host_kme.fetched
        assert self.host.dec_fetches == len(set(fetched)) == len(fetched)

    @invariant()
    def the_handler_ran_once_per_reply_served(self):
        assert self.calls == self.served


HostKeyTable.TestCase.settings = settings(max_examples=60, stateful_step_count=30,
                                          deadline=None)
TestHostKeyTable = HostKeyTable.TestCase
