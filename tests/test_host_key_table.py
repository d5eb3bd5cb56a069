"""Stateful test of the host's key table under requests, replays, envelopes
sent under another context's header, rollovers and context detaches: it holds
each attached context's current and previous key and nothing else."""

from __future__ import annotations

from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from edgeqkd import channel
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
        self.clock = SimulatedClock()
        self.transport = InprocTransport(clock=self.clock)
        master, slave = new_kme_pair(SEED, 0, 1 << 20, clock=self.clock)
        self.host_kme = RecordingKmeClient(slave)
        self.calls = 0

        def handler(body):
            self.calls += 1
            return body

        self.host = MecHost("edge-a", 1, base_url="http://edge-a", sae_id="sae-mec",
                            kme=self.host_kme, key_store=KeyStore(self.clock, 3600),
                            transport=self.transport, handlers={"fn-rec": handler})
        self.transport.register("edge-a", self.host.router())
        app = AppInfo(app_name="fn-rec", provider="demo", version="1.0", required_slots=1)
        self.inst = self.host.deploy(app, "fn-rec", None)
        self.client_kme = master
        self.contexts = {}
        for context_id, suite in zip(CONTEXTS, (1, 2)):
            self.host.attach_context(self.inst.uri, context_id)
            self.contexts[context_id] = establish_context(
                "sae-client", "sae-mec", [suite], self.client_kme,
                RefreshPolicy(max_uses, 3600), clock=self.clock)
        self.detached: set[str] = set()
        self.bound = {context_id: [] for context_id in CONTEXTS}  # keys served, in order
        self.pads: list[str] = []
        self.captured: list[tuple[str, EncryptedEnvelope]] = []
        self.sent = 0

    def _invoke(self, context_id, envelope):
        return self.transport.request(
            src="gateway", channel="data", method="POST", url=self.inst.uri + "/invoke",
            body=envelope.to_bytes(),
            headers={"x-app-context-id": context_id, "content-type": "application/octet-stream"},
        )

    def _expect(self, context_id, envelope, status, ctx=None):
        calls = self.calls
        response = self._invoke(context_id, envelope)
        assert response.status == status, (response.status, response.body)
        if status != 200:
            assert "x-envelope" not in response.headers
            assert self.calls == calls  # no handler ran
            return
        reply = EncryptedEnvelope.from_bytes(response.body)
        plaintext = channel.decrypt(reply, ctx.key, response=True)
        assert plaintext == b"request %d" % self.sent

    @rule(context_id=st.sampled_from(CONTEXTS))
    def send_fresh_request(self, context_id):
        ctx = self.contexts[context_id]
        self.sent += 1
        envelope = channel.encrypt(ctx, b"request %d" % self.sent, self.client_kme,
                                   clock=self.clock)
        if context_id in self.detached:
            self._expect(context_id, envelope, 410)
            return
        self._expect(context_id, envelope, 200, ctx)
        self.captured.append((context_id, envelope))
        if ctx.suite.mode == channel.MODE_OTP:
            self.pads.append(envelope.key_id)
        elif envelope.key_id not in self.bound[context_id]:
            self.bound[context_id].append(envelope.key_id)

    @precondition(lambda self: self.captured)
    @rule(data=st.data())
    def resend_captured_envelope(self, data):
        context_id, envelope = data.draw(st.sampled_from(self.captured))
        if context_id in self.detached:
            self._expect(context_id, envelope, 410)
        elif envelope.suite_id == 2 or envelope.key_id not in self.bound[context_id][-2:]:
            self._expect(context_id, envelope, 404)  # a spent pad or a rolled-out key
        else:
            # a current or previous key still serves (replays are not refused yet)
            calls = self.calls
            response = self._invoke(context_id, envelope)
            assert response.status == 200
            assert self.calls == calls + 1

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

    @invariant()
    def table_holds_current_and_previous_key_of_attached_contexts(self):
        expected = 0
        for context_id, keys in self.bound.items():
            kept = [] if context_id in self.detached else keys[-2:]
            assert [k for k in keys if holds(self.host._store, k)] == kept
            expected += len(kept)
        assert len(self.host._store) == expected

    @invariant()
    def no_pad_outlives_its_request(self):
        assert not any(holds(self.host._store, k) for k in self.pads)

    @invariant()
    def each_fetch_is_a_distinct_key(self):
        fetched = self.host_kme.fetched
        assert self.host.dec_fetches == len(set(fetched)) == len(fetched)


HostKeyTable.TestCase.settings = settings(max_examples=60, stateful_step_count=30,
                                          deadline=None)
TestHostKeyTable = HostKeyTable.TestCase
