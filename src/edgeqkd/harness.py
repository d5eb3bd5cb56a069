"""Scenario runner: build the full stack from one config, drive it, measure it.

A scenario wires both domains together (key-management pair, control plane,
hosts, gateway), executes the declared workload through the gateway, and
returns metrics plus the complete message transcript. With the simulated
clock the run is fully deterministic: workload lanes are interleaved on a
fixed (time, lane, sequence) order instead of real threads, and all
randomness derives from the configured seed, so equal configs produce
byte-identical transcripts.

Each component is addressed by name, `http://<name>/...`, on either
transport (so a host id must be a lowercase DNS label); the stack registers
each name with its router in-process, or with its server's loopback address
over HTTP. So both transports give one config the same transcript bytes.

The wiretap check scans every frame on an inter-domain channel for
forbidden byte strings; it is how scenarios prove that client plaintext
never crosses the trust boundary.
"""

from __future__ import annotations

import re
import threading
import time as _time
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from . import channel
from .clock import Clock, SimulatedClock, SystemClock
from .control import AppInfo, Catalog, CatalogEntry, Lcmp, Meo
from .entropy import make_stream
from .errors import InvalidConfigError, MalformedError
from .gateway import Gateway, RouteBinding
from .host import BUILTIN_HANDLERS, MecHost
from .httpd import ComponentHttpServer, HttpTransport
from .keystore import KeyStore
from .kme import KmeApi, KmeClient, new_kme_pair
from .transport import (
    INTER_DOMAIN_CHANNELS,
    InprocTransport,
    Record,
    Transcript,
    header_lines,
    parse_request_line,
)
from .wire import b64decode, decode_error, decode_key_container, dumps

MASTER_SAE = "sae-client"
SLAVE_SAE = "sae-mec"
_RESERVED_COMPONENTS = {"client", "gateway", "lcmp", "kme-client", "kme-mec"}
# a host id is the authority of its URLs: a lowercase DNS label (RFC 1035 §2.3.1)
_HOST_ID = re.compile(r"[a-z0-9](?:[a-z0-9-]{0,61}[a-z0-9])?")


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QkdSettings:
    seed: bytes | None
    rate_bits_per_sec: int
    capacity_bits: int


@dataclass(frozen=True)
class WorkloadItem:
    path: str
    body: bytes
    repeat: int = 1
    concurrency: int = 1
    interval_sec: float = 0.0


@dataclass(frozen=True)
class AssertionSettings:
    forbidden_plaintexts: tuple[bytes, ...] = ()
    auto_forbid_bodies: bool = True


@dataclass(frozen=True)
class HostSeed:
    host_id: str
    total_slots: int


@dataclass(frozen=True)
class BindingSeed:
    path_prefix: str
    app_name: str
    provider: str
    version: str
    plaintext: bool = False


@dataclass
class ScenarioConfig:
    qkd: QkdSettings
    catalog: list[CatalogEntry]
    hosts: list[HostSeed]
    bindings: list[BindingSeed]
    policy: channel.RefreshPolicy
    workload: list[WorkloadItem]
    clock_mode: str = "simulated"
    transport_mode: str = "inproc"
    offered_suites: tuple[int, ...] = (1,)
    assertions: AssertionSettings = AssertionSettings()
    auth_token: str | None = None

    @classmethod
    def from_doc(cls, doc: Mapping[str, Any]) -> "ScenarioConfig":
        if not isinstance(doc, Mapping):
            raise InvalidConfigError("config must be a JSON object")
        try:
            return cls._parse(doc)
        except InvalidConfigError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidConfigError(f"bad config: {exc}") from exc

    @classmethod
    def _parse(cls, doc: Mapping[str, Any]) -> "ScenarioConfig":
        qkd_doc = doc.get("qkd")
        if not isinstance(qkd_doc, Mapping):
            raise InvalidConfigError("config requires a qkd section")
        seed_hex = qkd_doc.get("seed")
        seed = bytes.fromhex(seed_hex) if isinstance(seed_hex, str) and seed_hex else None
        qkd = QkdSettings(
            seed=seed,
            rate_bits_per_sec=int(qkd_doc["rate_bits_per_sec"]),
            capacity_bits=int(qkd_doc["capacity_bits"]),
        )
        if qkd.rate_bits_per_sec < 0:
            raise InvalidConfigError("qkd.rate_bits_per_sec must be non-negative")
        if qkd.capacity_bits <= 0:
            raise InvalidConfigError("qkd.capacity_bits must be positive")

        catalog_entries: list[CatalogEntry] = []
        for app_doc in doc.get("catalog", ()):
            app = AppInfo.from_doc(app_doc)
            chain_to = None
            chain_doc = app_doc.get("chain_to")
            if chain_doc:
                chain_to = (str(chain_doc["app_name"]), str(chain_doc["provider"]),
                            str(chain_doc["version"]))
            catalog_entries.append(CatalogEntry(
                app=app,
                handler=str(app_doc.get("handler", app.app_name)),
                shareable=bool(app_doc.get("shareable", True)),
                chain_to=chain_to,
            ))
        chains = {entry.app.key: entry.chain_to for entry in catalog_entries}
        if len(chains) != len(catalog_entries):
            raise InvalidConfigError("duplicate catalog entries")
        for entry in catalog_entries:
            # placement deploys the whole chain, so it must end
            seen = {entry.app.key}
            hop = entry.chain_to
            while hop is not None:
                if hop not in chains:
                    raise InvalidConfigError(f"{entry.app.app_name} chains to unknown app")
                if hop in seen:
                    raise InvalidConfigError(f"{entry.app.app_name} chains into a cycle")
                seen.add(hop)
                hop = chains[hop]

        hosts = []
        for host_doc in doc.get("hosts", ()):
            host_id = str(host_doc["host_id"])
            if not _HOST_ID.fullmatch(host_id):
                raise InvalidConfigError(f"host id {host_id!r} is not a lowercase DNS label")
            if host_id in _RESERVED_COMPONENTS:
                raise InvalidConfigError(f"host id {host_id!r} is reserved")
            slots = int(host_doc["total_slots"])
            if slots < 1:
                raise InvalidConfigError("hosts need at least one slot")
            hosts.append(HostSeed(host_id=host_id, total_slots=slots))
        if len({h.host_id for h in hosts}) != len(hosts):
            raise InvalidConfigError("duplicate host ids")
        if not hosts:
            raise InvalidConfigError("config requires at least one host")

        bindings = []
        for b_doc in doc.get("bindings", ()):
            binding = BindingSeed(
                path_prefix=str(b_doc["path_prefix"]),
                app_name=str(b_doc["app_name"]),
                provider=str(b_doc["provider"]),
                version=str(b_doc["version"]),
                plaintext=bool(b_doc.get("plaintext", False)),
            )
            if not binding.path_prefix.startswith("/"):
                raise InvalidConfigError("binding path_prefix must start with /")
            # names must exist; a version or provider the catalog does not
            # offer gets 404 app-not-found when the route creates its context
            if binding.app_name not in {k[0] for k in chains}:
                raise InvalidConfigError(
                    f"binding {binding.path_prefix} references unknown app {binding.app_name}"
                )
            bindings.append(binding)

        policy_doc = doc.get("policy", {})
        policy = channel.RefreshPolicy(
            max_uses=int(policy_doc.get("max_uses", 1)),
            max_age_sec=float(policy_doc.get("max_age_sec", 3600.0)),
        )

        workload = []
        for w_doc in doc.get("workload", ()):
            if "body_b64" in w_doc:
                body = b64decode(w_doc["body_b64"])
            else:
                body = str(w_doc.get("body", "")).encode("utf-8")
            item = WorkloadItem(
                path=str(w_doc["path"]),
                body=body,
                repeat=int(w_doc.get("repeat", 1)),
                concurrency=int(w_doc.get("concurrency", 1)),
                interval_sec=float(w_doc.get("interval_sec", 0.0)),
            )
            try:  # the path is the target of each request
                parse_request_line("POST " + item.path)
            except MalformedError as exc:
                raise InvalidConfigError(f"workload path {item.path!r} is no origin-form target") from exc
            if item.repeat < 1:
                raise InvalidConfigError("workload repeat must be >= 1")
            if item.concurrency < 1:
                raise InvalidConfigError("workload concurrency must be >= 1")
            if item.interval_sec < 0:
                raise InvalidConfigError("workload interval_sec must be >= 0")
            workload.append(item)

        clock_mode = str(doc.get("clock", "simulated"))
        if clock_mode not in ("simulated", "real"):
            raise InvalidConfigError(f"unknown clock mode {clock_mode!r}")
        transport_mode = str(doc.get("transport", "inproc"))
        if transport_mode not in ("inproc", "http"):
            raise InvalidConfigError(f"unknown transport mode {transport_mode!r}")

        offered = tuple(int(s) for s in doc.get("offered_suites", (1,)))
        if not set(offered) & set(channel.SUITES):
            raise InvalidConfigError(
                f"offered_suites {list(offered)} names no known suite {sorted(channel.SUITES)}"
            )

        a_doc = doc.get("assertions", {})
        forbidden = [s.encode("utf-8") for s in a_doc.get("forbidden_plaintexts", ())]
        if "forbidden_plaintexts_b64" in a_doc:
            forbidden += [b64decode(s) for s in a_doc["forbidden_plaintexts_b64"]]
        assertions = AssertionSettings(
            forbidden_plaintexts=tuple(forbidden),
            auto_forbid_bodies=bool(a_doc.get("auto_forbid_bodies", True)),
        )

        token = str(doc["auth_token"]) if doc.get("auth_token") else None
        if token is not None and not header_lines({"authorization": f"Bearer {token}"})[1]:
            raise InvalidConfigError("auth_token does not fit an authorization header")
        return cls(
            qkd=qkd, catalog=catalog_entries, hosts=hosts, bindings=bindings,
            policy=policy, workload=workload, clock_mode=clock_mode,
            transport_mode=transport_mode, offered_suites=offered,
            assertions=assertions, auth_token=token,
        )


# ---------------------------------------------------------------------------
# Stack assembly
# ---------------------------------------------------------------------------

@dataclass
class Stack:
    config: ScenarioConfig
    clock: Clock
    transcript: Transcript
    transport: Any
    gateway: Gateway
    lcmp: Lcmp
    hosts: dict[str, MecHost]
    kme_master: Any
    servers: list[ComponentHttpServer] = field(default_factory=list)
    client_headers: dict[str, str] = field(default_factory=dict)

    @classmethod
    def build(cls, config: ScenarioConfig) -> "Stack":
        clock: Clock = SimulatedClock() if config.clock_mode == "simulated" else SystemClock()
        transcript = Transcript(clock)
        seed = config.qkd.seed

        master, slave = new_kme_pair(
            seed, config.qkd.rate_bits_per_sec, config.qkd.capacity_bits, clock=clock,
            master_sae=MASTER_SAE, slave_sae=SLAVE_SAE,
        )

        http = config.transport_mode == "http"
        transport = HttpTransport(transcript, clock) if http else InprocTransport(transcript, clock)

        catalog = Catalog(config.catalog)

        hosts: dict[str, MecHost] = {}
        for host_seed in config.hosts:
            host_kme = KmeClient(transport, src=host_seed.host_id,
                                 base_url="http://kme-mec", channel="qkd")
            hosts[host_seed.host_id] = MecHost(
                host_seed.host_id, host_seed.total_slots,
                base_url=f"http://{host_seed.host_id}", sae_id=SLAVE_SAE,
                kme=host_kme, key_store=KeyStore(clock, config.policy),
                transport=transport, master_sae=MASTER_SAE,
                handlers=BUILTIN_HANDLERS,
            )

        meo = Meo(catalog, transport, {h.host_id: h.total_slots for h in config.hosts})
        lcmp = Lcmp(catalog, meo, clock=clock,
                    id_stream=make_stream(seed, "app-context-id"))

        gateway_kme = KmeClient(transport, src="gateway",
                                base_url="http://kme-client", channel="qkd")
        bindings = [
            RouteBinding(path_prefix=b.path_prefix, app_name=b.app_name,
                         provider=b.provider, version=b.version, plaintext=b.plaintext)
            for b in config.bindings
        ]
        gateway = Gateway(
            bindings=bindings, transport=transport, lcmp_url="http://lcmp",
            kme=gateway_kme, policy=config.policy,
            clock=clock, offered_suites=config.offered_suites,
            sae_id=MASTER_SAE, server_sae=SLAVE_SAE, auth_token=config.auth_token,
        )

        routers = {
            "kme-client": KmeApi(master).router(),
            "kme-mec": KmeApi(slave).router(),
            "lcmp": lcmp.router(),
            "gateway": gateway.router(),
        }
        routers.update({host_id: host.router() for host_id, host in hosts.items()})

        servers: list[ComponentHttpServer] = []
        for name, router in routers.items():
            if http:
                servers.append(ComponentHttpServer(name, router).start())
                transport.register(name, servers[-1].address)
            else:
                transport.register(name, router)

        return cls(config=config, clock=clock, transcript=transcript, transport=transport,
                   gateway=gateway, lcmp=lcmp, hosts=hosts, kme_master=master, servers=servers,
                   client_headers={"authorization": f"Bearer {config.auth_token}"} if config.auth_token else {})

    def client_request(self, path: str, body: bytes,
                       headers: Mapping[str, str] | None = None):
        """POST `body` to the gateway with the config's bearer token, if any;
        a header in `headers` wins over the stack's own."""
        return self.transport.request(src="client", channel="client", method="POST",
                                      url="http://gateway" + path, body=body,
                                      headers=self.client_headers if headers is None
                                      else {**self.client_headers, **headers})

    def stop(self) -> None:
        if isinstance(self.transport, HttpTransport):
            self.transport.close()
        for server in self.servers:
            server.stop()

    def pool_stats(self) -> dict:
        return self.kme_master.pair.stats()


# ---------------------------------------------------------------------------
# Metrics, wiretap, driver
# ---------------------------------------------------------------------------

@dataclass
class RunMetrics:
    requests_total: int = 0
    requests_ok: int = 0
    key_exhausted_count: int = 0
    qkd_keys_consumed: int = 0
    qkd_bits_consumed: int = 0
    contexts_created: int = 0
    errors: dict[str, int] = field(default_factory=dict)
    latency: dict[str, float] = field(default_factory=dict)

    def to_doc(self) -> dict:
        return {
            "requests_total": self.requests_total,
            "requests_ok": self.requests_ok,
            "key_exhausted_count": self.key_exhausted_count,
            "qkd_keys_consumed": self.qkd_keys_consumed,
            "qkd_bits_consumed": self.qkd_bits_consumed,
            "contexts_created": self.contexts_created,
            "errors": dict(sorted(self.errors.items())),
            "latency": self.latency,
        }


# the channels whose replies the metrics count
_METERED_CHANNELS = frozenset({"client", "qkd", "mx2"})
# what may follow "RSP" in a reply head: its fields, the end of the line, or nothing
_AFTER_RSP = frozenset({b" ", b"\n", b""})


def compute_metrics(records: Sequence[Record],
                    latencies: Sequence[float] | None = None) -> RunMetrics:
    """Derive run metrics from a transcript.

    A frame on the client, qkd or mx2 channel is a reply when the first word
    of its head is `RSP`: its first line is `RSP <status> <method> <target>`,
    split at spaces as bytes and never decoded. A reply whose status is not
    an integer raises MalformedError naming the record. Only a qkd reply's
    key container and a client error reply's body are parsed.

    When driver-side latencies are not supplied (e.g. when re-reporting a
    stored transcript) they are estimated by pairing client-channel request
    and response frames in order, which is exact for serialized runs.
    """
    metrics = RunMetrics()
    pending_client_ts: deque[float] = deque()
    paired_latencies: list[float] = []
    for index, record in enumerate(records):
        chan = record.channel
        if chan not in _METERED_CHANNELS:
            continue
        head = record.head
        if head[:3] != b"RSP" or head[3:4] not in _AFTER_RSP:
            if chan == "client":
                pending_client_ts.append(record.ts)
            continue
        end = head.find(b"\n")
        line = head if end < 0 else head[:end]
        first = line.split(b" ")
        try:
            status = int(first[1])
        except (IndexError, ValueError):
            raise MalformedError(
                f"transcript record {index} ({chan}): reply line {line!r} has no integer status"
            ) from None
        if chan == "client":
            if pending_client_ts:
                paired_latencies.append(record.ts - pending_client_ts.popleft())
            metrics.requests_total += 1
            if status == 200:
                metrics.requests_ok += 1
            else:
                code, _ = decode_error(record.body)
                metrics.errors[code] = metrics.errors.get(code, 0) + 1
            continue
        # a decoded target ends in an ASCII suffix exactly when its bytes do
        path = first[3] if len(first) > 3 else b""
        if chan == "qkd" and status == 200 and path.endswith(b"/enc_keys"):
            try:
                keys = decode_key_container(record.body)
            except MalformedError as exc:
                raise MalformedError(f"transcript record {index} (qkd): {exc.message}") from exc
            metrics.qkd_keys_consumed += len(keys)
            metrics.qkd_bits_consumed += sum(len(key) * 8 for _, key in keys)
        elif chan == "mx2" and status == 201 and path.endswith(b"/app_contexts"):
            metrics.contexts_created += 1
    metrics.key_exhausted_count = metrics.errors.get("key-exhausted", 0)
    values = list(latencies) if latencies is not None else paired_latencies
    if values:
        metrics.latency = {
            "count": float(len(values)),
            "min": min(values),
            "max": max(values),
            "mean": sum(values) / len(values),
        }
    else:
        metrics.latency = {"count": 0.0, "min": 0.0, "max": 0.0, "mean": 0.0}
    return metrics


@dataclass(frozen=True)
class WiretapFinding:
    record_index: int
    channel: str
    src: str
    dst: str
    needle_preview: str


@dataclass(frozen=True)
class WiretapReport:
    passed: bool
    findings: tuple[WiretapFinding, ...]
    frames_scanned: int

    def to_doc(self) -> dict:
        return {
            "passed": self.passed,
            "frames_scanned": self.frames_scanned,
            "findings": [
                {"record_index": f.record_index, "channel": f.channel,
                 "from": f.src, "to": f.dst, "needle": f.needle_preview}
                for f in self.findings
            ],
        }


_WIRETAP_PREFIX = 64
# inter-domain frames are laid end to end and searched about this many bytes at a time
_WIRETAP_CHUNK = 64 * 1024


def wiretap_assert(records: Sequence[Record],
                   forbidden: Sequence[bytes]) -> WiretapReport:
    """Fail iff any forbidden byte string occurs in an inter-domain frame.

    A frame is its head followed by its body, so a needle across the end of
    the head is found. The frames are laid end to end in a chunk, which is
    joined and searched, once per needle, when it reaches `_WIRETAP_CHUNK`
    bytes: a chunk holds whole frames, and a longer frame is a chunk of its
    own. The search is for the needle's first `_WIRETAP_PREFIX` bytes (a
    shorter needle is its own prefix), and it is exact:

    - Every occurrence of a needle in a frame is one in the frame's chunk,
      and it starts with an occurrence of the prefix.
    - `find` returns the first prefix at or after where the search resumes,
      and the search resumes only at the start of a frame. So a hit is the
      first prefix in its frame, which `bisect` finds from the frame starts.
    - The frame holds the needle iff the needle occurs between the hit and
      the frame's end. A needle that does not end inside the frame would
      cross into the next frame, or the next chunk, and is not a finding.
    - Either way the frame is settled, so the search resumes at its end, and
      a needle gives each frame at most one finding, as a per-frame test
      would. Findings come in record order, then in needle order.
    """
    needles = [(position, needle[:_WIRETAP_PREFIX], needle)
               for position, needle in enumerate(forbidden) if needle]
    chunk_bytes = _WIRETAP_CHUNK
    hits: list[tuple[int, int]] = []  # (record index, needle position)
    scanned = 0
    parts: list[bytes] = []
    starts: list[int] = []
    indices: list[int] = []
    size = 0
    for index, record in enumerate(records):
        if record.channel not in INTER_DOMAIN_CHANNELS:
            continue
        head = record.head
        body = record.body
        parts += head, body
        starts.append(size)
        indices.append(index)
        size += len(head) + len(body)
        if size >= chunk_bytes:
            _search_chunk(parts, starts, indices, needles, hits)
            scanned += len(indices)
            parts, starts, indices, size = [], [], [], 0
    if indices:
        _search_chunk(parts, starts, indices, needles, hits)
        scanned += len(indices)
    hits.sort()
    findings = []
    for index, position in hits:
        record = records[index]
        findings.append(WiretapFinding(
            record_index=index, channel=record.channel, src=record.src, dst=record.dst,
            needle_preview=repr(forbidden[position][:24]),
        ))
    return WiretapReport(passed=not findings, findings=tuple(findings),
                         frames_scanned=scanned)


def _search_chunk(parts: list[bytes], starts: list[int], indices: list[int],
                  needles: list[tuple[int, bytes, bytes]], hits: list[tuple[int, int]]) -> None:
    """Add a (record index, needle position) hit for each needle that a
    frame of one chunk holds. The chunk is `parts` joined; its frame `i` is
    record `indices[i]` and starts at offset `starts[i]`."""
    chunk = b"".join(parts)
    starts.append(len(chunk))  # the end of the last frame
    find = chunk.find
    for position, prefix, needle in needles:
        hit = find(prefix)
        while hit >= 0:
            frame = bisect_right(starts, hit)
            end = starts[frame]
            if find(needle, hit, end) >= 0:
                hits.append((indices[frame - 1], position))
            hit = find(prefix, end)


def _drive_workload(stack: Stack, config: ScenarioConfig) -> list[float]:
    """Execute the workload; returns per-request latencies.

    Simulated clock: one deterministic interleaving ordered by
    (timestamp, lane, sequence), no threads, the clock jumping between
    event times. Real clock: one thread per lane with actual sleeps.
    """
    lanes: list[WorkloadItem] = []
    for item in config.workload:
        lanes.extend([item] * item.concurrency)

    if config.clock_mode == "simulated":
        assert isinstance(stack.clock, SimulatedClock)
        events = []
        for lane_idx, item in enumerate(lanes):
            for seq in range(item.repeat):
                events.append((seq * item.interval_sec, lane_idx, seq))
        events.sort()
        latencies = []
        for ts, lane_idx, _seq in events:
            stack.clock.advance_to(ts)
            started = stack.clock.now()
            stack.client_request(lanes[lane_idx].path, lanes[lane_idx].body)
            latencies.append(stack.clock.now() - started)
        return latencies

    latencies_lock = threading.Lock()
    latencies = []

    def lane_worker(item: WorkloadItem) -> None:
        for seq in range(item.repeat):
            if seq and item.interval_sec:
                _time.sleep(item.interval_sec)
            started = stack.clock.now()
            stack.client_request(item.path, item.body)
            elapsed = stack.clock.now() - started
            with latencies_lock:
                latencies.append(elapsed)

    threads = [threading.Thread(target=lane_worker, args=(item,)) for item in lanes]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return latencies


@dataclass
class RunResult:
    config: ScenarioConfig
    metrics: RunMetrics
    records: list[Record]
    wiretap: WiretapReport
    pool_stats: dict

    @property
    def ok(self) -> bool:
        return self.wiretap.passed

    def transcript_ndjson(self) -> bytes:
        return b"".join(dumps(dict(rec)) + b"\n" for rec in self.records)


def run_scenario(config: ScenarioConfig) -> RunResult:
    stack = Stack.build(config)
    try:
        latencies = _drive_workload(stack, config)
    finally:
        stack.stop()
    records = stack.transcript.records()
    metrics = compute_metrics(records, latencies)
    forbidden = list(config.assertions.forbidden_plaintexts)
    if config.assertions.auto_forbid_bodies:
        for item in config.workload:
            if len(item.body) >= 16:
                forbidden.append(item.body)
    report = wiretap_assert(records, forbidden)
    return RunResult(config=config, metrics=metrics, records=records,
                     wiretap=report, pool_stats=stack.pool_stats())
