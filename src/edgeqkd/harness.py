"""Scenario runner: build the full stack from one config, drive it, measure it.

A scenario wires both domains together (key-management pair, control plane,
hosts, gateway), executes the declared workload through the gateway, and
returns metrics plus the complete message transcript. With the simulated
clock the run is fully deterministic: workload lanes are interleaved on a
fixed (time, lane, sequence) order instead of real threads, and all
randomness derives from the configured seed, so equal configs produce
byte-identical transcripts.

The wiretap check scans every frame on an inter-domain channel for
forbidden byte strings; it is how scenarios prove that client plaintext
never crosses the trust boundary.
"""

from __future__ import annotations

import threading
import time as _time
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from . import channel
from .clock import Clock, SimulatedClock, SystemClock
from .control import AppInfo, Catalog, CatalogEntry, HostCommander, Lcmp, Meo
from .entropy import make_stream
from .errors import InvalidConfigError
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
    iter_frames,
)
from .wire import b64decode, decode_error, decode_key_container, dumps

MASTER_SAE = "sae-client"
SLAVE_SAE = "sae-mec"
_RESERVED_COMPONENTS = {"client", "gateway", "lcmp", "kme-client", "kme-mec"}


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QkdSettings:
    seed: bytes | None
    rate_bits_per_sec: int
    capacity_bits: int
    default_key_length: int = 256
    max_key_per_request: int = 128


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
            default_key_length=int(qkd_doc.get("default_key_length", 256)),
            max_key_per_request=int(qkd_doc.get("max_key_per_request", 128)),
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
                if chain_to == app.key:
                    raise InvalidConfigError(f"{app.app_name} cannot chain to itself")
            catalog_entries.append(CatalogEntry(
                app=app,
                handler=str(app_doc.get("handler", app.app_name)),
                shareable=bool(app_doc.get("shareable", True)),
                chain_to=chain_to,
            ))
        keys = {entry.app.key for entry in catalog_entries}
        if len(keys) != len(catalog_entries):
            raise InvalidConfigError("duplicate catalog entries")
        for entry in catalog_entries:
            if entry.chain_to is not None and entry.chain_to not in keys:
                raise InvalidConfigError(f"{entry.app.app_name} chains to unknown app")

        hosts = []
        for host_doc in doc.get("hosts", ()):
            host_id = str(host_doc["host_id"])
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
            # names must exist; version/provider mismatches surface at discovery time
            if binding.app_name not in {k[0] for k in keys}:
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

        token = doc.get("auth_token")
        return cls(
            qkd=qkd, catalog=catalog_entries, hosts=hosts, bindings=bindings,
            policy=policy, workload=workload, clock_mode=clock_mode,
            transport_mode=transport_mode, offered_suites=offered,
            assertions=assertions, auth_token=str(token) if token else None,
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
    gateway_url: str
    lcmp: Lcmp
    hosts: dict[str, MecHost]
    kme_master: Any
    kme_slave: Any
    servers: list[ComponentHttpServer] = field(default_factory=list)

    @classmethod
    def build(cls, config: ScenarioConfig) -> "Stack":
        clock: Clock = SimulatedClock() if config.clock_mode == "simulated" else SystemClock()
        transcript = Transcript(clock)
        seed = config.qkd.seed

        master, slave = new_kme_pair(
            seed, config.qkd.rate_bits_per_sec, config.qkd.capacity_bits, clock=clock,
            master_sae=MASTER_SAE, slave_sae=SLAVE_SAE,
            default_key_length=config.qkd.default_key_length,
            max_key_per_request=config.qkd.max_key_per_request,
        )

        servers: list[ComponentHttpServer] = []
        if config.transport_mode == "http":
            transport = HttpTransport(transcript, clock)
            server_map: dict[str, ComponentHttpServer] = {}
            names = ["kme-client", "kme-mec", "lcmp", "gateway"] + [h.host_id for h in config.hosts]
            for name in names:
                server = ComponentHttpServer(name)
                server_map[name] = server
                servers.append(server)
                transport.register_name(server.base_url.removeprefix("http://"), name)
            url_of = {name: server.base_url for name, server in server_map.items()}
        else:
            transport = InprocTransport(transcript, clock)
            url_of = {name: f"inproc://{name}"
                      for name in ["kme-client", "kme-mec", "lcmp", "gateway"]
                      + [h.host_id for h in config.hosts]}

        catalog = Catalog(config.catalog)

        hosts: dict[str, MecHost] = {}
        for host_seed in config.hosts:
            host_kme = KmeClient(transport, src=host_seed.host_id,
                                 base_url=url_of["kme-mec"], channel="qkd")
            hosts[host_seed.host_id] = MecHost(
                host_seed.host_id, host_seed.total_slots,
                base_url=url_of[host_seed.host_id], sae_id=SLAVE_SAE,
                kme=host_kme, key_store=KeyStore(clock, config.policy.max_age_sec),
                transport=transport, master_sae=MASTER_SAE,
                handlers=BUILTIN_HANDLERS,
            )

        commanders = {
            host_id: HostCommander(transport, src="lcmp", base_url=url_of[host_id])
            for host_id in hosts
        }
        meo = Meo(catalog, commanders, {h.host_id: h.total_slots for h in config.hosts})
        lcmp = Lcmp(catalog, meo, clock=clock,
                    id_stream=make_stream(seed, "app-context-id"))

        gateway_kme = KmeClient(transport, src="gateway",
                                base_url=url_of["kme-client"], channel="qkd")
        client_store = KeyStore(clock, config.policy.max_age_sec)
        bindings = [
            RouteBinding(path_prefix=b.path_prefix, app_name=b.app_name,
                         provider=b.provider, version=b.version, plaintext=b.plaintext)
            for b in config.bindings
        ]
        gateway = Gateway(
            bindings=bindings, transport=transport, lcmp_url=url_of["lcmp"],
            kme=gateway_kme, key_store=client_store, policy=config.policy,
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

        if config.transport_mode == "http":
            for server in servers:
                server.router = routers[server.name]
                server.start()
        else:
            for name, router in routers.items():
                transport.register(name, router)

        return cls(config=config, clock=clock, transcript=transcript, transport=transport,
                   gateway=gateway, gateway_url=url_of["gateway"], lcmp=lcmp, hosts=hosts,
                   kme_master=master, kme_slave=slave, servers=servers)

    def client_request(self, path: str, body: bytes,
                       headers: Mapping[str, str] | None = None):
        return self.transport.request(src="client", channel="client", method="POST",
                                      url=self.gateway_url + path, body=body,
                                      headers=headers)

    def stop(self) -> None:
        if isinstance(self.transport, HttpTransport):
            self.transport.close()
        # Side by side: each stop waits out its server's 0.5 s poll.
        threads = [threading.Thread(target=server.stop) for server in self.servers]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

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


def compute_metrics(records: Sequence[Record],
                    latencies: Sequence[float] | None = None) -> RunMetrics:
    """Derive run metrics from a transcript.

    When driver-side latencies are not supplied (e.g. when re-reporting a
    stored transcript) they are estimated by pairing client-channel request
    and response frames in order, which is exact for serialized runs.
    """
    metrics = RunMetrics()
    pending_client_ts: list[float] = []
    paired_latencies: list[float] = []
    for record, frame in iter_frames(records):
        chan = record.channel
        if chan == "client":
            if frame.kind == "REQ":
                pending_client_ts.append(record.ts)
            else:
                if pending_client_ts:
                    paired_latencies.append(record.ts - pending_client_ts.pop(0))
                metrics.requests_total += 1
                if frame.status == 200:
                    metrics.requests_ok += 1
                else:
                    code, _ = decode_error(frame.body)
                    metrics.errors[code] = metrics.errors.get(code, 0) + 1
        elif chan == "qkd" and frame.kind == "RSP" and frame.status == 200 \
                and frame.path.endswith("/enc_keys"):
            container = decode_key_container(frame.body)
            metrics.qkd_keys_consumed += len(container.keys)
            metrics.qkd_bits_consumed += sum(len(e.key) * 8 for e in container.keys)
        elif chan == "mx2" and frame.kind == "RSP" and frame.status == 201 \
                and frame.path.endswith("/app_contexts"):
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


def wiretap_assert(records: Sequence[Record],
                   forbidden: Sequence[bytes]) -> WiretapReport:
    """Fail iff any forbidden byte string occurs in an inter-domain payload."""
    findings: list[WiretapFinding] = []
    scanned = 0
    needles = [n for n in forbidden if n]
    for index, record in enumerate(records):
        if record.channel not in INTER_DOMAIN_CHANNELS:
            continue
        scanned += 1
        payload = record.payload
        for needle in needles:
            if needle in payload:
                findings.append(WiretapFinding(
                    record_index=index, channel=record.channel,
                    src=record.src, dst=record.dst,
                    needle_preview=repr(needle[:24]),
                ))
    return WiretapReport(passed=not findings, findings=tuple(findings),
                         frames_scanned=scanned)


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
