#!/usr/bin/env python3
"""edgeqkd benchmark: one closed-loop client driving a ``harness.Stack``.

    python3 perfbench/run.py --workload reuse-small --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 1

A run pins itself to one CPU and builds fresh stacks from the program
source in ``src/`` of this checkout, one after another, until the drive
phase has lasted ``--seconds``.  One stack driven first warms the process up;
its replies are checked but its times are not used.
Each stack serves a fixed number of requests (the workload's
``per_stack``), so memory and every count depend on the workload, never on
how fast the machine is.  For each stack the run:

1. times set-up: ``Stack.build`` plus the first request on every route;
2. drives ``per_stack`` requests through ``Stack.client_request``, waiting
   for each reply (one client, closed loop), timing each with
   ``time.perf_counter_ns`` and checking status and body;
3. stops the stack and times ``harness.compute_metrics`` plus
   ``harness.wiretap_assert`` over its transcript, with every workload body
   forbidden on the inter-domain channels.

Every time is reported at the reference speed.  The host's speed moves
between levels up to 1.7x apart that last seconds, whatever runs on it, so
the run times a fixed speed probe (``probe_ns``) next to each piece of work:
before and after set-up, after every ``block`` requests of the drive, and
before and after the verification.  Each time is scaled by ``PROBE_REF_NS`` over the
probe time next to it, which gives what it would have taken on a host where
the probe takes exactly ``PROBE_REF_NS``.  The probe runs no program code,
so a change to the program moves the scaled times as it moves the raw ones.
``detail`` reports the raw p50 and p99 and the probe times as well.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` first drives
untraced for half the time, then wraps each module's entry points (see
``spans.py``) and drives traced for the other half; it prints the per-layer
metrics and writes the recorded spans under ``perfbench/out/``.
``--workload all`` runs every workload in its own process and prints a
table.  The last line of standard output is always one JSON object.
"""

from __future__ import annotations

import argparse
import base64
import gc
import hashlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

ROUTES = {"/echo": "fn-echo", "/upper": "fn-upper", "/sum": "fn-sum"}
BODIES_PER_ROUTE = 4
# The simulated clock never advances, so the pool never refills: it must
# hold every key one stack can draw.
POOL_BITS = 1 << 40
# Fresh stacks built only to time set-up, so that setup_s is a median of
# several builds even when a run drives only a few stacks.
SETUP_ONLY_STACKS = 5
SMOKE_PER_STACK = 6
# The reference speed: the probe takes exactly this long.  Near the probe's
# time on the 2-vCPU virtual machine the benchmark was built on (0.7-1.1 ms),
# so scaled times read close to raw ones there.
PROBE_REF_NS = 1_000_000
# Each drive block's scale is the median of this many neighbouring probes, so
# one disturbed probe cannot move its block.
PROBE_WINDOW = 5


@dataclass(frozen=True)
class Workload:
    name: str
    transport: str  # "inproc" or "http"
    max_uses: int
    body_size: int
    paths: tuple[str, ...]
    per_stack: int  # requests driven through each fresh stack
    block: int  # requests between two speed probes: 40-90 ms of work, and at most
    # 0.5% of requests on the small in-process workloads, whose first request
    # after a probe is slower (the probe cools the caches) and must stay out of p99
    why: str


SMALL_ROUTES = tuple(ROUTES)
WORKLOADS = {w.name: w for w in (
    Workload("reuse-small", "inproc", 1000, 64, SMALL_ROUTES, 6000, 250,
             "64 B bodies, one key per 1000 requests per route: per-message cost "
             "(transport, envelope codec, AES, transcript) with the key-management layer nearly idle"),
    Workload("rekey-small", "inproc", 1, 64, SMALL_ROUTES, 6000, 200,
             "reuse-small with max_uses=1: each request adds an enc_keys and a dec_keys exchange "
             "and two key-store inserts, isolating kme, entropy and keystore costs"),
    Workload("bulk-64k", "inproc", 1000, 65536, ("/echo",), 100, 10,
             "64 KiB bodies to /echo only: per-byte cost of envelope base64+JSON, AES-GCM and "
             "a ~0.4 MB per-request transcript, and the verification over it"),
    Workload("http-small", "http", 1000, 64, SMALL_ROUTES, 1800, 25,
             "reuse-small over real loopback HTTP, the only workload that crosses sockets: "
             "a fresh TCP connection and server thread per message"),
)}


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

_TEXT = b"abcdefghijklmnopqrstuvwxyz0123456789 "


def make_body(rng: random.Random, path: str, size: int) -> tuple[bytes, bytes]:
    """One request body of exactly ``size`` bytes and the reply it must get."""
    if path == "/sum":
        values: list[int] = []
        text = "[]"
        while True:
            candidate = json.dumps(values + [rng.randrange(100000)], separators=(",", ":"))
            if len(candidate) > size:
                break
            values, text = json.loads(candidate), candidate
        body = (text[:-1] + " " * (size - len(text)) + "]").encode("ascii")
        return body, str(sum(values)).encode("ascii")
    body = bytes(rng.choices(_TEXT, k=size))
    if path == "/upper":
        return body, body.decode("ascii").upper().encode("ascii")
    return body, body


@dataclass
class Inputs:
    doc: dict  # scenario config document
    warmup: list[tuple[str, bytes, bytes]]  # first request on every route
    plan: list[tuple[str, bytes, bytes]]  # (path, body, expected reply), per stack
    forbidden: list[bytes]


def make_inputs(workload: Workload, seed: int, per_stack: int) -> Inputs:
    """Everything a run sends, derived from the workload and ``seed`` alone."""
    rng = random.Random(f"{workload.name}:{seed}")
    pools = {path: [make_body(rng, path, workload.body_size) for _ in range(BODIES_PER_ROUTE)]
             for path in workload.paths}
    routes = len(workload.paths)
    plan = []
    for i in range(per_stack):
        path = workload.paths[i % routes]
        plan.append((path, *pools[path][(i // routes) % BODIES_PER_ROUTE]))
    doc = {
        "qkd": {"seed": hashlib.sha256(f"qkd:{workload.name}:{seed}".encode()).hexdigest(),
                "rate_bits_per_sec": 0, "capacity_bits": POOL_BITS},
        "catalog": [{"app_name": ROUTES[p], "provider": "perfbench", "version": "1.0",
                     "required_slots": 1} for p in workload.paths],
        "hosts": [{"host_id": "edge-a", "total_slots": 4},
                  {"host_id": "edge-b", "total_slots": 4}],
        "bindings": [{"path_prefix": p, "app_name": ROUTES[p], "provider": "perfbench",
                      "version": "1.0"} for p in workload.paths],
        "policy": {"max_uses": workload.max_uses, "max_age_sec": 3600},
        "transport": workload.transport,
        "offered_suites": [1],
    }
    return Inputs(doc=doc, warmup=[(p, *pools[p][0]) for p in workload.paths], plan=plan,
                  forbidden=[body for pool in pools.values() for body, _ in pool])


# ---------------------------------------------------------------------------
# Host speed
# ---------------------------------------------------------------------------

_PROBE_DOC = {"values": list(range(40)), "text": "probe " * 30, "nested": {"x": 1.5, "y": [True, None]}}


def probe_ns() -> int:
    """Time a fixed slice of interpreter work: JSON, base64 and an integer loop.

    It calls only the standard library, never the program, so a change to
    the program cannot move it.  The collector is held off, so that a
    collection falling due from the program's allocations cannot land in it.
    """
    clock = time.perf_counter_ns
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = clock()
        for _ in range(20):
            text = json.dumps(_PROBE_DOC)
            json.loads(text)
            base64.b64decode(base64.b64encode(text.encode()))
            total = 0
            for i in range(200):
                total += i * i % 7
        return clock() - started
    finally:
        if enabled:
            gc.enable()


def _scale(raw_ns: float, probes: list[int]) -> float:
    return raw_ns * PROBE_REF_NS / statistics.median(probes)


# ---------------------------------------------------------------------------
# One stack
# ---------------------------------------------------------------------------

@dataclass
class StackRun:
    setup_ns: float  # scaled to the reference speed, as are drive_scaled_ns, verify_ns, latencies
    drive_ns: int  # raw: sets how long a run drives
    drive_scaled_ns: float
    verify_ns: float
    latencies: list[float]
    raw_latencies: list[int]
    probes: list[int]
    requests: int  # client requests this stack served, set-up included
    drive_requests: int
    drive_failed: int
    failed: int
    checks: dict[str, bool]
    dispensed_bits: int
    dispensed_keys: int
    setup_exchanges: int
    drive_exchanges: int
    drive_transcript_bytes: int
    drive_dec_fetches: int
    store_entries: int
    frames_scanned: int


def _stop(stack) -> None:
    # Same as Stack.stop, but the servers stop side by side: each stop waits
    # for its server's 0.5 s poll, which would otherwise add up per stack.
    threads = [threading.Thread(target=server.stop) for server in stack.servers]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def run_stack(harness, config, inputs: Inputs, plan, block: int, tracer=None) -> StackRun:
    """Build one stack, drive ``plan`` through it, stop it and verify its transcript.

    A speed probe runs before and after set-up and after every ``block``
    requests; every time is scaled by the probes next to it.
    """
    clock = time.perf_counter_ns
    if tracer is not None:
        tracer.phase, tracer.rid = "setup", None
    failed = non_ok = 0
    setup_probes = [probe_ns()]
    started = clock()
    stack = harness.Stack.build(config)
    try:
        for path, body, expected in inputs.warmup:
            response = stack.client_request(path, body)
            non_ok += response.status != 200
            failed += response.status != 200 or response.body != expected
        setup_ns = clock() - started
        setup_probes.append(probe_ns())
        setup_records = len(stack.transcript.records())
        fetches_before = sum(host.dec_fetches for host in stack.hosts.values())
        if tracer is not None:
            tracer.phase = "drive"
        raw_latencies = []
        block_ns: list[int] = []  # drive time of each block, probes left out
        probes: list[int] = []  # the probe after each block
        drive_failed = 0
        request = stack.client_request
        for first in range(0, len(plan), block):
            block_start = clock()
            for rid in range(first, min(first + block, len(plan))):
                path, body, expected = plan[rid]
                if tracer is not None:
                    tracer.rid = rid
                sent = clock()
                response = request(path, body)
                raw_latencies.append(clock() - sent)
                if response.status != 200 or response.body != expected:
                    drive_failed += 1
                    non_ok += response.status != 200
            block_ns.append(clock() - block_start)
            probes.append(probe_ns())
        drive_dec_fetches = sum(host.dec_fetches for host in stack.hosts.values()) - fetches_before
        store_entries = len(stack.gateway._store) + sum(len(h._store) for h in stack.hosts.values())
        pool = stack.pool_stats()
    finally:
        _stop(stack)
    records = stack.transcript.records()
    requests = len(inputs.warmup) + len(plan)
    if tracer is not None:
        tracer.phase, tracer.rid = "verify", None
    verify_probes = [probe_ns()]
    verify_start = clock()
    metrics = harness.compute_metrics(records)
    wiretap = harness.wiretap_assert(records, inputs.forbidden)
    verify_ns = clock() - verify_start
    verify_probes.append(probe_ns())
    latencies: list[float] = []
    drive_scaled_ns = 0.0
    half = PROBE_WINDOW // 2
    for index, raw_ns in enumerate(block_ns):
        factor = PROBE_REF_NS / statistics.median(probes[max(0, index - half):index + half + 1])
        drive_scaled_ns += raw_ns * factor
        latencies.extend(ns * factor for ns in raw_latencies[index * block:(index + 1) * block])
    drive_records = records[setup_records:]
    return StackRun(
        setup_ns=_scale(setup_ns, setup_probes), drive_ns=sum(block_ns),
        drive_scaled_ns=drive_scaled_ns, verify_ns=_scale(verify_ns, verify_probes),
        latencies=latencies, raw_latencies=raw_latencies,
        probes=setup_probes + probes + verify_probes,
        requests=requests, drive_requests=len(plan), drive_failed=drive_failed,
        failed=failed + drive_failed,
        checks={
            "wiretap": wiretap.passed,
            "pool_conservation": pool["dispensed_bits"] <= pool["produced_bits"],
            "transcript_counts": (metrics.requests_total == requests
                                  and metrics.requests_ok == requests - non_ok),
        },
        dispensed_bits=pool["dispensed_bits"], dispensed_keys=pool["dispensed_keys"],
        setup_exchanges=setup_records // 2, drive_exchanges=len(drive_records) // 2,
        drive_transcript_bytes=sum(len(r["payload_b64"]) for r in drive_records),
        drive_dec_fetches=drive_dec_fetches, store_entries=store_entries,
        frames_scanned=wiretap.frames_scanned,
    )


def run_phase(harness, config, inputs: Inputs, block: int, seconds: float,
              tracer=None) -> list[StackRun]:
    """Drive fresh stacks until the drive time reaches ``seconds`` (at least one)."""
    runs: list[StackRun] = []
    budget_ns = seconds * 1e9
    while not runs or sum(r.drive_ns for r in runs) < budget_ns:
        runs.append(run_stack(harness, config, inputs, inputs.plan, block, tracer))
        gc.collect()
    return runs


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def percentile(sorted_values: list[int], q: float) -> int:
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(runs: list[StackRun], setup_runs: list[StackRun]) -> dict:
    latencies = sorted(ns for r in runs for ns in r.latencies)
    drive_s = sum(r.drive_scaled_ns for r in runs) / 1e9
    completed = sum(r.drive_requests - r.drive_failed for r in runs)
    everything = runs + setup_runs
    attempted = sum(r.requests for r in everything)
    failed = sum(r.failed for r in everything)
    # per-request costs come from the drive stacks alone, which are all alike,
    # so the share of set-up-only stacks in a run cannot move them
    served = sum(r.requests for r in runs)
    # one verification is a single call of up to a second, which a change of
    # host speed can split: take the stacks' median rather than their sum
    verify_ns = statistics.median(r.verify_ns / r.requests for r in runs)
    return {
        "throughput_rps": _metric(completed / drive_s, "req/s"),
        "latency_p50_ms": _metric(statistics.median(latencies) / 1e6, "ms"),
        "setup_s": _metric(statistics.median(r.setup_ns for r in everything) / 1e9, "s"),
        "verify_us_per_req": _metric(verify_ns / 1e3, "us"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "qkd_bits_per_req": _metric(sum(r.dispensed_bits for r in runs) / served, "bits"),
        # error_rate's complement: the metric must never read 0
        "success_ratio": _metric((attempted - failed) / attempted, "ratio"),
    }


LAYER_UNITS = {  # every other per-layer metric is in microseconds per request
    "kme.keys_per_req": "count",
    "keystore.entries_end": "count",
    "host.key_fetch_ratio": "ratio",
    "transport.exchanges_per_req": "count",
    "transport.transcript_bytes_per_req": "bytes",
    "httpd.connects_per_req": "count",
    "control.setup_exchanges": "count",
    "trace.overhead_ratio": "ratio",
}


def per_layer(runs: list[StackRun], tracer, untraced_p50_ns: float) -> dict:
    drive = sum(r.drive_requests for r in runs)
    requests = sum(r.requests for r in runs)
    stacks = len(runs)
    # spans are not matched to probes one by one: the whole traced phase takes one scale
    factor = PROBE_REF_NS / statistics.median(ns for r in runs for ns in r.probes)

    def self_us(name, phase="drive", per=drive):
        return tracer.self_ns[(phase, name)] * factor / per / 1e3

    def total_us(name, phase="drive", per=drive):
        return tracer.total_ns[(phase, name)] * factor / per / 1e3

    invocations = tracer.calls[("drive", "host.invoke")]
    latencies = sorted(ns for r in runs for ns in r.latencies)
    values = {
        "gateway.self_us": self_us("gateway.handle_request"),
        "channel.encrypt_us": self_us("channel.encrypt"),
        "channel.decrypt_us": self_us("channel.decrypt"),
        "channel.encrypt_response_us": self_us("channel.encrypt_response"),
        "channel.envelope_codec_us": self_us("channel.envelope_codec"),
        "kme.enc_keys_us": total_us("kme.get_enc_keys"),
        "kme.dec_keys_us": total_us("kme.get_dec_keys"),
        "kme.dispense_us": self_us("kme.dispense"),
        "kme.release_us": self_us("kme.release"),
        "kme.keys_per_req": sum(r.dispensed_keys for r in runs) / requests,
        "entropy.read_us": self_us("entropy.read"),
        "keystore.get_us": self_us("keystore.get"),
        "keystore.put_us": self_us("keystore.put"),
        "keystore.entries_end": runs[-1].store_entries,
        "host.invoke_self_us": self_us("host.invoke"),
        "host.handler_us": self_us("host.handler"),
        "host.key_fetch_ratio": sum(r.drive_dec_fetches for r in runs) / invocations if invocations else 0.0,
        "transport.request_self_us": self_us("transport.request"),
        "transport.dispatch_self_us": self_us("transport.dispatch"),
        "transport.transcript_append_us": self_us("transport.transcript_append"),
        "transport.exchanges_per_req": sum(r.drive_exchanges for r in runs) / drive,
        "transport.transcript_bytes_per_req": sum(r.drive_transcript_bytes for r in runs) / drive,
        "wire.json_us": total_us("wire.json"),
        "wire.b64_us": total_us("wire.b64"),
        "httpd.exchange_overhead_us": tracer.exchange_overhead_ns["drive"] * factor / drive / 1e3,
        "httpd.connects_per_req": tracer.counts[("drive", "httpd.connect")] / drive,
        "control.lookup_us": total_us("control.lookup", "setup", stacks),
        "control.create_context_us": total_us("control.create_context", "setup", stacks),
        "control.setup_exchanges": sum(r.setup_exchanges for r in runs) / stacks,
        "harness.compute_metrics_us": total_us("harness.compute_metrics", "verify", requests),
        "harness.wiretap_us": total_us("harness.wiretap", "verify", requests),
        "trace.overhead_ratio": statistics.median(latencies) / untraced_p50_ns,
    }
    return {name: _metric(value, LAYER_UNITS.get(name, "us")) for name, value in values.items()}


# ---------------------------------------------------------------------------
# Facts recorded with every result
# ---------------------------------------------------------------------------

def git_sha(root: Path) -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git; None outside git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _loopback(hex_addr: str) -> bool:
    # /proc/net/tcp* print each 32-bit word of the address in host (little-endian) order
    if len(hex_addr) == 8:
        return hex_addr[6:8] == "7F"
    if hex_addr == "00000000000000000000000001000000":
        return True
    return hex_addr.startswith("0000000000000000FFFF0000") and hex_addr[30:32] == "7F"


def loopback_time_wait() -> int | None:
    """Loopback TCP sockets in TIME_WAIT, read from /proc (None if unreadable)."""
    count, readable = 0, False
    for table in ("/proc/net/tcp", "/proc/net/tcp6"):
        try:
            lines = Path(table).read_text().splitlines()[1:]
        except OSError:
            continue
        readable = True
        for line in lines:
            fields = line.split()
            if len(fields) > 3 and fields[3] == "06" and _loopback(fields[1].split(":")[0]):
                count += 1
    return count if readable else None


def machine_facts() -> dict:
    import cryptography

    return {
        "git_sha": git_sha(ROOT),
        "python": platform.python_version(),
        "cryptography": cryptography.__version__,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def pin_to_one_cpu() -> int:
    """Keep this process and every thread it starts on one CPU; returns that CPU.

    The loop is closed, so one thread works at a time.  On a small virtual
    machine, waking a thread on another virtual CPU costs more, and varies
    far more from run to run, than the request itself.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def load_program():
    """Import edgeqkd from this checkout's ``src/``; exit non-zero if it is missing."""
    if not (SRC / "edgeqkd" / "__init__.py").is_file():
        print(f"perfbench: program source not found under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    from edgeqkd import harness

    return harness


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool, smoke: bool) -> int:
    harness = load_program()
    facts = machine_facts()  # before pinning, which narrows the usable CPUs
    cpu = pin_to_one_cpu()
    per_stack = SMOKE_PER_STACK if smoke else workload.per_stack
    inputs = make_inputs(workload, seed, per_stack)
    config = harness.ScenarioConfig.from_doc(inputs.doc)
    time_wait = loopback_time_wait() if workload.transport == "http" else None
    detail = {
        "workload": workload.name, "seed": seed, "trace": int(trace), "smoke": smoke,
        "crossing": "loopback" if workload.transport == "http" else "in-process",
        "requests_per_stack": per_stack, "loopback_time_wait_at_start": time_wait,
        "facts": facts, "pinned_cpu": cpu,
    }
    block = min(workload.block, per_stack)
    # warm-up: checked like every stack, timed but not reported
    warm = [] if smoke else [run_stack(harness, config, inputs, inputs.plan, block)]
    gc.collect()
    tracer = None
    if trace:
        from spans import Tracer, install

        untraced = run_phase(harness, config, inputs, block, seconds / 2)
        untraced_p50 = statistics.median(ns for r in untraced for ns in r.latencies)
        tracer = Tracer()
        install(tracer)
        runs = run_phase(harness, config, inputs, block, seconds / 2, tracer)
        metrics = per_layer(runs, tracer, untraced_p50)
        everything = warm + untraced + runs
        detail["unlinked_http_exchanges"] = tracer.unlinked_exchanges
    else:
        setup_runs = [run_stack(harness, config, inputs, [], block)
                      for _ in range(1 if smoke else SETUP_ONLY_STACKS)]
        runs = run_phase(harness, config, inputs, block, seconds)
        metrics = end_to_end(runs, setup_runs)
        everything = warm + setup_runs + runs
    attempted = sum(r.requests for r in everything)
    failed = sum(r.failed for r in everything)
    checks = {name: all(r.checks[name] for r in everything) for name in everything[0].checks}
    if tracer is not None:
        checks["http_spans_linked"] = tracer.unlinked_exchanges == 0
    samples = sum(len(r.latencies) for r in runs)
    probes = [ns for r in runs for ns in r.probes]
    raw = sorted(ns for r in runs for ns in r.raw_latencies)
    detail.update({
        "raw_latency_p50_ms": statistics.median(raw) / 1e6,
        "raw_latency_p99_ms": percentile(raw, 0.99) / 1e6,
        "probe_ms": {"min": min(probes) / 1e6, "median": statistics.median(probes) / 1e6,
                     "max": max(probes) / 1e6, "reference": PROBE_REF_NS / 1e6},
        "stacks": len(everything),
        "drive_seconds": sum(r.drive_ns for r in runs) / 1e9,
        # reported here, not as a metric: on a shared host its spread from run
        # to run of the same code reached 0.2 to 0.4 (see README.md)
        "latency_p99_ms": percentile(sorted(ns for r in runs for ns in r.latencies), 0.99) / 1e6,
        "latency_samples": samples,
        "samples_above_p99": samples - math.ceil(0.99 * samples),
        "error_rate": failed / attempted, "checks": checks,
        "frames_scanned": sum(r.frames_scanned for r in everything),
    })
    if tracer is not None:
        OUT.mkdir(exist_ok=True)
        spans_file = OUT / f"trace-{workload.name}-seed{seed}.json"
        tracer.write(spans_file, detail=detail, metrics=metrics)
        detail["spans_file"] = str(spans_file.relative_to(ROOT))
    correct = failed == 0 and all(checks.values())
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def run_all(args: argparse.Namespace) -> int:
    """Run every workload in its own process, so peak RSS belongs to one workload."""
    load_program()
    results = {}
    for name in WORKLOADS:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(command, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            sys.stderr.write(proc.stderr)
            print(f"perfbench: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 2
        results[name] = json.loads(lines[-1])
    names = list(results)
    rows = list(results[names[0]]["metrics"])
    print(f"{'metric':34} {'unit':6} " + " ".join(f"{n:>14}" for n in names))
    for metric in rows:
        unit = results[names[0]]["metrics"][metric]["unit"]
        cells = " ".join(f"{results[n]['metrics'][metric]['value']:>14.6g}" for n in names)
        print(f"{metric:34} {unit:6} {cells}")
    print(" ".join(f"{n}: correct={results[n]['correct']} failed={results[n]['failed']}"
                   for n in names))
    correct = all(r["correct"] for r in results.values())
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in results.values()),
                      "failed": sum(r["failed"] for r in results.values()),
                      "workloads": results}))
    return 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help=f"{SMOKE_PER_STACK} requests per stack, one stack per phase")
    args = parser.parse_args(argv)
    if args.seconds < 0:
        parser.error("--seconds must be non-negative")
    if args.workload == "all":
        return run_all(args)
    seconds = 0.0 if args.smoke else args.seconds
    return run_workload(WORKLOADS[args.workload], args.seed, seconds, bool(args.trace), args.smoke)


if __name__ == "__main__":
    sys.exit(main())
