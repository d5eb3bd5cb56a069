from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from edgeqkd.clock import SimulatedClock
from edgeqkd.errors import InvalidConfigError
from edgeqkd.harness import (
    RunMetrics,
    RunResult,
    ScenarioConfig,
    compute_metrics,
    run_scenario,
    wiretap_assert,
)
from edgeqkd.transport import Transcript

SEED_HEX = "9c" * 32


def echo_doc(**overrides):
    doc = {
        "qkd": {"seed": SEED_HEX, "rate_bits_per_sec": 1000, "capacity_bits": 8192},
        "catalog": [{"app_name": "fn-echo", "provider": "demo", "version": "1.0",
                     "required_slots": 1}],
        "hosts": [{"host_id": "edge-a", "total_slots": 4}],
        "bindings": [{"path_prefix": "/echo", "app_name": "fn-echo",
                      "provider": "demo", "version": "1.0"}],
        "policy": {"max_uses": 1, "max_age_sec": 1e9},
        "workload": [{"path": "/echo", "body": "workload body with entropy 123456",
                      "repeat": 5}],
        "clock": "simulated",
    }
    doc.update(overrides)
    return doc


# ---------------------------------------------------------------------------
# Config validation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("mutate", [
    lambda d: d.pop("qkd"),
    lambda d: d["qkd"].update(capacity_bits=0),
    lambda d: d["qkd"].update(rate_bits_per_sec=-5),
    lambda d: d.update(hosts=[]),
    lambda d: d.update(hosts=[{"host_id": "gateway", "total_slots": 1}]),
    lambda d: d.update(hosts=[{"host_id": "a", "total_slots": 1},
                              {"host_id": "a", "total_slots": 1}]),
    lambda d: d["workload"][0].update(repeat=0),
    lambda d: d["workload"][0].update(concurrency=0),
    lambda d: d["workload"][0].update(interval_sec=-1),
    lambda d: d.update(clock="lunar"),
    lambda d: d.update(transport="carrier-pigeon"),
    lambda d: d.update(offered_suites=[]),
    lambda d: d["bindings"][0].update(app_name="fn-unknown"),
    lambda d: d["bindings"][0].update(path_prefix="echo"),
    lambda d: d["catalog"].append({"app_name": "fn-echo", "provider": "demo",
                                   "version": "1.0", "required_slots": 1}),
    lambda d: d["catalog"][0].update(chain_to={"app_name": "fn-echo", "provider": "demo",
                                               "version": "1.0"}),
    lambda d: d.update(offered_suites=[7, 9]),
])
def test_invalid_configs_rejected(mutate):
    doc = echo_doc()
    mutate(doc)
    with pytest.raises(InvalidConfigError):
        ScenarioConfig.from_doc(doc)


def test_valid_config_parses():
    config = ScenarioConfig.from_doc(echo_doc())
    assert config.qkd.seed == bytes.fromhex(SEED_HEX)
    assert config.workload[0].repeat == 5


# ---------------------------------------------------------------------------
# Scenario metrics
# ---------------------------------------------------------------------------

def test_refresh_accounting_in_scenarios():
    for repeat, max_uses in ((5, 1), (7, 3)):
        doc = echo_doc(policy={"max_uses": max_uses, "max_age_sec": 1e9},
                       workload=[{"path": "/echo", "body": "b" * 20, "repeat": repeat}])
        result = run_scenario(ScenarioConfig.from_doc(doc))
        assert result.metrics.requests_ok == repeat
        assert result.metrics.qkd_keys_consumed == math.ceil(repeat / max_uses)


def test_metrics_cross_check_pool_counters():
    result = run_scenario(ScenarioConfig.from_doc(echo_doc()))
    assert result.metrics.qkd_bits_consumed == result.pool_stats["dispensed_bits"]
    assert result.metrics.qkd_keys_consumed == result.pool_stats["dispensed_keys"]
    total = result.metrics.requests_ok + sum(result.metrics.errors.values())
    assert total == result.metrics.requests_total


def test_transcript_record_shape():
    result = run_scenario(ScenarioConfig.from_doc(echo_doc()))
    assert result.records, "transcript must not be empty"
    for record in result.records:
        assert set(record) == {"ts", "from", "to", "channel", "payload_b64"}
        assert isinstance(record["ts"], float)


def test_report_from_stored_transcript_matches():
    result = run_scenario(ScenarioConfig.from_doc(echo_doc()))
    reparsed = Transcript.parse_ndjson(result.transcript_ndjson())
    again = compute_metrics(reparsed)
    live = result.metrics
    assert again.requests_total == live.requests_total
    assert again.requests_ok == live.requests_ok
    assert again.qkd_keys_consumed == live.qkd_keys_consumed
    assert again.qkd_bits_consumed == live.qkd_bits_consumed
    assert again.contexts_created == live.contexts_created


def ndjson_of(transcript: Transcript) -> bytes:
    records = transcript.records()
    return RunResult(config=ScenarioConfig.from_doc(echo_doc()), metrics=RunMetrics(),
                     records=records, wiretap=wiretap_assert(records, []),
                     pool_stats={}).transcript_ndjson()


def test_transcript_ndjson_bytes():
    clock = SimulatedClock()
    transcript = Transcript(clock)
    transcript.append("client", "gateway", "client", b"REQ POST /echo\n\nhi")
    clock.advance(0.25)
    transcript.append("gateway", "client", "client", b"\x00\xff\n\n")
    assert ndjson_of(transcript) == (
        b'{"ts":0.0,"from":"client","to":"gateway","channel":"client",'
        b'"payload_b64":"UkVRIFBPU1QgL2VjaG8KCmhp"}\n'
        b'{"ts":0.25,"from":"gateway","to":"client","channel":"client",'
        b'"payload_b64":"AP8KCg=="}\n'
    )


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(
    st.floats(min_value=0, max_value=1e6, allow_nan=False, allow_infinity=False),
    st.sampled_from(["client", "data", "qkd", "mx2"]),
    st.binary(max_size=64) | st.sampled_from([b"", b"\xff\xfe\x80", b"RSP 200\n\n\n\nbody"]),
), max_size=12))
def test_transcript_ndjson_round_trip(frames):
    clock = SimulatedClock()
    transcript = Transcript(clock)
    for step, channel, payload in frames:
        clock.advance(step)
        transcript.append("src", "dst", channel, payload)
    original = transcript.records()
    parsed = Transcript.parse_ndjson(ndjson_of(transcript))
    assert parsed == original
    assert [r.payload for r in parsed] == [payload for _, _, payload in frames]


def test_reproducibility_same_seed():
    doc = echo_doc(workload=[{"path": "/echo", "body": "deterministic please",
                              "repeat": 4, "interval_sec": 0.25}])
    a = run_scenario(ScenarioConfig.from_doc(doc))
    b = run_scenario(ScenarioConfig.from_doc(doc))
    assert a.transcript_ndjson() == b.transcript_ndjson()
    assert a.metrics.to_doc() == b.metrics.to_doc()


def test_different_seed_changes_keys():
    a = run_scenario(ScenarioConfig.from_doc(echo_doc()))
    b = run_scenario(ScenarioConfig.from_doc(echo_doc(
        qkd={"seed": "00" * 32, "rate_bits_per_sec": 1000, "capacity_bits": 8192})))
    assert a.transcript_ndjson() != b.transcript_ndjson()


def test_concurrent_lanes_in_simulated_mode_stay_deterministic():
    doc = echo_doc(policy={"max_uses": 100, "max_age_sec": 1e9},
                   workload=[{"path": "/echo", "body": "lane body 0123456789abcdef",
                              "repeat": 3, "concurrency": 4, "interval_sec": 0.5}])
    a = run_scenario(ScenarioConfig.from_doc(doc))
    b = run_scenario(ScenarioConfig.from_doc(doc))
    assert a.metrics.requests_total == 12
    assert a.transcript_ndjson() == b.transcript_ndjson()


# ---------------------------------------------------------------------------
# Wiretap
# ---------------------------------------------------------------------------

def test_wiretap_clean_on_secured_route():
    marker = "CONFIDENTIAL-9e1b56ce7d plaintext marker"
    doc = echo_doc(workload=[{"path": "/echo", "body": marker, "repeat": 3}])
    result = run_scenario(ScenarioConfig.from_doc(doc))
    assert result.metrics.requests_ok == 3
    assert result.wiretap.passed
    assert result.wiretap.frames_scanned > 0
    assert result.ok


def test_wiretap_flags_plaintext_route():
    marker = "CONFIDENTIAL-ff00aa11 leaking body"
    doc = echo_doc(workload=[{"path": "/echo", "body": marker, "repeat": 1}])
    doc["bindings"][0]["plaintext"] = True
    result = run_scenario(ScenarioConfig.from_doc(doc))
    assert result.metrics.requests_ok == 1  # route still works, insecurely
    assert not result.wiretap.passed
    findings = result.wiretap.findings
    assert any(f.channel == "data" for f in findings)
    assert not result.ok


def test_wiretap_empty_forbidden_list_passes():
    result = run_scenario(ScenarioConfig.from_doc(echo_doc()))
    report = wiretap_assert(result.records, [])
    assert report.passed and report.findings == ()


def test_wiretap_scans_only_inter_domain_channels():
    # key material crosses the intra-domain qkd channel in the clear by design;
    # the wiretap must not look there
    result = run_scenario(ScenarioConfig.from_doc(echo_doc()))
    report = wiretap_assert(result.records, [b"/enc_keys"])
    assert report.passed


def test_explicit_forbidden_plaintexts_config():
    marker = "EXPLICIT-MARKER-26ab44c0 secret"
    doc = echo_doc(workload=[{"path": "/echo", "body": marker, "repeat": 1}],
                   assertions={"forbidden_plaintexts": [marker],
                               "auto_forbid_bodies": False})
    doc["bindings"][0]["plaintext"] = True
    result = run_scenario(ScenarioConfig.from_doc(doc))
    assert not result.wiretap.passed
