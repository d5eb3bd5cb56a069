from __future__ import annotations

import hashlib
import math
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from edgeqkd import harness
from edgeqkd.clock import SimulatedClock
from edgeqkd.errors import InvalidConfigError, MalformedError
from edgeqkd.harness import (
    RunMetrics,
    RunResult,
    ScenarioConfig,
    compute_metrics,
    run_scenario,
    wiretap_assert,
)
from edgeqkd.transport import (
    INTER_DOMAIN_CHANNELS,
    InprocTransport,
    Record,
    Router,
    Transcript,
    WireResponse,
    frame_head,
)

from conftest import EXAMPLE_VARIANTS, example_doc

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
    # a two-app chain cycle: placement would recurse without end
    lambda d: d.update(catalog=[
        {"app_name": "fn-echo", "provider": "demo", "version": "1.0",
         "chain_to": {"app_name": "fn-upper", "provider": "demo", "version": "1.0"}},
        {"app_name": "fn-upper", "provider": "demo", "version": "1.0",
         "chain_to": {"app_name": "fn-echo", "provider": "demo", "version": "1.0"}},
    ]),
    # a path that Transport.request would refuse mid-run
    lambda d: d["workload"][0].update(path="/svc/a b"),
    lambda d: d["workload"][0].update(path="/echo\tx"),
    lambda d: d["workload"][0].update(path="/echo\u00a0x"),
    lambda d: d["workload"][0].update(path="/echo/\u20ac"),
    lambda d: d["workload"][0].update(path="echo"),
    lambda d: d["workload"][0].update(path="/echo#f"),
    lambda d: d["workload"][0].update(path="/echo%zz"),
    # a token no authorization header can carry would stop the run at its first request
    lambda d: d.update(auth_token="s3cret "),
    lambda d: d.update(auth_token="s3\x01cret"),
    lambda d: d.update(auth_token="s3cr\u00e9t"),
    # the host counts a key's uses up to max_uses and ages it out by max_age_sec
    lambda d: d.update(policy={"max_uses": 0, "max_age_sec": 60}),
    lambda d: d.update(policy={"max_uses": 1, "max_age_sec": 0}),
    lambda d: d.update(policy={"max_uses": 1, "max_age_sec": -1}),
])
def test_invalid_configs_rejected(mutate):
    doc = echo_doc()
    mutate(doc)
    with pytest.raises(InvalidConfigError):
        ScenarioConfig.from_doc(doc)


@pytest.mark.parametrize("host_id", ["edge/a", "edge?a", "edge#a", "edge-A", "edge.a", "edge a",
                                     "edge:80", "-edge", "edge-", "", "\u0661", "edge\n",
                                     "a" * 64])
def test_host_id_must_be_a_url_host_label(host_id):
    # the id is the authority of the host's URLs, http://<host_id>/...
    with pytest.raises(InvalidConfigError):
        ScenarioConfig.from_doc(echo_doc(hosts=[{"host_id": host_id, "total_slots": 1}]))


@pytest.mark.parametrize("host_id", ["edge-a", "h00", "7", "a" * 63])
def test_host_id_label_is_accepted(host_id):
    config = ScenarioConfig.from_doc(echo_doc(hosts=[{"host_id": host_id, "total_slots": 1}]))
    assert run_scenario(config).metrics.requests_ok == 5


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


def pinned_metrics(requests_ok, keys, bits, errors):
    return {"requests_total": 15, "requests_ok": requests_ok,
            "key_exhausted_count": errors.get("key-exhausted", 0),
            "qkd_keys_consumed": keys, "qkd_bits_consumed": bits, "contexts_created": 3,
            "errors": errors, "latency": {"count": 15.0, "min": 0.0, "max": 0.0, "mean": 0.0}}


@pytest.mark.parametrize("variant, metrics, frames_scanned", [
    ("example", pinned_metrics(15, 4, 1024, {}), 42),
    ("fresh-key-per-request", pinned_metrics(15, 15, 3840, {}), 42),
    ("one-time-pad", pinned_metrics(4, 4, 8192, {"key-exhausted": 11}), 20),
], ids=list(EXAMPLE_VARIANTS))
def test_metrics_and_wiretap_docs_are_pinned(variant, metrics, frames_scanned):
    # how a transcript is read must not move what is read from it, live or stored
    result = run_scenario(ScenarioConfig.from_doc(example_doc(variant)))
    reparsed = Transcript.parse_ndjson(result.transcript_ndjson())
    assert result.metrics.to_doc() == metrics
    assert compute_metrics(reparsed).to_doc() == metrics
    assert result.wiretap.to_doc() == {"passed": True, "frames_scanned": frames_scanned,
                                       "findings": []}


def test_stored_latencies_pair_requests_and_replies_in_order():
    records = [Record(ts, "client", "gateway", "client", head, b"")
               for ts, head in [(0.0, b"REQ POST /a\n\n"), (1.0, b"REQ POST /b\n\n"),
                                (1.5, b"RSP 200 POST /a\n\n"), (4.0, b"RSP 200 POST /b\n\n")]]
    latency = compute_metrics(records).latency
    assert latency == {"count": 2.0, "min": 1.5, "max": 3.0, "mean": 2.25}


@pytest.mark.parametrize("head, replies", [
    (b"RSP 200 POST /a\n\n", 1), (b"RSP 200", 1), (b"RSP 200 POST\n\n", 1),
    (b"RSPQ 200 POST /a\n\n", 0), (b"RSP\t200 POST /a\n\n", 0), (b"REQ POST /a\n\n", 0),
    (b"", 0), (b"RSP\n\n", None), (b"RSP", None), (b"RSP 2OO POST /a\n\n", None),
])
def test_a_reply_is_a_frame_whose_first_word_is_rsp(head, replies):
    records = [Record(0.0, "gateway", "client", "client", head, b"")]
    if replies is None:
        with pytest.raises(MalformedError, match="record 0"):
            compute_metrics(records)
    else:
        assert compute_metrics(records).requests_total == replies


def test_a_malformed_key_container_names_its_record():
    records = [Record(0.0, "kme-client", "gateway", "qkd",
                      b"RSP 200 GET /api/v1/keys/sae-mec/enc_keys\n\n", b"{}")]
    with pytest.raises(MalformedError, match="record 0 \\(qkd\\): key container"):
        compute_metrics(records)


def ndjson_of(transcript: Transcript) -> bytes:
    records = transcript.records()
    return RunResult(config=ScenarioConfig.from_doc(echo_doc()), metrics=RunMetrics(),
                     records=records, wiretap=wiretap_assert(records, []),
                     pool_stats={}).transcript_ndjson()


def test_transcript_ndjson_bytes():
    clock = SimulatedClock()
    transcript = Transcript(clock)
    transcript.append("client", "gateway", "client", b"REQ POST /echo\n\n", b"hi")
    clock.advance(0.25)
    transcript.append("gateway", "client", "client", b"\x00\xff\n\n", b"")
    assert ndjson_of(transcript) == (
        b'{"ts":0.0,"from":"client","to":"gateway","channel":"client",'
        b'"payload_b64":"UkVRIFBPU1QgL2VjaG8KCmhp"}\n'
        b'{"ts":0.25,"from":"gateway","to":"client","channel":"client",'
        b'"payload_b64":"AP8KCg=="}\n'
    )


def joined_frame(first_line, headers, body):
    """A frame as first written, a list of lines joined: the oracle for its bytes."""
    head = [first_line] + [f"{k}: {v}" for k, v in sorted(headers.items())]
    return ("\n".join(head) + "\n\n").encode("utf-8") + body


def test_frame_sorts_its_headers():
    assert frame_head("REQ GET /x", {"x-b": "2", "a": "1"}) == b"REQ GET /x\na: 1\nx-b: 2\n\n"


TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)
# what a transport lets into a head: no CR or LF
HEAD_TEXT = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\r\n"),
                    max_size=12)
BODIES = st.binary(max_size=64) | st.sampled_from([b"", b"\n\n", b"\n\nRSP 200\n\n\n", b"\xff\xfe\x80"])


@given(TEXT, st.dictionaries(TEXT, TEXT, max_size=4), BODIES)
def test_frame_equals_a_joined_head(first_line, headers, body):
    record = Record(0.0, "src", "dst", "data", frame_head(first_line, headers), body)
    assert record.payload == joined_frame(first_line, headers, body)
    assert record.body is body


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(
    st.floats(min_value=0, max_value=1e6, allow_nan=False, allow_infinity=False),
    st.sampled_from(["client", "data", "qkd", "mx2"]),
    HEAD_TEXT, st.dictionaries(HEAD_TEXT, HEAD_TEXT, max_size=3), BODIES,
), max_size=12))
def test_transcript_ndjson_round_trip(frames):
    clock = SimulatedClock()
    transcript = Transcript(clock)
    for step, channel, first_line, headers, body in frames:
        clock.advance(step)
        transcript.append("src", "dst", channel, frame_head(first_line, headers), body)
    original = transcript.records()
    parsed = Transcript.parse_ndjson(ndjson_of(transcript))
    assert parsed == original
    # the first blank line ends the head, whatever blank lines the body holds
    assert [(r.head, r.body) for r in parsed] == [(r.head, r.body) for r in original]
    assert [r.payload for r in parsed] == [joined_frame(first_line, headers, body)
                                           for _, _, first_line, headers, body in frames]


def test_an_exchange_records_the_body_objects_it_carried():
    sent = b"request body \n\n with a blank line"
    replies = []

    def echo(request):
        replies.append(WireResponse(200, body=request.body + b"!"))
        return replies[-1]

    router = Router()
    router.add("POST", "/n", echo)
    transport = InprocTransport(clock=SimulatedClock())
    transport.register("peer", router)
    transport.request(src="t", channel="data", method="POST", url="http://peer/n", body=sent)
    request, response = transport.transcript.records()
    assert request.body is sent
    assert response.body is replies[0].body
    assert request.payload == b"REQ POST /n\n\n" + sent


def test_a_mutable_body_is_recorded_as_bytes():
    router = Router()
    router.add("POST", "/n", lambda request: WireResponse(200, body=request.body))
    transport = InprocTransport(clock=SimulatedClock())
    transport.register("peer", router)
    body = bytearray(b"before")
    transport.request(src="t", channel="data", method="POST", url="http://peer/n", body=body)
    body[:] = b"after!"
    assert [(type(r.body), r.body) for r in transport.transcript.records()] == [(bytes, b"before")] * 2


def test_reproducibility_same_seed():
    doc = echo_doc(workload=[{"path": "/echo", "body": "deterministic please",
                              "repeat": 4, "interval_sec": 0.25}])
    a = run_scenario(ScenarioConfig.from_doc(doc))
    b = run_scenario(ScenarioConfig.from_doc(doc))
    assert a.transcript_ndjson() == b.transcript_ndjson()
    assert a.metrics.to_doc() == b.metrics.to_doc()


@pytest.mark.parametrize("variant, digest", [
    ("example", "742120a94b5fb153060cf4d996e24b0c0d0f74c8eb38989e312ef1c39c2ab674"),
    ("fresh-key-per-request", "dd3872d217aba053bad56dfd99c20dd6c1c0c6e94c186a9b3df52a47d82d303c"),
    ("one-time-pad", "6fc32dbe563eef5d174723f997f209bf0b6dc35222f13add1d9fad219f7cca78"),
], ids=list(EXAMPLE_VARIANTS))
def test_transcript_bytes_are_pinned(variant, digest):
    # any change to a wire byte, a key or a key_ID changes the digest
    transcript = run_scenario(ScenarioConfig.from_doc(example_doc(variant))).transcript_ndjson()
    assert hashlib.sha256(transcript).hexdigest() == digest


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


LONG_NEEDLE = bytes(range(32, 127)) * 2  # 190 bytes: searched for behind its first 64


def data_frame(payload):
    """A data-channel record whose whole payload is its head."""
    return Record(0.0, "gateway", "edge-a", "data", payload, b"")


def test_wiretap_long_needle_whose_prefix_alone_occurs_is_no_finding():
    frames = [data_frame(b"head " + LONG_NEEDLE[:64] + b" tail"),
              data_frame(LONG_NEEDLE[:-1])]
    report = wiretap_assert(frames, [LONG_NEEDLE])
    assert report.passed and report.frames_scanned == 2


def test_wiretap_long_needle_split_across_two_frames_is_no_finding():
    frames = [data_frame(b"head " + LONG_NEEDLE[:100]), data_frame(LONG_NEEDLE[100:] + b" tail")]
    assert wiretap_assert(frames, [LONG_NEEDLE]).passed


def test_wiretap_finds_a_long_needle_whole_in_one_frame():
    frames = [data_frame(b"x"), data_frame(b"head " + LONG_NEEDLE + b" tail"),
              Record(0.0, "kme-client", "gateway", "qkd", LONG_NEEDLE, b"")]
    report = wiretap_assert(frames, [b"short", LONG_NEEDLE])
    assert [(f.record_index, f.channel) for f in report.findings] == [(1, "data")]


@pytest.mark.parametrize("in_head, in_body", [(3, 5), (20, 100), (70, 30)],
                         ids=["short", "long-prefix-across", "long-prefix-in-head"])
def test_wiretap_finds_a_needle_across_the_end_of_the_head(in_head, in_body):
    head = frame_head("REQ POST /n", {"x-a": "h" * 80})
    body = LONG_NEEDLE + b" tail"
    needle = head[-in_head:] + body[:in_body]
    frames = [Record(0.0, "gateway", "edge-a", "data", head, b"other body"),
              Record(0.0, "gateway", "edge-a", "data", head, body)]
    report = wiretap_assert(frames, [needle])
    assert [f.record_index for f in report.findings] == [1]


@pytest.mark.parametrize("needle", [LONG_NEEDLE, b"secret-0123456789"], ids=["long", "short"])
def test_wiretap_finds_a_needle_inside_a_header_value(needle):
    head = frame_head("RSP 200 POST /n", {"x-a": "<" + needle.decode("ascii") + ">"})
    frames = [Record(0.0, "edge-a", "gateway", "data", head, b"clean body")]
    report = wiretap_assert(frames, [needle])
    assert [f.record_index for f in report.findings] == [0]


def test_explicit_forbidden_plaintexts_config():
    marker = "EXPLICIT-MARKER-26ab44c0 secret"
    doc = echo_doc(workload=[{"path": "/echo", "body": marker, "repeat": 1}],
                   assertions={"forbidden_plaintexts": [marker],
                               "auto_forbid_bodies": False})
    doc["bindings"][0]["plaintext"] = True
    result = run_scenario(ScenarioConfig.from_doc(doc))
    assert not result.wiretap.passed


# frame bytes over a small alphabet, so that needles drawn apart still occur
WIRE_BYTES = st.lists(st.sampled_from(b"ab\n"), max_size=90).map(bytes)
LARGE_BODY = b"ab" * 33_000  # longer than a default chunk


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["data", "mx2", "client", "qkd"]), WIRE_BYTES,
                          WIRE_BYTES | st.just(LARGE_BODY)), max_size=6), st.data())
def test_wiretap_equals_a_per_frame_search(frames, data):
    records = [Record(0.0, "src", "dst", channel, head, body) for channel, head, body in frames]
    stream = b"".join(head + body for _, head, body in frames)
    # needles around each head/body seam and each frame end: the ends of
    # chunks too, when a chunk is 1 or 7 bytes or follows LARGE_BODY
    marks, offset = [0], 0
    for _, head, body in frames:
        marks += [offset + len(head), offset + len(head) + len(body)]
        offset = marks[-1]
    around = st.tuples(st.sampled_from(marks), st.integers(-80, 80), st.integers(1, 150)).map(
        lambda t: stream[max(0, t[0] + t[1]):max(0, t[0] + t[1]) + t[2]])
    needles = data.draw(st.lists(around | WIRE_BYTES | st.just(b""), max_size=5))
    if needles:
        needles += data.draw(st.lists(st.sampled_from(needles), max_size=2))  # duplicates
    expected = [(index, r.channel, r.src, r.dst, repr(needle[:24]))
                for index, r in enumerate(records) if r.channel in INTER_DOMAIN_CHANNELS
                for needle in needles if needle and needle in r.head + r.body]
    scanned = sum(r.channel in INTER_DOMAIN_CHANNELS for r in records)
    for chunk_bytes in (1, 7, harness._WIRETAP_CHUNK):
        with mock.patch.object(harness, "_WIRETAP_CHUNK", chunk_bytes):
            report = wiretap_assert(records, needles)
        assert [(f.record_index, f.channel, f.src, f.dst, f.needle_preview)
                for f in report.findings] == expected
        assert report.frames_scanned == scanned
        assert report.passed == (not expected)
