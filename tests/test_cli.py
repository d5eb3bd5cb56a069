from __future__ import annotations

import json

import pytest

from edgeqkd.cli import main

SEED_HEX = "ee" * 32


def write_config(tmp_path, name="scenario.json", **overrides):
    doc = {
        "qkd": {"seed": SEED_HEX, "rate_bits_per_sec": 1000, "capacity_bits": 8192},
        "catalog": [{"app_name": "fn-echo", "provider": "demo", "version": "1.0",
                     "required_slots": 1}],
        "hosts": [{"host_id": "edge-a", "total_slots": 2}],
        "bindings": [{"path_prefix": "/echo", "app_name": "fn-echo",
                      "provider": "demo", "version": "1.0"}],
        "policy": {"max_uses": 2, "max_age_sec": 3600},
        "workload": [{"path": "/echo", "body": "cli scenario body 0123456789",
                      "repeat": 4}],
        "clock": "simulated",
    }
    doc.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def test_run_writes_metrics_and_transcript(tmp_path, capsys):
    config = write_config(tmp_path)
    metrics_out = tmp_path / "metrics.json"
    transcript_out = tmp_path / "transcript.ndjson"
    code = main(["run", str(config), "--metrics-out", str(metrics_out),
                 "--transcript-out", str(transcript_out)])
    assert code == 0
    doc = json.loads(metrics_out.read_text())
    assert doc["metrics"]["requests_ok"] == 4
    assert doc["metrics"]["qkd_keys_consumed"] == 2  # ceil(4/2)
    assert doc["wiretap"]["passed"] is True
    assert doc["pool"]["dispensed_bits"] == doc["metrics"]["qkd_bits_consumed"]
    lines = transcript_out.read_bytes().splitlines()
    assert lines and all(json.loads(line) for line in lines)


def test_run_prints_metrics_to_stdout(tmp_path, capsys):
    config = write_config(tmp_path)
    assert main(["run", str(config)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["metrics"]["requests_total"] == 4


def test_run_negative_control_exits_nonzero(tmp_path, capsys):
    config = write_config(tmp_path, bindings=[{
        "path_prefix": "/echo", "app_name": "fn-echo", "provider": "demo",
        "version": "1.0", "plaintext": True,
    }])
    assert main(["run", str(config)]) == 1
    assert "wiretap" in capsys.readouterr().err


def test_validate_ok(tmp_path, capsys):
    config = write_config(tmp_path)
    assert main(["validate", str(config)]) == 0
    assert "ok" in capsys.readouterr().out


def test_validate_rejects_bad_config(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"qkd": {"rate_bits_per_sec": 1}}))
    assert main(["validate", str(path)]) == 2
    assert "config-invalid" in capsys.readouterr().err


def test_validate_missing_file(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "nope.json")]) == 2


def test_report_recomputes_metrics(tmp_path, capsys):
    config = write_config(tmp_path)
    transcript_out = tmp_path / "t.ndjson"
    main(["run", str(config), "--metrics-out", str(tmp_path / "m.json"),
          "--transcript-out", str(transcript_out)])
    assert main(["report", str(transcript_out)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["requests_ok"] == 4
    assert doc["qkd_keys_consumed"] == 2


@pytest.mark.parametrize("bad_line", [
    b'{"ts":0.0,"from":"client","to":"gateway","chan',
    b'{"ts":0.0,"from":"client","to":"gateway","channel":"client"}',
    b'{"ts":0.0,"from":"client","to":"gateway","channel":"client","payload_b64":"*not base64*"}',
], ids=["truncated-json", "missing-key", "bad-base64"])
def test_report_rejects_malformed_transcript_line(tmp_path, capsys, bad_line):
    config = write_config(tmp_path)
    transcript_out = tmp_path / "t.ndjson"
    main(["run", str(config), "--metrics-out", str(tmp_path / "m.json"),
          "--transcript-out", str(transcript_out)])
    good = transcript_out.read_bytes().splitlines(keepends=True)
    transcript_out.write_bytes(b"".join(good[:2]) + bad_line + b"\n" + b"".join(good[2:]))
    assert main(["report", str(transcript_out)]) == 2
    err = capsys.readouterr().err
    assert "error [malformed]" in err and "line 3" in err


def test_seed_flag_overrides_config(tmp_path):
    config = write_config(tmp_path)
    out_a = tmp_path / "a.ndjson"
    out_b = tmp_path / "b.ndjson"
    out_c = tmp_path / "c.ndjson"
    main(["run", str(config), "--transcript-out", str(out_a),
          "--metrics-out", str(tmp_path / "ma.json")])
    main(["run", str(config), "--transcript-out", str(out_b),
          "--metrics-out", str(tmp_path / "mb.json"), "--seed", "ab" * 32])
    main(["run", str(config), "--transcript-out", str(out_c),
          "--metrics-out", str(tmp_path / "mc.json"), "--seed", "ab" * 32])
    assert out_a.read_bytes() != out_b.read_bytes()  # override took effect
    assert out_b.read_bytes() == out_c.read_bytes()  # and reproduces


def test_seed_flag_rejects_non_hex(tmp_path, capsys):
    config = write_config(tmp_path)
    assert main(["run", str(config), "--seed", "zz"]) == 2
