"""Smoke tests for the benchmark: every workload for a few requests, no timing gates.

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = HERE / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def _load_runner():
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module", params=[0, 1], ids=["end_to_end", "per_layer"])
def smoke(request):
    proc = _run("--workload", "all", "--smoke", "--trace", str(request.param))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return request.param, json.loads(proc.stdout.splitlines()[-1])


def test_every_workload_passes_its_output_checks(smoke):
    _, doc = smoke
    assert doc["correct"] and doc["failed"] == 0
    assert set(doc["workloads"]) == {w["name"] for w in SPEC["workloads"]}
    for result in doc["workloads"].values():
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1


def test_every_declared_metric_is_reported_with_its_unit(smoke):
    trace, doc = smoke
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    for result in doc["workloads"].values():
        assert {name: m["unit"] for name, m in result["metrics"].items()} == declared


def test_counts_follow_from_the_code(smoke):
    trace, doc = smoke

    def value(workload: str, metric: str) -> float:
        return doc["workloads"][workload]["metrics"][metric]["value"]

    if trace:
        assert value("rekey-small", "transport.exchanges_per_req") == 4
        assert value("rekey-small", "kme.keys_per_req") == 1
        assert value("rekey-small", "host.key_fetch_ratio") == 1
        assert value("http-small", "httpd.connects_per_req") == 2
        for inproc in ("reuse-small", "rekey-small", "bulk-64k"):
            assert value(inproc, "httpd.connects_per_req") == 0
    else:
        assert value("rekey-small", "qkd_bits_per_req") == 256
        for workload in doc["workloads"]:
            assert value(workload, "success_ratio") == 1


def test_wrong_replies_count_as_failures(monkeypatch):
    runner = _load_runner()
    harness = runner.load_program()
    from edgeqkd import host

    monkeypatch.setitem(host.BUILTIN_HANDLERS, "fn-upper", lambda body: body)
    inputs = runner.make_inputs(runner.WORKLOADS["reuse-small"], 1, 6)
    config = harness.ScenarioConfig.from_doc(inputs.doc)
    result = runner.run_stack(harness, config, inputs, inputs.plan, block=3)
    assert result.failed == 3  # the /upper warm-up and both /upper requests of the plan
    assert all(result.checks.values())


def test_times_are_scaled_block_by_block_by_the_probes_next_to_them():
    runner = _load_runner()
    harness = runner.load_program()
    inputs = runner.make_inputs(runner.WORKLOADS["reuse-small"], 1, 6)
    config = harness.ScenarioConfig.from_doc(inputs.doc)
    result = runner.run_stack(harness, config, inputs, inputs.plan, block=3)
    assert len(result.latencies) == len(result.raw_latencies) == 6
    assert len(result.probes) == 2 + 2 + 2  # set-up, two blocks, verification
    factors = [scaled / raw for scaled, raw in zip(result.latencies, result.raw_latencies)]
    assert factors[:3] == pytest.approx([factors[0]] * 3)
    assert factors[3:] == pytest.approx([factors[3]] * 3)
    block_probes = result.probes[2:4]
    assert factors[0] == pytest.approx(runner.PROBE_REF_NS / (sum(block_probes) / 2))


def test_plaintext_on_an_inter_domain_channel_fails_the_wiretap():
    runner = _load_runner()
    harness = runner.load_program()
    inputs = runner.make_inputs(runner.WORKLOADS["reuse-small"], 1, 6)
    for binding in inputs.doc["bindings"]:
        binding["plaintext"] = True
    config = harness.ScenarioConfig.from_doc(inputs.doc)
    result = runner.run_stack(harness, config, inputs, inputs.plan, block=3)
    assert result.failed == 0
    assert not result.checks["wiretap"]


def test_runs_fail_without_the_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("--workload", "reuse-small", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
