"""The benchmark drives the program through names it reads or wraps by
attribute (see perfbench/spans.py and perfbench/run.py). A short smoke run
of every workload fails here when one of those names goes away."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def test_benchmark_smoke_run_is_correct():
    # --trace 0 (the default) writes no files
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all", "--smoke"],
        cwd=REPO, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert summary["correct"] is True
    assert summary["failed"] == 0
