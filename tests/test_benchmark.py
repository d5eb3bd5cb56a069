"""The benchmark drives the program through names it reads or wraps by
attribute (see perfbench/spans.py and perfbench/run.py). A short smoke run
of every workload, and installing the tracer, fail here when one of those
names goes away."""

from __future__ import annotations

import json
import os
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


def test_tracer_wraps_names_that_exist():
    # the traced run (--trace 1) wraps entry points by attribute name
    code = ("import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]; "
            "import spans; spans.install(spans.Tracer())")
    proc = subprocess.run(
        [sys.executable, "-c", code, str(REPO / "src"), str(REPO / "perfbench")],
        cwd=REPO, capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert proc.returncode == 0, proc.stderr
