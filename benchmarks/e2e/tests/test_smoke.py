"""Smoke test of the benchmark command: every workload, untraced and
traced, with a 2-second window (each still makes its minimum number of
rounds).

    python -m pytest benchmarks/e2e/tests/test_smoke.py

Checks that the emitted metric names and units are exactly those of
``BENCHMARK.json``, that every reference check of every workload ran and
found no wrong output, and that the ``--trace`` spans are well formed:
each child span lies inside its parent and no span has negative self
time.  Takes a few minutes; it is not part of the tier-1 suite.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[3]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

#: The reference checks each workload must report.
CHECKS = {
    "sweep": {"golden", "labels", "rounds"},
    "certified": {"labels", "rounds", "trusted"},
    "ci_edits": {"plan", "rounds", "final_manifest", "labels"},
}


def _run(workload: str, *extra: str) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", workload,
         "--seed", "0", "--seconds", "2", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    summary = re.search(r"wrong_outputs=(\d+) \((.*)\)", lines[0])
    checks = dict(item.split("=") for item in summary.group(2).split())
    return json.loads(lines[-1]), {k: int(v) for k, v in checks.items()}


def _expected(section: str) -> dict:
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(CHECKS)


@pytest.mark.parametrize("workload", list(CHECKS))
def test_untraced_run(workload):
    result, checks = _run(workload)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(checks) == CHECKS[workload] and not any(checks.values())
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == _expected("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", list(CHECKS))
def test_traced_run(workload, tmp_path):
    out = tmp_path / "spans.jsonl"
    result, checks = _run(workload, "--trace", "--out", str(out))
    assert result["correct"] and not any(checks.values())
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == _expected("per_layer")
    assert result["metrics"]["trace.overhead_ratio"]["value"] > 0

    spans = {}
    for line in out.read_text().splitlines():
        span = json.loads(line)
        assert span["workload"] == workload
        spans[span["id"]] = span
    assert spans
    covered = dict.fromkeys(spans, 0.0)
    for span in spans.values():
        assert span["start"] <= span["end"]
        if span["parent"] is not None:
            parent = spans[span["parent"]]
            assert parent["start"] <= span["start"]
            assert span["end"] <= parent["end"]
            covered[span["parent"]] += span["end"] - span["start"]
    for sid, span in spans.items():
        assert span["end"] - span["start"] - covered[sid] >= -1e-9
