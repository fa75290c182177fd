"""Smoke test of the benchmark harness: ``bench/run.py --smoke``.

Runs each workload at smoke size (2 models, 2k requests, one process,
one pass) with tracing on, and checks that what the harness emits is
what ``BENCHMARK.json`` declares and that no operation failed.  It
makes no timing assertions.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def units(entries):
    return {e["name"]: e["unit"] for e in entries}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_emits_declared_metrics(tmp_path, workload):
    out = tmp_path / "records.jsonl"
    proc = subprocess.run(
        [
            sys.executable,
            str(ROOT / "bench" / "run.py"),
            "--workload", workload,
            "--smoke",
            "--trace", "1",
            "--trace-dir", str(tmp_path / "trace"),
            "--out", str(out),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    # --trace 1 reports exactly the per-layer metrics.
    assert {k: v["unit"] for k, v in last["metrics"].items()} == units(SPEC["per_layer"])

    (record,) = [json.loads(line) for line in out.read_text().splitlines()]
    assert record["workload"] == workload
    assert record["failure_rate"] == 0
    assert {k: v["unit"] for k, v in record["metrics"].items()} == units(
        SPEC["end_to_end"]
    )
    assert all(ok for _, ok in record["checks"])
    layers = json.loads((tmp_path / "trace" / "layers.json").read_text())
    assert set(layers[workload]["layers"]) == {
        "harness", "inputs", "cost_model", "engine", "report"
    }
    trace = json.loads((tmp_path / "trace" / f"{workload}.trace.json").read_text())
    assert trace["traceEvents"]
