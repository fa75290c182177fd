"""Benchmark: the sharded serving sweep vs the serial walk.

The acceptance bar for serving on the WorkUnit protocol: a heavy
(pattern, mode, load) sweep at ``--jobs 4`` must finish at least 1.8x
faster than the same sweep at ``--jobs 1``, measured end to end
through :class:`~repro.runtime.pool.ExperimentPool` in a fresh
interpreter per run (so no warm cost-model caches flatter either
side).  The sweep is the registry's ``serving`` experiment with its
request count raised until the simulation dominates start-up — the
regime the ROADMAP's "multi-minute full-load sweeps" item is about.
The count is sized for the columnar fast engine (the sweep's default
path since it landed): at the old 5k-request streams the engine
finishes points faster than workers warm up, so the sharding benchmark
now drives 150k-request streams per point.
The measured ratio is appended to
``benchmarks/BENCH_serving_shard.json`` so the trajectory is recorded
run over run.

The whole test sits behind ``SPRINT_BENCH_GATE``: it launches two
multi-second subprocess runs and asserts on wall-clock, which has no
place in the correctness matrix (tier-1 collects this file too).
Jobs-count *equivalence* is covered untimed by
``tests/test_runtime.py`` and by the CI ``full-experiments`` serving
diff.  The wall-clock floor additionally needs real cores, so it only
arms on ``os.cpu_count() >= 4`` — a 1-CPU container timeshares the
workers, and the honest expectation there is ~1x (recorded, not
gated).
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_JSON = REPO_ROOT / "benchmarks" / "BENCH_serving_shard.json"
GATE_ARMED = bool(os.environ.get("SPRINT_BENCH_GATE"))
JOBS = 4
GATE_FLOOR = 1.8
#: With fewer than 4 CPUs the workers timeshare; record the ratio but
#: only reject a pathological orchestration-overhead regression.
SANITY_FLOOR = 0.3
CPUS = os.cpu_count() or 1
NUM_REQUESTS = 150_000

#: Fresh-interpreter driver: the registry's serving experiment with the
#: request count raised so per-point event loops dominate start-up.
_DRIVER = """
import sys
from repro.experiments import registry, serving
from repro.runtime import ExperimentPool

jobs, num_requests, out_path = int(sys.argv[1]), int(sys.argv[2]), sys.argv[3]
registry.EXPERIMENTS["serving"] = ({"requests_per_point": num_requests}, serving)
outcome = ExperimentPool(jobs=jobs).run(["serving"], fast=True)["serving"]
assert outcome.ok, outcome.error
with open(out_path, "w") as fh:
    fh.write(outcome.artifact.to_json())
"""


def _run_sweep(jobs: int, out_path: Path) -> float:
    """Wall-clock seconds of one fresh-interpreter heavy serving sweep."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    cmd = [sys.executable, "-c", _DRIVER, str(jobs), str(NUM_REQUESTS), str(out_path)]
    start = time.perf_counter()
    subprocess.run(cmd, check=True, env=env, cwd=REPO_ROOT)
    return time.perf_counter() - start


@pytest.mark.skipif(not GATE_ARMED, reason="wall-clock gate; set SPRINT_BENCH_GATE=1")
def test_bench_sharded_vs_serial_serving_sweep(tmp_path):
    """--jobs 4 >= 1.8x --jobs 1 on >=4 CPUs; artifacts identical."""
    serial_s = _run_sweep(1, tmp_path / "serial.json")
    parallel_s = _run_sweep(JOBS, tmp_path / "parallel.json")

    # Identical artifacts are a precondition for a meaningful ratio.
    serial_bytes = (tmp_path / "serial.json").read_bytes()
    assert serial_bytes == (tmp_path / "parallel.json").read_bytes()
    assert json.loads(serial_bytes)["rows"]

    speedup = serial_s / parallel_s

    entry = {
        "benchmark": "serving_sweep_sharded",
        "jobs": JOBS,
        "cpus": CPUS,
        "num_requests": NUM_REQUESTS,
        "serial_s": round(serial_s, 3),
        "parallel_s": round(parallel_s, 3),
        "speedup": round(speedup, 2),
        "recorded_unix": int(time.time()),
    }
    history = []
    if BENCH_JSON.exists():
        history = json.loads(BENCH_JSON.read_text())
    history.append(entry)
    BENCH_JSON.write_text(json.dumps(history, indent=1) + "\n")

    floor = GATE_FLOOR if CPUS >= JOBS else SANITY_FLOOR
    assert speedup >= floor, (
        f"--jobs {JOBS} only {speedup:.2f}x over --jobs 1 "
        f"({parallel_s:.1f}s vs {serial_s:.1f}s on {CPUS} CPUs; "
        f"gate floor {floor}x)"
    )
