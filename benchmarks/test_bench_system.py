"""Benchmark: batched vs per-sample workload-simulation throughput.

The acceptance bar for the batched simulation core: at seq_len 512 with
a 64-sample workload, one batched ``simulate_workload`` pass must
deliver at least 5x the throughput of the historical per-sample path
(sample-by-sample simulation with the query-by-query ``slow_exact`` LRU
walk).  The measured ratio is appended to ``benchmarks/BENCH_system.json``
so the performance trajectory is recorded run over run.

``simulate_workload`` memoizes a workload's packed rows and row
statistics, so every timed call runs on a fresh copy of the workload:
the timings include packing and the statistics, as a first call does.
"""

import json
import os
import time

import pytest

from repro.core.configs import S_SPRINT
from repro.core.system import ExecutionMode, SprintSystem
from repro.workloads.generator import Workload, generate_workload

SEQ_LEN = 512
NUM_SAMPLES = 64
#: The per-sample reference is timed on a subset (same mask
#: distribution) because it is the slow side by construction.
REFERENCE_SAMPLES = 8
BENCH_JSON = os.path.join(os.path.dirname(__file__), "BENCH_system.json")
#: The strict >=5x wall-clock gate (and the BENCH_system.json append)
#: only arm under the dedicated benchmark job: tier-1 collects this
#: file too, and a loaded shared runner must not fail correctness CI
#: on a timing fluctuation or dirty the committed trajectory file.
GATE_ARMED = bool(os.environ.get("SPRINT_BENCH_GATE"))
#: Outside the gated job, still catch catastrophic regressions.
SANITY_FLOOR = 2.0


@pytest.fixture(scope="module")
def workload():
    return generate_workload(
        seq_len=SEQ_LEN,
        pruning_rate=0.746,
        padding_ratio=0.2,
        num_samples=NUM_SAMPLES,
        seed=3,
    )


def fresh_copy(workload):
    """The same samples in a new workload, with no memo to read."""
    return Workload(samples=list(workload.samples), seq_len=workload.seq_len)


def test_bench_batched_workload(benchmark, workload):
    """Wall-clock of one batched SPRINT pass over the full workload."""
    system = SprintSystem(S_SPRINT)
    report = benchmark(
        lambda: system.simulate_workload(fresh_copy(workload), ExecutionMode.SPRINT)
    )
    assert report.samples == NUM_SAMPLES


def test_bench_batched_vs_per_sample_throughput(workload):
    """Batched >= 5x per-sample throughput; record the trajectory."""
    batched_system = SprintSystem(S_SPRINT)
    per_sample_system = SprintSystem(S_SPRINT, sld_slow_exact=True)
    samples = list(workload)

    # Warm both paths (mask generation, allocator, import costs).
    batched_system.simulate_workload(fresh_copy(workload), ExecutionMode.SPRINT)
    per_sample_system.simulate_sample(samples[0], ExecutionMode.SPRINT)

    timed = fresh_copy(workload)
    start = time.perf_counter()
    batched = batched_system.simulate_workload(timed, ExecutionMode.SPRINT)
    batched_s = time.perf_counter() - start

    start = time.perf_counter()
    singles = [
        per_sample_system.simulate_sample(s, ExecutionMode.SPRINT)
        for s in samples[:REFERENCE_SAMPLES]
    ]
    per_sample_s = time.perf_counter() - start

    # Identical results are a precondition for a meaningful ratio.
    assert batched.cycles == pytest.approx(
        sum(h.cycles for h in singles) / len(singles), rel=0.25
    )

    batched_throughput = NUM_SAMPLES / batched_s
    per_sample_throughput = REFERENCE_SAMPLES / per_sample_s
    speedup = batched_throughput / per_sample_throughput

    if GATE_ARMED:
        entry = {
            "benchmark": "simulate_workload",
            "config": S_SPRINT.name,
            "mode": ExecutionMode.SPRINT.value,
            "seq_len": SEQ_LEN,
            "num_samples": NUM_SAMPLES,
            "batched_s": round(batched_s, 6),
            "per_sample_s_per_sample": round(
                per_sample_s / REFERENCE_SAMPLES, 6
            ),
            "batched_samples_per_s": round(batched_throughput, 2),
            "per_sample_samples_per_s": round(per_sample_throughput, 2),
            "speedup": round(speedup, 2),
            "recorded_unix": int(time.time()),
        }
        history = []
        if os.path.exists(BENCH_JSON):
            with open(BENCH_JSON) as f:
                history = json.load(f)
        history.append(entry)
        with open(BENCH_JSON, "w") as f:
            json.dump(history, f, indent=1)

    floor = 5.0 if GATE_ARMED else SANITY_FLOOR
    assert speedup >= floor, (
        f"batched throughput only {speedup:.1f}x the per-sample path "
        f"({batched_throughput:.1f} vs {per_sample_throughput:.1f} "
        f"samples/s; gate floor {floor}x)"
    )
