"""Benchmark: the fault layer must not tax fault-free serving.

The acceptance bar for fault injection: on a 200k-request Poisson
stream, ``simulate_table`` called with ``faults=None`` (the default
every existing caller hits) must stay within 10% of the direct
fast-path call -- threading the fault machinery through the engines
cannot slow the no-fault path.  The same alternating loop times fault
mode on an *empty* schedule, which runs the chunked prefill core's
outage-aware dispatch, slice by slice (bitwise-equal results), and
holds it within 3x of the direct path: a prefill table that fell back
to the decode engine's event core would read ~20x.  Both ratios are
appended to ``benchmarks/BENCH_faults.json``; the empty-schedule
seconds keep their historical key, ``empty_schedule_fault_core_s``.

The strict gates (and the JSON append) only arm under
``SPRINT_BENCH_GATE`` -- tier-1 collects this file too, and a loaded
shared runner must not fail correctness CI on a timing fluctuation.
Ungated runs use a relaxed sanity ceiling on the ``faults=None`` path,
further relaxed on starved (<2 CPU) containers where the host
timeshares everything.
"""

import json
import os
import time

import pytest

from repro.core.configs import S_SPRINT
from repro.core.system import ExecutionMode
from repro.serving import (
    FaultSchedule,
    PoissonProcess,
    ServiceCostModel,
    generate_request_table,
    simulate_faulty_table,
    simulate_table,
)

NUM_REQUESTS = 200_000
RATE_RPS = 2000.0
REPEATS = 3
BENCH_JSON = os.path.join(os.path.dirname(__file__), "BENCH_faults.json")
GATE_ARMED = bool(os.environ.get("SPRINT_BENCH_GATE"))
#: Gated ceiling: faults=None path <= 1.10x the direct fast path.
GATE_CEILING = 1.10
#: Gated ceiling: fault mode on an empty schedule <= 3x the direct path.
EMPTY_SCHEDULE_CEILING = 3.0
CPUS = os.cpu_count() or 1
#: Outside the gated job (or on a starved timeshared container), still
#: catch a pathological slowdown in the no-fault path.
SANITY_CEILING = 1.5 if CPUS >= 2 else 2.0


@pytest.fixture(scope="module")
def stream():
    table = generate_request_table(
        PoissonProcess(RATE_RPS), "BERT-B", count=NUM_REQUESTS, seed=0
    )
    cost = ServiceCostModel(S_SPRINT, ExecutionMode.SPRINT)
    cost.prime(table.specs[0], table.valid_len)
    return table, cost


def test_bench_no_fault_path(benchmark, stream):
    """Wall-clock of one faults=None run over the 200k stream."""
    table, cost = stream
    result = benchmark(lambda: simulate_table(table, cost, faults=None))
    assert len(result.finish_s) == NUM_REQUESTS


def test_bench_no_fault_overhead(stream):
    """faults=None within 10% of the direct path; record the ratio."""
    table, cost = stream

    # Warm both paths; results must be identical objects semantically.
    direct = simulate_table(table, cost)
    routed = simulate_table(table, cost, faults=None)
    assert routed.finish_s.tobytes() == direct.finish_s.tobytes()

    empty_schedule = FaultSchedule.none(1)
    direct_s = routed_s = empty_s = float("inf")
    for _ in range(REPEATS):
        # Alternate so drifting machine load penalises every path alike.
        start = time.perf_counter()
        simulate_table(table, cost)
        direct_s = min(direct_s, time.perf_counter() - start)
        start = time.perf_counter()
        simulate_table(table, cost, faults=None)
        routed_s = min(routed_s, time.perf_counter() - start)
        start = time.perf_counter()
        empty = simulate_faulty_table(table, cost, empty_schedule)
        empty_s = min(empty_s, time.perf_counter() - start)
    overhead = routed_s / direct_s
    empty_ratio = empty_s / direct_s
    assert empty.completed == NUM_REQUESTS

    if GATE_ARMED:
        entry = {
            "benchmark": "faults_no_fault_path_overhead",
            "config": S_SPRINT.name,
            "mode": ExecutionMode.SPRINT.value,
            "pattern": "poisson",
            "num_requests": NUM_REQUESTS,
            "direct_s": round(direct_s, 4),
            "faults_none_s": round(routed_s, 4),
            "overhead": round(overhead, 3),
            "empty_schedule_fault_core_s": round(empty_s, 4),
            "empty_schedule_ratio": round(empty_ratio, 3),
            "recorded_unix": int(time.time()),
        }
        history = []
        if os.path.exists(BENCH_JSON):
            with open(BENCH_JSON) as f:
                history = json.load(f)
        history.append(entry)
        with open(BENCH_JSON, "w") as f:
            json.dump(history, f, indent=1)
            f.write("\n")

    ceiling = GATE_CEILING if GATE_ARMED and CPUS >= 2 else SANITY_CEILING
    assert overhead <= ceiling, (
        f"faults=None serving path is {overhead:.2f}x the direct fast "
        f"path ({routed_s:.3f}s vs {direct_s:.3f}s; ceiling {ceiling}x)"
    )
    if GATE_ARMED:
        assert empty_ratio <= EMPTY_SCHEDULE_CEILING, (
            f"fault mode on an empty schedule is {empty_ratio:.2f}x the "
            f"direct path ({empty_s:.3f}s vs {direct_s:.3f}s; ceiling "
            f"{EMPTY_SCHEDULE_CEILING}x)"
        )
