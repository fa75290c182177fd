"""Benchmark: out-of-core chunked serving and serial batch formation.

Three acceptance bars for the 10^8-request serving path, each appended
to ``benchmarks/BENCH_parallel.json`` so the trajectory is recorded
run over run (every entry carries ``cpu_count`` and, when a bar cannot
arm on the runner, the skip reason):

* **throughput** -- driving one pre-generated 200k-request stream
  through :func:`~repro.serving.engine.simulate_stream` in chunks must
  sustain at least 0.9x the whole-table :func:`simulate_table`
  request throughput on a single core.  Both drive the same chunked
  prefill core over the same ordered rows, which neither driver sorts
  or copies, so this bounds the stream driver's per-chunk validation
  and hand-off against the table driver's scatter into its result's
  outcome columns.  The fully out-of-core end-to-end time (chunked
  generation included) is recorded informationally.
* **memory** -- a 10^7-request run must fit under a 256 MB peak-RSS
  budget chunked, while the whole-table run demonstrably exceeds it
  (measured 744 MB, nearly all of it its input table and its result's
  outcome columns): each side runs in a fresh subprocess reporting its
  own high-water mark (``VmHWM``).  Both sides simulate through the
  same chunked prefill core; the whole-table side feeds it slices of
  a whole generated table, whose request columns its result shares,
  and keeps every request's outcome.
* **formation** -- a serial :func:`simulate_table` over a 4-queue mix
  must finish within 0.364 s: the time the phase-1 thread pool it
  replaced recorded at ``threads=4`` on the 4-core lane, over the same
  stream.  An absolute ceiling needs a known runner, so it only arms
  on ``os.cpu_count() >= 4``; smaller runners record the skip reason
  instead.

The strict gates (and the JSON appends) only arm under
``SPRINT_BENCH_GATE`` -- tier-1 collects this file too, and a loaded
shared runner must not fail correctness CI on a timing fluctuation.
Chunked-vs-whole *equivalence* is covered untimed (and exhaustively)
by ``tests/test_serving_stream.py``.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.core.configs import S_SPRINT
from repro.core.system import ExecutionMode
from repro.serving import (
    PoissonProcess,
    RequestStream,
    generate_request_table,
    shared_cost_model,
    simulate_stream,
    simulate_table,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_JSON = REPO_ROOT / "benchmarks" / "BENCH_parallel.json"
GATE_ARMED = bool(os.environ.get("SPRINT_BENCH_GATE"))
CPUS = os.cpu_count() or 1

NUM_REQUESTS = 200_000
RATE_RPS = 2000.0
CHUNK_SIZE = 65_536

MEMORY_REQUESTS = 10_000_000
#: Peak-RSS budget (MB) for the 10^7-request run: the chunked path
#: holds ~55 MB at any stream length; the whole-table run peaks around
#: 744 MB (its 4 input columns, which its result shares, and its 5
#: outcome columns, 72 bytes x 10^7, plus one slice of the chunked
#: core's working set).
MEMORY_BUDGET_MB = 256

FORMATION_CPUS = 4
#: Seconds: the ``threads=4`` phase-1 time recorded in
#: ``BENCH_parallel.json`` on the 4-core lane before the pool was removed.
FORMATION_CEILING_S = 0.364
FORMATION_MIX = {"BERT-B": 2.0, "BERT-L": 1.0, "ViT-B": 1.0, "ALBERT-XL": 0.5}
FORMATION_PASSES = 3

CHUNKED_GATE_FLOOR = 0.9
#: Outside the gate (or timeshared), still catch a pathological
#: frontier-bookkeeping regression.
CHUNKED_SANITY_FLOOR = 0.4


def _append(entry: dict) -> None:
    entry = {**entry, "cpu_count": CPUS, "recorded_unix": int(time.time())}
    history = []
    if BENCH_JSON.exists():
        history = json.loads(BENCH_JSON.read_text())
    history.append(entry)
    BENCH_JSON.write_text(json.dumps(history, indent=1) + "\n")


#: Fresh-subprocess probes: each side of the memory bar measures its
#: own peak RSS with nothing else resident; this tail prints it (KB).
#: ``VmHWM`` is the probe's own high-water mark.  ``ru_maxrss`` is only
#: the fallback where ``/proc`` is absent: on Linux a child carries its
#: parent's mark across exec, so a probe started by a pytest process
#: holding ~200 MB would read at least that.
_PRINT_PEAK_KB = """
import json
try:
    with open("/proc/self/status") as status:
        peak_kb = next(
            int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
except (OSError, StopIteration):
    import resource
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({"peak_rss_kb": peak_kb}))
"""

_MEM_DRIVER_WHOLE = """
import sys
from repro.core.configs import S_SPRINT
from repro.core.system import ExecutionMode
from repro.serving import (PoissonProcess, generate_request_table,
                           shared_cost_model, simulate_table)
n = int(sys.argv[1])
table = generate_request_table(
    PoissonProcess(2000.0), "BERT-B", count=n, seed=0)
cost = shared_cost_model(S_SPRINT, ExecutionMode.SPRINT)
cost.prime(table.specs[0], table.valid_len)
result = simulate_table(table, cost)
assert result.completed == n
"""

_MEM_DRIVER_CHUNKED = """
import sys
from repro.core.configs import S_SPRINT
from repro.core.system import ExecutionMode
from repro.serving import (PoissonProcess, RequestStream,
                           shared_cost_model, simulate_stream)
n = int(sys.argv[1])
stream = RequestStream(PoissonProcess(2000.0), "BERT-B", count=n, seed=0)
cost = shared_cost_model(S_SPRINT, ExecutionMode.SPRINT)
result = simulate_stream(stream, cost)
assert result.completed == n
"""


def _measure_subprocess_mb(driver: str, n: int) -> float:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    out = subprocess.run(
        [sys.executable, "-c", driver + _PRINT_PEAK_KB, str(n)],
        check=True, env=env, cwd=REPO_ROOT, capture_output=True, text=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])["peak_rss_kb"] / 1024.0


def test_bench_chunked_vs_whole_throughput():
    """simulate_stream >= 0.9x simulate_table request throughput."""
    table = generate_request_table(
        PoissonProcess(RATE_RPS), "BERT-B", count=NUM_REQUESTS, seed=0
    )
    cost = shared_cost_model(S_SPRINT, ExecutionMode.SPRINT)
    cost.prime(table.specs[0], table.valid_len)
    chunks = [
        table.slice(lo, min(lo + CHUNK_SIZE, NUM_REQUESTS))
        for lo in range(0, NUM_REQUESTS, CHUNK_SIZE)
    ]

    # Warm both drivers, then time one pass each over identical rows.
    simulate_table(table.head(CHUNK_SIZE), cost)
    simulate_stream(chunks[:1], cost)

    start = time.perf_counter()
    whole = simulate_table(table, cost)
    whole_s = time.perf_counter() - start
    assert whole.completed == NUM_REQUESTS

    start = time.perf_counter()
    chunked = simulate_stream(chunks, cost)
    chunked_s = time.perf_counter() - start
    assert chunked.completed == NUM_REQUESTS
    assert chunked.end_s == whole.end_s

    # Informational: fully out-of-core, generation included.
    stream = RequestStream(
        PoissonProcess(RATE_RPS), "BERT-B", count=NUM_REQUESTS, seed=0,
        chunk_size=CHUNK_SIZE,
    )
    start = time.perf_counter()
    end_to_end = simulate_stream(stream, cost)
    end_to_end_s = time.perf_counter() - start
    assert end_to_end.completed == NUM_REQUESTS

    ratio = whole_s / chunked_s
    if GATE_ARMED:
        _append({
            "benchmark": "chunked_vs_whole_throughput",
            "num_requests": NUM_REQUESTS,
            "chunk_size": CHUNK_SIZE,
            "whole_s": round(whole_s, 4),
            "chunked_s": round(chunked_s, 4),
            "end_to_end_s": round(end_to_end_s, 4),
            "chunked_over_whole": round(ratio, 3),
        })
    floor = CHUNKED_GATE_FLOOR if GATE_ARMED else CHUNKED_SANITY_FLOOR
    assert ratio >= floor, (
        f"chunked driver only {ratio:.2f}x whole-table throughput "
        f"({chunked_s:.2f}s vs {whole_s:.2f}s; gate floor {floor}x)"
    )


@pytest.mark.skipif(
    not GATE_ARMED,
    reason="two 10^7-request subprocess runs; set SPRINT_BENCH_GATE=1",
)
def test_bench_out_of_core_memory():
    """10^7 requests: chunked fits the RSS budget, whole-table busts it."""
    chunked_mb = _measure_subprocess_mb(_MEM_DRIVER_CHUNKED, MEMORY_REQUESTS)
    whole_mb = _measure_subprocess_mb(_MEM_DRIVER_WHOLE, MEMORY_REQUESTS)
    _append({
        "benchmark": "out_of_core_memory",
        "num_requests": MEMORY_REQUESTS,
        "budget_mb": MEMORY_BUDGET_MB,
        "chunked_peak_mb": round(chunked_mb, 1),
        "whole_peak_mb": round(whole_mb, 1),
    })
    assert chunked_mb <= MEMORY_BUDGET_MB, (
        f"chunked 10^7 run peaked at {chunked_mb:.0f} MB "
        f"(budget {MEMORY_BUDGET_MB} MB)"
    )
    assert whole_mb > MEMORY_BUDGET_MB, (
        f"whole-table 10^7 run peaked at only {whole_mb:.0f} MB -- the "
        f"budget no longer separates the paths; tighten it"
    )


@pytest.mark.skipif(not GATE_ARMED, reason="wall-clock gate; set SPRINT_BENCH_GATE=1")
def test_bench_threaded_batch_formation():
    """Serial 4-queue simulate_table within 0.364 s on >= 4 CPUs."""
    if CPUS < FORMATION_CPUS:
        _append(
            {
                "benchmark": "threaded_batch_formation",
                "skipped": (
                    f"needs >= {FORMATION_CPUS} CPUs for a wall-clock "
                    f"ceiling; runner has {CPUS}"
                ),
            }
        )
        pytest.skip(f"formation ceiling needs >= {FORMATION_CPUS} CPUs (have {CPUS})")

    table = generate_request_table(
        PoissonProcess(RATE_RPS), FORMATION_MIX, count=NUM_REQUESTS, seed=0
    )
    cost = shared_cost_model(S_SPRINT, ExecutionMode.SPRINT)
    cost.prime(table.specs[0], table.valid_len)
    simulate_table(table, cost)  # warm: faults in the other queues' buckets

    # Best of a few passes: other tenants of a shared runner only ever
    # slow a pass down.
    serial_s = float("inf")
    for _ in range(FORMATION_PASSES):
        start = time.perf_counter()
        result = simulate_table(table, cost)
        serial_s = min(serial_s, time.perf_counter() - start)
        assert result.completed == NUM_REQUESTS

    _append(
        {
            "benchmark": "threaded_batch_formation",
            "num_requests": NUM_REQUESTS,
            "serial_s": round(serial_s, 4),
            "ceiling_s": FORMATION_CEILING_S,
        }
    )
    assert serial_s <= FORMATION_CEILING_S, (
        f"serial simulate_table took {serial_s:.3f}s on {CPUS} CPUs "
        f"(ceiling {FORMATION_CEILING_S}s)"
    )
