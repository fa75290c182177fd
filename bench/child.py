"""One fresh benchmark process: import, set up, warm up, timed passes.

Run by ``run.py`` as ``python bench/child.py '<json spec>'``; prints one
JSON object on stdout.  The spec names the workload, seed, size, the
timed-pass budget and whether spans and the output checks are on.
``perf_counter`` is the system-wide monotonic clock, so the parent
subtracts its spawn instant from ``t_imported`` / ``t_ready`` to get
import and set-up time including interpreter start.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from typing import Dict, List


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class _Span:
    __slots__ = ("spans", "record")

    def __init__(self, spans: "Spans", record: dict):
        self.spans = spans
        self.record = record

    def __enter__(self):
        stack = self.spans.stack
        self.record["parent"] = stack[-1]["id"] if stack else None
        stack.append(self.record)
        self.record["start"] = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.record["end"] = time.perf_counter()
        self.spans.stack.pop()
        return False


class Spans:
    """Wall-clock spans around the benchmark's calls into each layer.

    Off, ``span`` returns one shared no-op context manager.  On, each
    span records name (the module entered), layer, start, end, parent
    id, phase (``setup`` / ``warmup`` / ``pass<i>``) and ``work``: the
    number of units the call did (cycle-model evaluations for the
    ``cost_model`` layer).  Spans stay in memory until the run ends.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.records: List[dict] = []
        self.stack: List[dict] = []
        self.phase = "setup"

    def span(self, name: str, layer: str, work: int = 1):
        if not self.enabled:
            return _NULL_SPAN
        record = {
            "id": len(self.records),
            "name": name,
            "layer": layer,
            "phase": self.phase,
            "work": work,
        }
        self.records.append(record)
        return _Span(self, record)


def self_times(records: List[dict]) -> Dict[int, float]:
    """Span id -> duration minus the time its direct children cover."""
    own = {r["id"]: r["end"] - r["start"] for r in records}
    for r in records:
        if r["parent"] is not None:
            own[r["parent"]] -= r["end"] - r["start"]
    return own


def layer_summary(records: List[dict], batches: int) -> dict:
    """Per-layer and per-module self time over set-up plus timed passes.

    The warm-up pass is left out, so the scope is the same work the
    untraced processes time.  Root spans (``setup`` and each ``pass``)
    belong to the ``harness`` layer: their self time is the benchmark's
    own code between layer calls.
    """
    scoped = [r for r in records if r["phase"] != "warmup"]
    own = self_times(scoped)
    roots = [r for r in scoped if r["parent"] is None]
    total = sum(r["end"] - r["start"] for r in roots)
    layers: Dict[str, dict] = {}
    modules: Dict[str, dict] = {}
    for r in scoped:
        for table, key in ((layers, r["layer"]), (modules, r["name"])):
            entry = table.setdefault(
                key, {"layer": r["layer"], "calls": 0, "work": 0, "self_s": 0.0}
            )
            entry["calls"] += 1
            entry["work"] += r["work"]
            entry["self_s"] += own[r["id"]]
    for table in (layers, modules):
        for entry in table.values():
            entry["share"] = entry["self_s"] / total
    coverage = [
        1.0 - own[r["id"]] / (r["end"] - r["start"])
        for r in roots
        if r["name"] == "pass"
    ]
    return {
        "total_s": total,
        "layers": layers,
        "modules": modules,
        "pass_coverage": coverage,
        "batches": batches,
    }


def run(spec: dict) -> dict:
    import numpy as np
    import workloads
    from repro.runtime.cache import code_version

    t_imported = time.perf_counter()
    spans = Spans(spec["trace"])
    workload = workloads.WORKLOADS[spec["workload"]](
        spec["seed"], spec["smoke"], spec["scratch"]
    )
    with spans.span("setup", "harness"):
        workload.setup(spans)
    t_ready = time.perf_counter()

    spans.phase = "warmup"
    first = workload.run_pass(0, spans)
    attempted = 1
    failed = 0 if workload.pass_ok(first) else 1

    pass_s: List[float] = []
    batches = 0
    timed = 0.0
    index = 0
    while index < spec["min_passes"] or timed < spec["budget_s"]:
        spans.phase = f"pass{index}"
        attempted += 1
        start = time.perf_counter()
        try:
            with spans.span("pass", "harness"):
                out = workload.run_pass(index, spans)
        except Exception:  # noqa: BLE001 - a raising pass is a counted failure
            traceback.print_exc()
            failed += 1
            out = None
        elapsed = time.perf_counter() - start
        timed += elapsed
        index += 1
        if out is None:
            continue
        if not workload.pass_ok(out):
            failed += 1
            continue
        pass_s.append(elapsed)
        batches += out.batches

    result = {
        "t_imported": t_imported,
        "t_ready": t_ready,
        "pass_s": pass_s,
        "item": workload.item,
        "items_per_pass": workload.items_per_pass,
        "attempted": attempted,
        "failed": failed,
    }
    if spec["check"]:
        stats = workload.sim_stats(first)
        checks = workload.checks(first) + [
            ("every sim.* value is finite", workloads.all_finite(stats))
        ]
        attempted += len(checks)
        failed += sum(1 for _, ok in checks if not ok)
        result.update(
            attempted=attempted,
            failed=failed,
            checks=checks,
            sim=stats,
            sim_digest=workloads.digest([workload.output_digest(first), stats]),
            numpy=np.__version__,
            source_digest=code_version(),
        )
        if spec["workload"] == "paper_grid":
            result["paper_rows"] = workload.paper_rows(first.value[1])
    if spec["trace"]:
        result["layers"] = layer_summary(spans.records, batches)
        result["spans"] = spans.records
    # ru_maxrss is in KiB on Linux.
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return result


def main() -> None:
    print(json.dumps(run(json.loads(sys.argv[1]))))


if __name__ == "__main__":
    main()
