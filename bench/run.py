"""The repository benchmark: host cost of the SPRINT simulator.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                         [--trace 0|1] [--trace-dir DIR] [--out FILE] [--smoke]

Each workload runs in ``PROCESSES`` fresh, single-threaded interpreter
processes one after another.  Each process sets up, runs one untimed
warm-up pass, then timed passes until its share of ``--seconds`` is
spent.  End-to-end metrics:

- ``setup_s``: spawn until inputs are ready (imports, input generation,
  cold cost-model priming), median over the processes;
- ``items_per_s``: work items per pass over the fastest timed pass (an
  item is a head-sample, an offered request or a generated token).
  On a shared host, other tenants only ever slow a pass down, in waves
  that can outlast several passes, so the fastest pass is the steadiest
  estimate of the simulator's own cost; the pass-time quartiles are
  recorded beside it;
- ``peak_rss_mb``: the largest ``ru_maxrss`` of the processes.

The first process also runs the output checks (reference loops, request
conservation, finite simulated statistics) and the ``sim_digest`` of
the simulated outputs.  ``--trace 1`` adds one process with spans on
and reports the per-layer metrics instead; ``--trace-dir`` also writes
``<workload>.trace.json`` (Chrome trace events) and ``layers.json``
there.  ``--out`` appends one JSON record per workload, the input of
``bench/compare.py``.  The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; the exit code is
non-zero when any operation failed.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
#: Per-process scratch (the paper grid's result cache); removed after
#: each process.
SCRATCH = ROOT / ".bench_tmp"

#: Fresh processes per workload; set-up time is their median.
PROCESSES = 3
#: Timed passes of the traced process.
TRACE_PASSES = 3
#: Per-workload wall-clock cap on the processes of one invocation.
WORKLOAD_DEADLINE_S = 170.0
LAYERS = ("inputs", "cost_model", "engine", "report")


def load_spec() -> dict:
    """``BENCHMARK.json``: the declared workloads, metrics and units."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def declared(entries: List[dict], values: Dict[str, dict]) -> Dict[str, dict]:
    """The declared metrics, in declaration order, with their units."""
    return {e["name"]: dict(values[e["name"]], unit=e["unit"]) for e in entries}


class BenchError(RuntimeError):
    """A benchmark process failed; the run reports no result."""


def quartiles(values: List[float]):
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` cuts."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def metric(value: float, q1=None, q3=None, n=1) -> dict:
    return {
        "value": value,
        "q1": value if q1 is None else q1,
        "q3": value if q3 is None else q3,
        "n": n,
    }


def revision() -> str:
    """The checkout's git commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: ") :]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_child(spec: dict, deadline: float) -> dict:
    """One fresh single-threaded process; waits for it to end."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    spawn = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "child.py"), json.dumps(spec)],
        stdout=subprocess.PIPE,
        env=env,
        cwd=ROOT,
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - spawn))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{spec['workload']} process exceeded the deadline")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
        shutil.rmtree(spec["scratch"], ignore_errors=True)
    if proc.returncode != 0:
        raise BenchError(f"{spec['workload']} process exited {proc.returncode}")
    result = json.loads(out.decode().strip().splitlines()[-1])
    result["setup_s"] = result["t_ready"] - spawn
    result["import_s"] = result["t_imported"] - spawn
    return result


def per_layer(traced: dict, untraced_best_s: float) -> Dict[str, dict]:
    """Per-layer metric values from the traced process."""
    summary = traced["layers"]
    layers = summary["layers"]
    values = {"import.busy_s": traced["import_s"]}
    for layer in LAYERS:
        values[f"{layer}.busy_s"] = layers[layer]["self_s"]
        values[f"{layer}.share"] = layers[layer]["share"]
    cost = layers["cost_model"]
    values["cost_model.ms_per_call"] = 1e3 * cost["self_s"] / cost["work"]
    values["engine.us_per_batch"] = 1e6 * layers["engine"]["self_s"] / summary["batches"]
    values["harness.share"] = layers["harness"]["share"]
    values["trace_overhead_pct"] = 100.0 * (min(traced["pass_s"]) / untraced_best_s - 1.0)
    return {name: metric(value) for name, value in values.items()}


def measure(name: str, args, spec: dict) -> dict:
    """All processes of one workload, folded into one record."""
    deadline = time.perf_counter() + WORKLOAD_DEADLINE_S
    processes = 1 if args.smoke else PROCESSES
    base = {
        "workload": name,
        "seed": args.seed,
        "smoke": args.smoke,
        "trace": False,
        "check": False,
        "min_passes": 1,
        "budget_s": 0.0 if args.smoke else args.seconds / processes,
    }
    runs = [
        run_child(
            dict(base, check=(j == 0), scratch=str(SCRATCH / f"{name}-{j}")),
            deadline,
        )
        for j in range(processes)
    ]
    traced = None
    if args.trace:
        traced = run_child(
            dict(
                base,
                trace=True,
                min_passes=1 if args.smoke else TRACE_PASSES,
                budget_s=0.0,
                scratch=str(SCRATCH / f"{name}-traced"),
            ),
            deadline,
        )

    pass_s = [t for r in runs for t in r["pass_s"]]
    if not pass_s:
        raise BenchError(f"{name}: no pass completed")
    first = runs[0]
    items = first["items_per_pass"]
    p_q1, _, p_q3 = quartiles(pass_s)
    s_q1, s_med, s_q3 = quartiles([r["setup_s"] for r in runs])
    values = {
        "setup_s": metric(s_med, s_q1, s_q3, len(runs)),
        # Best pass; the quartiles are those of the per-pass throughput.
        "items_per_s": metric(
            items / min(pass_s), items / p_q3, items / p_q1, len(pass_s)
        ),
        "peak_rss_mb": metric(max(r["rss_mb"] for r in runs), n=len(runs)),
    }
    everyone = runs + ([traced] if traced else [])
    attempted = sum(r["attempted"] for r in everyone)
    failed = sum(r["failed"] for r in everyone)
    record = {
        "workload": name,
        "item": first["item"],
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "processes": processes,
        "metrics": declared(spec["end_to_end"], values),
        "attempted": attempted,
        "failed": failed,
        "failure_rate": failed / attempted,
        "pass_s": pass_s,
        "checks": first["checks"],
        "sim": first["sim"],
        "sim_digest": first["sim_digest"],
        "env": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": first["numpy"],
            "revision": revision(),
            "source_digest": first["source_digest"],
        },
    }
    if "paper_rows" in first:
        record["paper_rows"] = first["paper_rows"]
    if traced:
        record["per_layer"] = declared(
            spec["per_layer"], per_layer(traced, min(pass_s))
        )
        record["layers"] = traced["layers"]
        record["spans"] = traced["spans"]
    return record


def print_record(record: dict) -> None:
    m = record["metrics"]
    print(
        f"== {record['workload']} (seed {record['seed']}, "
        f"{record['processes']} processes, {m['items_per_s']['n']} timed "
        f"passes, item = {record['item']})"
    )
    for name, entry in m.items():
        print(
            f"  {name:<14} {entry['value']:>14.4f} {entry['unit']:<4} "
            f"q1 {entry['q1']:.4f}  q3 {entry['q3']:.4f}  n {entry['n']}"
        )
    passed = sum(1 for _, ok in record["checks"] if ok)
    print(
        f"  checks {passed}/{len(record['checks'])} passed; failed operations "
        f"{record['failed']}/{record['attempted']} "
        f"(failure_rate {record['failure_rate']:.4g})"
    )
    for check, ok in record["checks"]:
        if not ok:
            print(f"  FAILED CHECK: {check}")
    for name, value in record["sim"].items():
        print(f"  {name:<28} {value!r}")
    for row, repro, paper in record.get("paper_rows", []):
        print(
            f"  paper  {row:<34} repro {repro:>8.4f}  paper {paper:>8.4f}  "
            f"gap {100.0 * (repro - paper) / paper:+7.1f}%"
        )
    print(f"  sim_digest {record['sim_digest']}")
    if "per_layer" in record:
        layers = record["layers"]
        coverage = min(layers["pass_coverage"])
        print(
            f"  per-layer self time (traced process: set-up + timed passes, "
            f"{layers['total_s']:.3f} s; named layers cover >= "
            f"{100.0 * coverage:.1f}% of every pass)"
        )
        print(f"    {'module':<42} {'layer':<11} {'calls':>6} {'self_s':>9} {'share':>7}")
        for module, entry in sorted(
            layers["modules"].items(), key=lambda kv: -kv[1]["self_s"]
        ):
            print(
                f"    {module:<42} {entry['layer']:<11} {entry['calls']:>6} "
                f"{entry['self_s']:>9.4f} {100.0 * entry['share']:>6.1f}%"
            )
        for name, entry in record["per_layer"].items():
            print(f"  {name:<24} {entry['value']:>12.4f} {entry['unit']}")


def write_trace(trace_dir: Path, name: str, spans: List[dict], summary: dict) -> None:
    """Chrome trace events for the workload, and its layer table."""
    trace_dir.mkdir(parents=True, exist_ok=True)
    t0 = min(s["start"] for s in spans)
    events = [
        {
            "name": s["name"],
            "cat": s["layer"],
            "ph": "X",
            "ts": (s["start"] - t0) * 1e6,
            "dur": (s["end"] - s["start"]) * 1e6,
            "pid": 1,
            "tid": 1,
            "args": {
                "id": s["id"],
                "parent": s["parent"],
                "workload": name,
                "phase": s["phase"],
            },
        }
        for s in spans
    ]
    (trace_dir / f"{name}.trace.json").write_text(json.dumps({"traceEvents": events}))
    layers_path = trace_dir / "layers.json"
    layers = json.loads(layers_path.read_text()) if layers_path.exists() else {}
    layers[name] = summary
    layers_path.write_text(json.dumps(layers, indent=1, sort_keys=True) + "\n")


def parse_args(argv: Optional[List[str]], spec: dict):
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-dir", type=Path)
    parser.add_argument("--out", type=Path)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny sizes (2 models, 2k requests, 1 process, 1 pass)",
    )
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")
    if args.trace_dir is not None and not args.trace:
        parser.error("--trace-dir needs --trace 1")
    return args


def main(argv: Optional[List[str]] = None) -> int:
    spec = load_spec()
    args = parse_args(argv, spec)
    # SIGTERM unwinds like an exception, so the running child is killed
    # and reaped by run_child's cleanup.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "repro").is_dir():
        print(f"error: no simulator sources at {SRC / 'repro'}", file=sys.stderr)
        return 2
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all":
        names = [args.workload]
    records = []
    try:
        for name in names:
            record = measure(name, args, spec)
            print_record(record)
            spans = record.pop("spans", None)
            if args.trace_dir is not None:
                write_trace(args.trace_dir, name, spans, record["layers"])
            if args.out is not None:
                with args.out.open("a") as fh:
                    fh.write(json.dumps(record) + "\n")
            records.append(record)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)

    chosen = "per_layer" if args.trace else "metrics"
    metrics = {}
    for record in records:
        prefix = f"{record['workload']}." if len(records) > 1 else ""
        for key, entry in record[chosen].items():
            metrics[prefix + key] = {"value": entry["value"], "unit": entry["unit"]}
    failed = sum(r["failed"] for r in records)
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": sum(r["attempted"] for r in records),
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
