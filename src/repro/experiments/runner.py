"""Run every experiment and print paper-style tables.

``sprint-experiments`` (console script) or ``python -m
repro.experiments.runner`` runs the full set; pass experiment names
(e.g. ``fig11 table3``) to run a subset, ``--fast`` for smaller sample
counts.  The CLI fronts :mod:`repro.runtime`:

* ``--jobs N`` shards independent experiments (and, inside the heavy
  sweeps, independent model cells) across ``N`` worker processes;
* ``--cache-dir DIR`` replays unchanged experiments from the
  content-addressed result cache instead of re-simulating;
* ``--json-out DIR`` writes each experiment's structured artifact to
  ``DIR/<name>.json`` alongside the printed table (which is itself a
  rendering of the artifact);
* ``--list`` prints the registered experiments (one line each, with a
  marker on the ones that shard via the WorkUnit protocol) and exits;
* ``--metrics-out FILE`` writes the schema-versioned run-manifest JSON
  (:mod:`repro.obs.telemetry`): cache/unit counters, structured
  events, per-experiment outcomes and wall times;
* ``--trace-out DIR`` enables sim-time request tracing in the serving
  experiments: one Chrome-trace JSON (Perfetto-viewable) per simulated
  point, sampled by ``--trace-head`` / ``--trace-stride``.

Exit status is 0 only when every requested experiment succeeded;
failures are reported per experiment and turn into exit code 1
instead of aborting the batch mid-run.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.experiments.registry import (
    EXPERIMENTS,  # noqa: F401 - re-exported (tests and back-compat)
    ExperimentModule,  # noqa: F401 - re-exported (tests and back-compat)
    describe,
    resolve,
    shardable,
)
from repro.obs.telemetry import RunTelemetry, set_telemetry
from repro.runtime import Artifact, ExperimentPool, ResultCache


def run_structured(name: str, fast: bool = False) -> Artifact:
    """Run one experiment by short name and return its artifact."""
    from repro.runtime.artifacts import build_artifact

    kwargs, module = resolve(name, fast)
    return build_artifact(name, kwargs, module)


def run_experiment(name: str, fast: bool = False) -> str:
    """Run one experiment by short name and return its formatted table."""
    return run_structured(name, fast=fast).table


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Reproduce the SPRINT paper's figures and tables."
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        default=list(EXPERIMENTS),
        help="subset to run (default: all): " + ", ".join(EXPERIMENTS),
    )
    parser.add_argument(
        "--fast",
        action="store_true",
        help="smaller sample counts for a quick pass",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes to shard experiments across (default: 1)",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help="content-addressed result cache; unchanged experiments "
        "replay instantly",
    )
    parser.add_argument(
        "--json-out",
        metavar="DIR",
        default=None,
        help="write each experiment's JSON artifact to DIR/<name>.json",
    )
    parser.add_argument(
        "--list",
        action="store_true",
        dest="list_experiments",
        help="list registered experiments with descriptions and exit",
    )
    parser.add_argument(
        "--metrics-out",
        metavar="FILE",
        default=None,
        help="write the schema-versioned run-manifest JSON (cache/unit "
        "counters, structured events, per-experiment timings) to FILE",
    )
    parser.add_argument(
        "--trace-out",
        metavar="DIR",
        default=None,
        help="enable sim-time request tracing; one Chrome-trace JSON "
        "(open in Perfetto) per simulated serving point lands in DIR",
    )
    parser.add_argument(
        "--trace-head",
        type=int,
        default=512,
        metavar="N",
        help="trace every request with id < N (default: 512)",
    )
    parser.add_argument(
        "--trace-stride",
        type=int,
        default=0,
        metavar="N",
        help="additionally trace every N-th request id (default: off)",
    )
    args = parser.parse_args(argv)
    if args.list_experiments:
        for name in EXPERIMENTS:
            marker = "*" if shardable(name) else " "
            print(f"{name:<12} {marker} {describe(name)}")
        print("(* = shardable: declares WorkUnits, scales with --jobs)")
        return 0
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")
    if args.trace_head < 0 or args.trace_stride < 0:
        parser.error("--trace-head/--trace-stride must be non-negative")
    unknown = [n for n in args.experiments if n not in EXPERIMENTS]
    if unknown:
        parser.error(
            f"unknown experiment(s): {', '.join(unknown)}; choose from "
            f"{', '.join(EXPERIMENTS)}"
        )

    # Observability is opt-in: the telemetry instance only exists (and
    # the hooks throughout the runtime only record) when a flag asks
    # for it.  Install before the pool runs so forked workers inherit
    # the trace configuration.
    telemetry = None
    if args.metrics_out or args.trace_out:
        telemetry = RunTelemetry(
            jobs=args.jobs,
            fast=args.fast,
            trace_dir=args.trace_out,
            trace_head=args.trace_head,
            trace_stride=args.trace_stride,
        )
        set_telemetry(telemetry)
        if args.trace_out:
            Path(args.trace_out).mkdir(parents=True, exist_ok=True)

    cache = ResultCache(args.cache_dir) if args.cache_dir else None
    pool = ExperimentPool(jobs=args.jobs, cache=cache)
    try:
        outcomes = pool.run(args.experiments, fast=args.fast)
    finally:
        set_telemetry(None)

    failures = []
    for name, outcome in outcomes.items():
        print("=" * 72)
        if not outcome.ok:
            failures.append(name)
            print(f"[{name} FAILED: {outcome.error}]")
        else:
            print(outcome.artifact.table)
            source = "cache" if outcome.cached else f"{outcome.seconds:.1f}s"
            print(f"[{name} done ({source})]")
            if args.json_out:
                outcome.artifact.write(args.json_out)
        if telemetry is not None:
            telemetry.record_experiment(
                name,
                seconds=outcome.seconds,
                cached=outcome.cached,
                error=outcome.error,
            )
        sys.stdout.flush()
    if telemetry is not None and args.metrics_out:
        print(f"[run manifest -> {telemetry.write(args.metrics_out)}]")
    if failures:
        print(
            f"{len(failures)}/{len(outcomes)} experiment(s) failed: "
            f"{', '.join(failures)}",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
