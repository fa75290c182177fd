#!/usr/bin/env python
"""Serving study: SPRINT under production traffic, end to end.

Streams BERT-B inference requests through the serving simulator under
three arrival patterns (Poisson, bursty/MMPP, diurnal trace replay) and
three execution modes (BASELINE, PRUNING_ONLY, SPRINT), sweeping the
offered load.  For every point it reports throughput, device
utilization, and p50/p95/p99 latency; the closing summary gives each
mode's *serving headroom* -- the highest load whose p99 stays within
the SLA -- showing how SPRINT's pruning compounds through queueing into
a multiple of the baseline's sustainable traffic.

The run is deterministic under the fixed seed and simulates well over
1000 requests per mode (three patterns x five loads x 400 requests).

Usage::

    python examples/serving_study.py [--fast]
"""

import argparse
import time

from repro.experiments.serving import (
    DEFAULT_LOADS,
    DEFAULT_PATTERNS,
    ServingExperiment,
    format_table,
    max_sla_load,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--fast", action="store_true",
        help="fewer requests per point for a quick pass",
    )
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    num_requests = 120 if args.fast else 400

    experiment = ServingExperiment(
        model="BERT-B", num_devices=1, max_batch_size=8,
        max_wait_ms=10.0, sla_ms=150.0, seed=args.seed,
    )
    total = num_requests * len(DEFAULT_LOADS) * len(DEFAULT_PATTERNS)
    print(f"Model    : BERT-B on {experiment.config.name}, "
          f"{experiment.num_devices} device(s)")
    print(f"Batching : max size {experiment.max_batch_size}, "
          f"max wait {experiment.max_wait_ms:.0f} ms")
    print(f"Traffic  : {len(DEFAULT_PATTERNS)} patterns x "
          f"{len(DEFAULT_LOADS)} loads x {num_requests} requests "
          f"= {total:,} requests per mode")
    print(f"SLA      : p99 <= {experiment.sla_ms:.0f} ms")
    print()

    start = time.time()
    rows = experiment.run(requests_per_point=num_requests)
    print(format_table(rows))
    print()

    headroom = max_sla_load(rows)
    base = min(
        load for (_, mode), load in headroom.items() if mode == "baseline"
    )
    sprint = min(
        load for (_, mode), load in headroom.items() if mode == "sprint"
    )
    print(f"Across every arrival pattern, SPRINT sustains >= "
          f"{sprint:.0f} rps at the p99 SLA that caps the baseline at "
          f"{base:.0f} rps ({sprint / max(base, 1e-9):.1f}x headroom).")
    print(f"[{len(rows)} sweep points, "
          f"{total * 3:,} simulated requests, "
          f"{time.time() - start:.1f}s]")


if __name__ == "__main__":
    main()
