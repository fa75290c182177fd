"""Benchmark: the serving study (load vs tail latency, three patterns)."""

from repro.experiments import serving


def test_bench_serving(benchmark):
    rows = benchmark(
        serving.run, requests_per_point=100, loads=(20.0, 80.0)
    )
    headroom = serving.max_sla_load(rows)
    for pattern in serving.DEFAULT_PATTERNS:
        base = headroom[(pattern, "baseline")]
        sprint = headroom[(pattern, "sprint")]
        # SPRINT's shorter service times must buy SLA headroom.
        assert sprint > base
    # Saturated baselines cannot exceed their service capacity.
    for row in rows:
        if row.mode == "baseline" and row.offered_rps >= 80.0:
            assert row.throughput_rps < row.offered_rps
    print()
    print(serving.format_table(rows))
