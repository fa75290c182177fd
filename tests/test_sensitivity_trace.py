"""Tests for the sensitivity sweeps and the trace recorder."""

import pytest

from repro.core.configs import S_SPRINT
from repro.core.trace import TraceRecorder
from repro.experiments import sensitivity
from repro.workloads.generator import generate_workload


class TestPruningRateSweep:
    @pytest.fixture(scope="class")
    def rows(self):
        return sensitivity.run_pruning_rate_sweep(
            rates=(0.3, 0.6, 0.9), seq_len=192
        )

    def test_speedup_increases_with_pruning(self, rows):
        speedups = [r.speedup for r in rows]
        assert speedups == sorted(speedups)

    def test_energy_increases_with_pruning(self, rows):
        energy = [r.energy_reduction for r in rows]
        assert energy == sorted(energy)

    def test_unpruned_decreases(self, rows):
        unpruned = [r.unpruned_per_query for r in rows]
        assert unpruned == sorted(unpruned, reverse=True)

    def test_all_beneficial(self, rows):
        for r in rows:
            assert r.speedup > 1.0
            assert r.energy_reduction > 1.0


class TestSequenceLengthSweep:
    @pytest.fixture(scope="class")
    def rows(self):
        return sensitivity.run_sequence_length_sweep(
            seq_lens=(128, 512, 2048)
        )

    def test_coverage_shrinks(self, rows):
        coverage = [r.coverage for r in rows]
        assert coverage == sorted(coverage, reverse=True)

    def test_long_sequences_benefit_more_in_traffic(self, rows):
        # Once capacity is a sliver, SPRINT's traffic advantage grows.
        assert rows[-1].data_movement_reduction >= rows[0].data_movement_reduction - 0.05

    def test_speedup_positive_everywhere(self, rows):
        for r in rows:
            assert r.speedup > 1.0

    def test_format_table(self, rows):
        text = sensitivity.format_tables(
            sensitivity.run_pruning_rate_sweep(rates=(0.5,), seq_len=128),
            rows,
        )
        assert "Sensitivity sweeps" in text


class TestTraceRecorder:
    @pytest.fixture(scope="class")
    def recorder(self):
        workload = generate_workload(
            192, 0.75, padding_ratio=0.2, num_samples=1, seed=6
        )
        return TraceRecorder.trace_sprint(workload.samples[0], S_SPRINT)

    def test_one_event_per_valid_query(self, recorder):
        assert len(recorder.events) > 0
        queries = [e.query for e in recorder.events]
        assert queries == list(range(len(queries)))

    def test_totals_match_components(self, recorder):
        for e in recorder.events:
            assert e.latency_cycles == max(
                e.compute_cycles, e.memory_cycles
            )
            assert e.fetched + e.reused == e.unpruned

    def test_bound_labels(self, recorder):
        bounds = recorder.bound_fractions()
        assert bounds["compute"] + bounds["memory"] == pytest.approx(1.0)

    def test_reuse_fraction_high_for_structured(self, recorder):
        # Structured workloads reuse most unpruned keys (Figure 3).
        assert recorder.reuse_fraction() > 0.5

    def test_first_query_among_fetch_heaviest(self, recorder):
        # Cold start: query 0 must fetch everything it needs.
        worst = max(recorder.events, key=lambda e: e.fetched)
        assert worst.query < 10

    def test_burstiness_positive(self, recorder):
        assert recorder.fetch_burstiness() > 0.5

    def test_csv_roundtrip(self, recorder):
        csv_text = recorder.to_csv()
        lines = csv_text.strip().splitlines()
        assert len(lines) == len(recorder.events) + 1
        assert lines[0].startswith("query,")

    def test_summary_fields(self, recorder):
        text = recorder.summary()
        assert "queries" in text and "reuse" in text

    def test_worst_queries_sorted(self, recorder):
        worst = recorder.worst_queries(3)
        latencies = [e.latency_cycles for e in worst]
        assert latencies == sorted(latencies, reverse=True)

    def test_empty_recorder(self):
        empty = TraceRecorder()
        assert empty.total_cycles == 0
        assert empty.fetch_burstiness() == 0.0
        assert empty.reuse_fraction() == 0.0
