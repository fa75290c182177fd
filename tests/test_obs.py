"""Tests for the observability layer (:mod:`repro.obs`).

Covers the ISSUE-6 acceptance surface: the StreamingHistogram quantile
error bound vs ``np.percentile`` across seeds and distributions, merge
associativity (shard sketches fold into exactly the concatenated
population's sketch), Chrome-trace JSON schema validity plus
byte-identical traces across runs *and* across the two serving
engines, tracing/telemetry being inert by default (bitwise-unchanged
results), the NaN-degenerate empty ``LatencyStats``, the
``describe()`` queue-wait line, the sketch-mode ``summarize`` path,
and the runner's ``--metrics-out`` run manifest (schema version,
unit-cache accounting, determinism modulo the single wall field).
"""

import json
import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.configs import S_SPRINT
from repro.core.system import ExecutionMode
from repro.experiments import registry
from repro.experiments.runner import main
from repro.obs import (
    MANIFEST_SCHEMA,
    Counter,
    Gauge,
    RunTelemetry,
    StreamingHistogram,
    TraceConfig,
    TraceRecorder,
    set_telemetry,
)
from repro.obs import telemetry as telemetry_mod
from repro.serving import (
    DynamicBatcher,
    LatencyStats,
    PoissonProcess,
    ServiceCostModel,
    ServingSimulator,
    SprintDevice,
    generate_request_table,
    simulate_table,
    summarize,
)


@pytest.fixture(scope="module")
def cost_model():
    return ServiceCostModel(S_SPRINT, ExecutionMode.SPRINT)


@pytest.fixture(scope="module")
def stream(cost_model):
    table = generate_request_table(
        PoissonProcess(150.0), "BERT-B", count=300, seed=2
    )
    cost_model.prime(table.specs[0], table.valid_len)
    return table


# ----------------------------------------------------------------------
# streaming metrics
# ----------------------------------------------------------------------
class TestCounterGauge:
    def test_counter_increments(self):
        c = Counter("hits")
        assert c.inc() == 1
        assert c.inc(4) == 5
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_gauge_last_value_wins(self):
        g = Gauge("workers")
        g.set(4)
        g.set(2)
        assert g.value == 2

    def test_counter_increment_by_zero_is_a_noop(self):
        # The fault-mode stream fold increments the retried-completed
        # counter by the chunk's retry count, which is routinely zero.
        c = Counter("retried_completed")
        assert c.inc(0) == 0
        c.inc(3)
        assert c.inc(0) == 3


def _distributions(seed):
    rng = np.random.default_rng(seed)
    return {
        "lognormal": rng.lognormal(-5.0, 1.5, 20_000),
        "exponential": rng.exponential(0.02, 20_000),
        "uniform": rng.uniform(0.0, 0.3, 20_000),
        "bimodal": np.concatenate(
            [rng.normal(0.002, 2e-4, 10_000), rng.normal(0.15, 0.01, 10_000)]
        ).clip(min=0.0),
    }


class TestStreamingHistogram:
    @pytest.mark.parametrize("seed", (0, 1, 7))
    def test_quantile_within_documented_bound(self, seed):
        """The documented contract: quantile(q) is within
        rel_error_bound (relative) of the exact order statistic at the
        same rank (np.percentile with method='higher'), or within
        min_value absolutely for sub-resolution values."""
        for name, samples in _distributions(seed).items():
            sketch = StreamingHistogram()
            sketch.add_many(samples)
            for q in (50.0, 90.0, 95.0, 99.0, 99.9):
                est = sketch.quantile(q)
                exact = float(np.percentile(samples, q, method="higher"))
                err = abs(est - exact)
                bound = max(
                    sketch.rel_error_bound * exact, sketch.min_value
                )
                assert err <= bound, (name, q, est, exact)

    def test_mean_max_min_count_exact(self):
        rng = np.random.default_rng(3)
        samples = rng.exponential(0.01, 5000)
        sketch = StreamingHistogram()
        sketch.add_many(samples)
        assert sketch.count == 5000
        assert sketch.max == samples.max()
        assert sketch.min == samples.min()
        assert sketch.mean == pytest.approx(samples.mean(), rel=1e-12)

    def test_merge_equals_sketch_of_concatenation(self):
        """Merge associativity: per-shard sketches folded together have
        exactly the concatenated population's bucket counts (and hence
        identical quantiles), in any merge order."""
        rng = np.random.default_rng(11)
        samples = rng.lognormal(-4.0, 1.0, 30_000)
        shards = np.array_split(samples, 4)
        sketches = []
        for shard in shards:
            s = StreamingHistogram()
            s.add_many(shard)
            sketches.append(s)

        left = StreamingHistogram()
        for s in sketches:
            left.merge(s)
        right = StreamingHistogram()
        for s in reversed(sketches):
            right.merge(s)
        whole = StreamingHistogram()
        whole.add_many(samples)

        for merged in (left, right):
            assert np.array_equal(merged.bucket_counts, whole.bucket_counts)
            assert merged.count == whole.count
            assert merged.max == whole.max
            assert merged.min == whole.min
            assert merged.mean == pytest.approx(whole.mean, rel=1e-12)
            for q in (50.0, 95.0, 99.0):
                assert merged.quantile(q) == whole.quantile(q)

    def test_merge_with_empty_histogram_changes_nothing(self):
        # The per-chunk retry-latency sketch is often empty (no retried
        # completions in a chunk); folding it into the running sketch
        # must leave every statistic bitwise unchanged -- and merging
        # *into* an empty sketch must equal the non-empty side.
        rng = np.random.default_rng(5)
        samples = rng.exponential(0.02, 2000)
        full = StreamingHistogram()
        full.add_many(samples)
        before = (
            full.bucket_counts.copy(),
            full.count,
            full.max,
            full.min,
            full.mean,
        )
        full.merge(StreamingHistogram())
        assert np.array_equal(full.bucket_counts, before[0])
        assert full.count == before[1]
        assert full.max == before[2]
        assert full.min == before[3]
        assert full.mean == before[4]

        other = StreamingHistogram()
        other.add_many(samples)
        empty = StreamingHistogram()
        empty.merge(other)
        assert np.array_equal(empty.bucket_counts, other.bucket_counts)
        assert empty.count == other.count
        assert empty.max == other.max
        assert empty.min == other.min
        # Two empties merged stay empty (NaN stats preserved).
        both = StreamingHistogram()
        both.merge(StreamingHistogram())
        assert both.count == 0
        assert math.isnan(both.quantile(99.0))

    def test_merge_rejects_mismatched_layout(self):
        a = StreamingHistogram()
        b = StreamingHistogram(buckets_per_decade=32)
        with pytest.raises(ValueError):
            a.merge(b)

    def test_zeros_and_overflow_handled(self):
        sketch = StreamingHistogram(min_value=1e-6, max_value=1.0)
        sketch.add_many(np.array([0.0, 0.0, 5e-7, 0.5, 3.0, 7.0]))
        assert sketch.count == 6
        assert sketch.quantile(0.0) == 0.0  # underflow -> exact min
        assert sketch.quantile(100.0) == 7.0  # overflow -> exact max

    def test_empty_and_invalid(self):
        sketch = StreamingHistogram()
        assert math.isnan(sketch.quantile(99.0))
        assert math.isnan(sketch.mean)
        assert math.isnan(sketch.max)
        with pytest.raises(ValueError):
            sketch.add(-1.0)
        with pytest.raises(ValueError):
            sketch.add_many(np.array([0.1, float("nan")]))
        with pytest.raises(ValueError):
            sketch.add(float("inf"))
        with pytest.raises(ValueError):
            sketch.quantile(101.0)
        with pytest.raises(ValueError):
            StreamingHistogram(min_value=0.0)


# ----------------------------------------------------------------------
# metrics integration: NaN degenerate stats, describe(), sketch path
# ----------------------------------------------------------------------
class TestLatencyStatsDegenerate:
    def test_empty_population_yields_nan_stats(self):
        stats = LatencyStats.from_samples([])
        for field in ("mean_s", "p50_s", "p95_s", "p99_s", "max_s"):
            assert math.isnan(getattr(stats, field))

    def test_empty_sketch_yields_nan_stats(self):
        stats = LatencyStats.from_sketch(StreamingHistogram())
        assert math.isnan(stats.p99_s)

    def test_nan_p99_never_meets_sla(self, stream, cost_model):
        report = summarize(
            simulate_table(stream, cost_model), "S-SPRINT", "sprint",
            "poisson", 150.0, sla_s=0.1,
        )
        degenerate = type(report)(
            **{**report.__dict__, "latency": LatencyStats.from_samples([])}
        )
        assert not degenerate.meets_sla()


class TestReportDescribe:
    def test_describe_prints_queue_wait_line(self, stream, cost_model):
        report = summarize(
            simulate_table(stream, cost_model), "S-SPRINT", "sprint",
            "poisson", 150.0, sla_s=0.1,
        )
        text = report.describe()
        assert "queue wait p50/p99" in text
        assert f"{report.queue_wait.p99_s * 1e3:,.2f}" in text


class TestSketchSummarize:
    def test_sketch_report_within_bound_of_exact(self, stream, cost_model):
        result = simulate_table(stream, cost_model, num_devices=2)
        kwargs = dict(
            config="S-SPRINT", mode="sprint", pattern="poisson",
            offered_rps=150.0, sla_s=0.1,
        )
        exact = summarize(result, **kwargs)
        sketch = summarize(result, exact=False, **kwargs)
        bound = StreamingHistogram().rel_error_bound
        for stats_exact, stats_sketch, column in (
            (exact.latency, sketch.latency, result.latency_s),
            (exact.queue_wait, sketch.queue_wait, result.queue_wait_s),
        ):
            # mean/max exact; percentiles within the documented bound
            # of the 'higher' order statistic.
            assert stats_sketch.mean_s == pytest.approx(
                stats_exact.mean_s, rel=1e-12
            )
            assert stats_sketch.max_s == stats_exact.max_s
            for q, got in (
                (50.0, stats_sketch.p50_s),
                (95.0, stats_sketch.p95_s),
                (99.0, stats_sketch.p99_s),
            ):
                anchor = float(np.percentile(column, q, method="higher"))
                assert abs(got - anchor) <= max(anchor * bound, 1e-7)
        # Everything that is not a percentile is identical.
        assert sketch.requests == exact.requests
        assert sketch.throughput_rps == exact.throughput_rps
        assert sketch.utilization == exact.utilization
        assert sketch.energy_uj == exact.energy_uj
        assert sketch.sla_violations == exact.sla_violations
        assert sketch.mean_batch_size == exact.mean_batch_size


# ----------------------------------------------------------------------
# sim-time tracing
# ----------------------------------------------------------------------
def _validate_chrome_trace(payload):
    assert isinstance(payload["traceEvents"], list)
    assert payload["traceEvents"], "trace must not be empty"
    for event in payload["traceEvents"]:
        assert {"name", "ph", "pid", "tid"} <= set(event)
        assert event["ph"] in ("X", "M")
        if event["ph"] == "X":
            assert event["ts"] >= 0.0
            assert event["dur"] >= 0.0
            assert event["cat"] in ("request", "batch")


class TestTraceConfig:
    def test_head_and_stride_sampling(self):
        config = TraceConfig(head=4, stride=10)
        wanted = [i for i in range(25) if config.wants(i)]
        assert wanted == [0, 1, 2, 3, 10, 20]
        assert np.array_equal(
            config.mask(np.arange(25)),
            np.isin(np.arange(25), wanted),
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            TraceConfig(head=-1)
        with pytest.raises(ValueError):
            TraceConfig(stride=-2)


class TestTracing:
    def test_tracing_does_not_change_results(self, stream, cost_model):
        recorder = TraceRecorder(TraceConfig(head=50))
        traced = simulate_table(
            stream, cost_model, num_devices=2, recorder=recorder
        )
        plain = simulate_table(stream, cost_model, num_devices=2)
        assert np.array_equal(traced.finish_s, plain.finish_s)
        assert np.array_equal(traced.device_id, plain.device_id)
        assert traced.device_busy_s == plain.device_busy_s
        assert recorder.sampled_requests == 50

    def test_identical_runs_write_byte_identical_traces(
        self, stream, cost_model, tmp_path
    ):
        paths = []
        for run in range(2):
            recorder = TraceRecorder(TraceConfig(head=64, stride=37))
            simulate_table(
                stream, cost_model, num_devices=2, recorder=recorder
            )
            paths.append(recorder.write(tmp_path / f"run{run}.json"))
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_fast_and_reference_traces_byte_identical(
        self, stream, cost_model, tmp_path
    ):
        """Spans are derived from the bitwise-equal lifecycle records,
        so the two engines must emit byte-identical trace files."""
        fast = TraceRecorder(TraceConfig(head=64, stride=37))
        simulate_table(stream, cost_model, num_devices=2, recorder=fast)
        reference = TraceRecorder(TraceConfig(head=64, stride=37))
        ServingSimulator(
            [SprintDevice(i, cost_model) for i in range(2)],
            DynamicBatcher(8, 2e-3),
            reference,
        ).run(stream.to_requests())
        fast_path = fast.write(tmp_path / "fast.json")
        reference_path = reference.write(tmp_path / "reference.json")
        assert fast_path.read_bytes() == reference_path.read_bytes()

    def test_chrome_trace_schema(self, stream, cost_model, tmp_path):
        recorder = TraceRecorder(TraceConfig(head=32))
        simulate_table(stream, cost_model, recorder=recorder)
        path = recorder.write(tmp_path / "trace.json")
        payload = json.loads(path.read_text())
        _validate_chrome_trace(payload)
        spans = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        request_spans = [e for e in spans if e["cat"] == "request"]
        # Three lifecycle spans (queue/dispatch/compute) per sampled
        # request, and every sampled id is below the head.
        assert len(request_spans) == 3 * recorder.sampled_requests
        assert {e["name"] for e in request_spans} == {
            "queue", "dispatch", "compute",
        }
        assert all(e["tid"] < 32 for e in request_spans)
        assert [e for e in spans if e["cat"] == "batch"]

    def test_request_span_timestamps_are_sim_time(self, cost_model):
        table = generate_request_table(
            PoissonProcess(100.0), "BERT-B", count=20, seed=0
        )
        cost_model.prime(table.specs[0], table.valid_len)
        recorder = TraceRecorder(TraceConfig(head=20))
        result = simulate_table(table, cost_model, recorder=recorder)
        payload = recorder.to_chrome_trace()
        queue = {
            e["tid"]: e
            for e in payload["traceEvents"]
            if e["ph"] == "X" and e["name"] == "queue"
        }
        for i, rid in enumerate(result.request_id):
            span = queue[int(rid)]
            assert span["ts"] == float(result.arrival_s[i]) * 1e6
            assert span["dur"] == pytest.approx(
                (result.batched_s[i] - result.arrival_s[i]) * 1e6
            )


# ----------------------------------------------------------------------
# runtime telemetry and the run manifest
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _ObsUnit:
    point: int

    @property
    def key(self):
        return ("obsplan", self.point)

    @property
    def group(self):
        return ("obsplan",)

    def execute(self):
        return float(self.point * 2)


@dataclass(frozen=True)
class _ObsRow:
    label: str
    value: float


_OBS_PRIMED = {}


def _obs_module():
    def run(points=(1, 2, 3)):
        rows = []
        for p in points:
            result = _OBS_PRIMED.get(("obsplan", p))
            if result is None:
                result = _ObsUnit(p).execute()
            rows.append(_ObsRow(str(p), result))
        return rows

    return SimpleNamespace(
        run=run,
        format_table=lambda rows: ", ".join(
            f"{r.label}={r.value}" for r in rows
        ),
        plan=lambda points=(1, 2, 3): [_ObsUnit(p) for p in points],
        prime=lambda key, result: _OBS_PRIMED.__setitem__(
            tuple(key), result
        ),
        clear_primed=_OBS_PRIMED.clear,
    )


@pytest.fixture()
def obs_registry(monkeypatch):
    monkeypatch.setitem(registry.EXPERIMENTS, "obsplan", ({}, _obs_module()))


class TestRunTelemetry:
    def test_counters_events_and_manifest_shape(self):
        tele = RunTelemetry(jobs=2, fast=True)
        tele.count("units.executed", 5)
        tele.gauge("shard_size", 7)
        tele.event("shard", group="('obsplan',)", units=5)
        tele.record_experiment("serving", seconds=1.25, cached=False)
        tele.record_experiment("fig11", seconds=0.0, error="Boom: bad")
        manifest = tele.manifest()
        assert manifest["schema"] == MANIFEST_SCHEMA
        assert manifest["kind"] == "sprint-run-manifest"
        assert manifest["workers"] == 2
        assert manifest["counters"]["units.executed"] == 5
        # Core accounting keys are always present, even untouched.
        assert manifest["counters"]["unit_cache.hits"] == 0
        assert manifest["counters"]["unit_cache.misses"] == 0
        assert manifest["counters"]["experiments.failed"] == 1
        assert manifest["experiments"]["serving"] == {
            "ok": True, "cached": False, "error": None,
        }
        assert manifest["experiments"]["fig11"]["error"] == "Boom: bad"
        assert manifest["wall"]["experiment_s"]["serving"] == 1.25
        assert isinstance(manifest["code_version"], str)
        json.dumps(manifest)  # JSON-safe throughout

    def test_helpers_are_noops_when_inactive(self, capsys):
        assert telemetry_mod.get_telemetry() is None
        telemetry_mod.count("units.executed")
        telemetry_mod.event("shard", units=1)
        telemetry_mod.warn("fallback engaged")
        assert "warning: fallback engaged" in capsys.readouterr().err

    def test_warn_records_event_and_echoes_stderr(self, capsys):
        tele = RunTelemetry()
        set_telemetry(tele)
        try:
            telemetry_mod.warn("shard failed", source="test")
        finally:
            set_telemetry(None)
        assert "warning: shard failed" in capsys.readouterr().err
        assert tele.events == [
            {"kind": "warning", "message": "shard failed", "source": "test"}
        ]


class TestRunnerManifest:
    def _run(self, argv):
        assert main(argv) == 0

    def test_manifest_records_unit_cache_accounting(
        self, obs_registry, tmp_path, capsys
    ):
        cache = tmp_path / "cache"
        cold = tmp_path / "cold.json"
        warm = tmp_path / "warm.json"
        self._run(
            ["obsplan", "--cache-dir", str(cache), "--metrics-out", str(cold)]
        )
        manifest = json.loads(cold.read_text())
        assert manifest["schema"] == MANIFEST_SCHEMA
        assert manifest["counters"]["units.planned"] == 3
        assert manifest["counters"]["units.executed"] == 3
        assert manifest["counters"]["unit_cache.misses"] == 3
        assert manifest["experiments"]["obsplan"]["ok"] is True

        # Drop the whole-artifact entries so the warm run exercises the
        # unit granularity: every point must replay from the unit cache.
        for artifact in cache.glob("*.json"):
            artifact.unlink()
        self._run(
            ["obsplan", "--cache-dir", str(cache), "--metrics-out", str(warm)]
        )
        manifest = json.loads(warm.read_text())
        assert manifest["counters"]["unit_cache.hits"] == 3
        assert manifest["counters"]["units.replayed"] == 3
        assert manifest["counters"]["units.executed"] == 0

    def test_manifest_byte_identical_modulo_wall(
        self, obs_registry, tmp_path, capsys
    ):
        payloads = []
        for run in range(2):
            out = tmp_path / f"m{run}.json"
            self._run(["obsplan", "--metrics-out", str(out)])
            payload = json.loads(out.read_text())
            assert set(payload) > {"schema", "wall", "counters"}
            del payload["wall"]  # the single wall-clock field
            payloads.append(json.dumps(payload, sort_keys=True))
        assert payloads[0] == payloads[1]

    def test_telemetry_cleared_after_run(self, obs_registry, tmp_path, capsys):
        self._run(["obsplan", "--metrics-out", str(tmp_path / "m.json")])
        assert telemetry_mod.get_telemetry() is None

    def test_trace_out_writes_serving_traces(self, tmp_path, capsys):
        trace_dir = tmp_path / "traces"
        self._run(
            [
                "serving", "--fast",
                "--trace-out", str(trace_dir),
                "--trace-head", "32",
                "--metrics-out", str(tmp_path / "m.json"),
            ]
        )
        traces = sorted(trace_dir.glob("serving-*.json"))
        assert traces, "serving sweep must emit per-point trace files"
        for path in traces:
            _validate_chrome_trace(json.loads(path.read_text()))
