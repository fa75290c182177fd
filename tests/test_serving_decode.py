"""Generative decode serving: equivalence, goldens, and metrics.

Four contracts pinned here:

1. **Golden decode streams** -- the 4-phase generative draw order
   (arrivals, picks, jitter, output lengths) is hash-pinned, and the
   columnar decode engine's output columns on a golden stream are
   hash-pinned too: any drift in generation or engine semantics breaks
   a digest.
2. **Columnar vs reference, bitwise** -- the fast decode engine
   (:func:`repro.serving.decode.simulate_decode_table`) must equal the
   :class:`~repro.serving.scheduler.GenerativeServingSimulator`
   reference loop exactly, across patterns x seeds x device counts x
   wait bounds, including mixed prefill/decode queues and
   duplicate-name spec lists -- and the chunked stream driver must
   equal the whole-table run at any chunk size, as must the table
   driver at any slice size, with or without a fault schedule.
3. **Degeneration** -- with every ``output_len == 1`` the generative
   machinery reduces exactly to the prefill-only engines (same floats,
   same batches).
4. **Per-token metrics** -- TTFT/TBT invariants on the result columns,
   and :func:`~repro.serving.metrics.summarize_stream`'s sketch
   percentiles within the documented relative error bound of the exact
   whole-table report on decode traffic.
"""

import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.configs import S_SPRINT
from repro.core.system import ExecutionMode
from repro.models.zoo import get_model
from repro.obs.trace import TraceConfig, TraceRecorder
from repro.serving import (
    BurstyProcess,
    ContinuousBatcher,
    DynamicBatcher,
    FaultSchedule,
    GenerativeServingSimulator,
    PoissonProcess,
    Request,
    RequestStream,
    RequestTable,
    RetryPolicy,
    ServiceCostModel,
    ServingResult,
    ServingSimulator,
    SprintDevice,
    TraceProcess,
    generate_request_table,
    generate_requests,
    sample_output_lens,
    simulate_decode_table,
    simulate_stream,
    simulate_table,
    summarize,
    summarize_stream,
)
from repro.serving import engine
from repro.serving.decode import simulate_decode_stream

SEEDS = (0, 1, 7)
DEVICE_COUNTS = (1, 2, 4)
WAITS = (0.0, 2e-3)
MIX = {"BERT-B": 0.6, "GPT-2-L": 0.4}


def make_process(pattern):
    return {
        "poisson": PoissonProcess(rate_rps=120.0),
        "bursty": BurstyProcess(40.0, 150.0, 0.5, 0.1),
        "trace": TraceProcess([0.01, 0.002, 0.005]),
    }[pattern]


@pytest.fixture(scope="module")
def cost_model():
    """One shared memoized cost model across the equivalence matrix."""
    return ServiceCostModel(S_SPRINT, ExecutionMode.SPRINT)


def permute_rows(table, seed):
    """The same requests as ``table``, rows in a seeded random order."""
    perm = np.random.default_rng(seed).permutation(len(table))
    return RequestTable(
        specs=table.specs,
        request_id=table.request_id[perm],
        arrival_s=table.arrival_s[perm],
        spec_idx=table.spec_idx[perm],
        valid_len=table.valid_len[perm],
        output_len=None if table.output_len is None else table.output_len[perm],
    )


def assert_generative_equal(table, cost, num_devices, max_wait_s,
                            max_batch_size=8):
    """Run fast + reference on one generative stream; exact equality."""
    fast = simulate_decode_table(
        table,
        cost,
        num_devices=num_devices,
        max_batch_size=max_batch_size,
        max_wait_s=max_wait_s,
    ).to_result()
    reference = GenerativeServingSimulator(
        [SprintDevice(i, cost) for i in range(num_devices)],
        ContinuousBatcher(max_batch_size, max_wait_s),
    ).run(table.to_requests())
    assert len(fast.records) == len(reference.records)
    for a, b in zip(fast.records, reference.records):
        assert a == b  # dataclass equality: every timestamp, exactly
    for field in (
        "start_s", "end_s", "device_busy_s", "device_energy_pj",
        "batches", "prefill_batches", "decode_batches",
        "size_triggered_batches", "timeout_triggered_batches",
        "total_tokens",
    ):
        assert getattr(fast, field) == getattr(reference, field), field


class TestDecodeEquivalence:
    @pytest.mark.parametrize("pattern", ("poisson", "bursty", "trace"))
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("num_devices", DEVICE_COUNTS)
    @pytest.mark.parametrize("max_wait_s", WAITS)
    def test_records_exactly_equal(
        self, cost_model, pattern, seed, num_devices, max_wait_s
    ):
        table = generate_request_table(
            make_process(pattern), MIX, count=100, seed=seed,
            mean_output_tokens=8.0,
        )
        for idx, spec in enumerate(table.specs):
            cost_model.prime(spec, table.valid_len[table.spec_idx == idx])
        assert_generative_equal(table, cost_model, num_devices, max_wait_s)

    def test_other_modes_equal(self):
        for mode in (ExecutionMode.BASELINE, ExecutionMode.PRUNING_ONLY):
            cost = ServiceCostModel(S_SPRINT, mode)
            table = generate_request_table(
                PoissonProcess(90.0), "BERT-B", count=120, seed=3,
                mean_output_tokens=16.0,
            )
            assert_generative_equal(table, cost, 2, 2e-3)

    def test_repeated_model_in_mix_shares_one_queue(self, cost_model):
        # The reference batcher keys step queues on (model *name*,
        # phase); a pair-list mix naming the same model twice must not
        # split the fast engine's queues.
        table = generate_request_table(
            PoissonProcess(120.0),
            [("BERT-B", 0.5), ("BERT-B", 0.3), ("GPT-2-L", 0.2)],
            count=150,
            seed=0,
            mean_output_tokens=6.0,
        )
        assert len(table.specs) == 3
        assert_generative_equal(table, cost_model, 2, 2e-3)

    def test_single_step_batches(self, cost_model):
        # max_batch_size=1 seals every step on admission.
        table = generate_request_table(
            PoissonProcess(60.0), "BERT-B", count=60, seed=2,
            mean_output_tokens=4.0,
        )
        assert_generative_equal(
            table, cost_model, 2, 2e-3, max_batch_size=1
        )

    def test_simulate_table_routes_generative(self, cost_model):
        table = generate_request_table(
            PoissonProcess(90.0), "BERT-B", count=80, seed=4,
            mean_output_tokens=8.0,
        )
        routed = simulate_table(table, cost_model, num_devices=2)
        direct = simulate_decode_table(table, cost_model, num_devices=2)
        assert np.array_equal(routed.finish_s, direct.finish_s)
        assert np.array_equal(routed.first_token_s, direct.first_token_s)
        assert routed.total_tokens == direct.total_tokens


#: Property arrivals sit on a 2**-13 s grid (exact in binary), a few
#: slots apart at most, so arrivals, timeouts and DONE events share
#: instants.
GRID_S = 2.0**-13
PROPERTY_MODELS = ("BERT-B", "BERT-L")


def decode_table(models, arrival_s, spec_idx, valid_len, output_len):
    """A generative table from explicit columns, ids in arrival order."""
    return RequestTable(
        specs=[get_model(name) for name in models],
        request_id=np.arange(len(arrival_s)),
        arrival_s=arrival_s,
        spec_idx=spec_idx,
        valid_len=valid_len,
        output_len=output_len,
    )


@st.composite
def decode_cases(draw):
    """1-8 requests of 1-2 models on tie-heavy grid arrivals."""
    models = PROPERTY_MODELS[: draw(st.integers(1, 2))]
    count = draw(st.integers(1, 8))
    slots = sorted(draw(st.lists(st.integers(0, 24), min_size=count, max_size=count)))
    ints = st.lists(st.integers(0, len(models) - 1), min_size=count, max_size=count)
    return decode_table(
        models,
        [GRID_S * slot for slot in slots],
        draw(ints),
        draw(st.lists(st.sampled_from((16, 32)), min_size=count, max_size=count)),
        draw(st.lists(st.integers(1, 10), min_size=count, max_size=count)),
    )


class TestDecodeProperty:
    """The fault-free decode core, macro-stepping on, on drawn cases."""

    @given(
        table=decode_cases(),
        num_devices=st.integers(1, 3),
        max_batch_size=st.integers(1, 8),
        max_wait_s=st.sampled_from((0.0, 2e-3)),
        chunk_size=st.integers(1, 8),
    )
    @example(
        # A DONE after the last arrival whose batch holds the only
        # in-flight rejoiners fires the end-of-stream flush, which
        # seals the other model's pending queue too.
        table=decode_table(
            PROPERTY_MODELS, [0.0, 1e-4], [0, 1], [32, 32], [10, 10]
        ),
        num_devices=2,
        max_batch_size=8,
        max_wait_s=2e-3,
        chunk_size=1,
    )
    @example(
        # Two DONEs at one instant: the first dispatches onto the
        # second batch's device, so no device is free for its reseal.
        table=decode_table(
            PROPERTY_MODELS[:1],
            [6 * GRID_S, 7 * GRID_S, 7 * GRID_S, 8 * GRID_S],
            [0, 0, 0, 0],
            [32, 32, 16, 32],
            [6, 8, 4, 5],
        ),
        num_devices=3,
        max_batch_size=6,
        max_wait_s=0.0,
        chunk_size=2,
    )
    @settings(max_examples=150, deadline=None)
    def test_table_and_stream_equal_reference(
        self, cost_model, table, num_devices, max_batch_size, max_wait_s,
        chunk_size,
    ):
        knobs = dict(
            num_devices=num_devices,
            max_batch_size=max_batch_size,
            max_wait_s=max_wait_s,
        )
        assert_generative_equal(table, cost_model, **knobs)
        whole = simulate_decode_table(table, cost_model, **knobs)
        chunks = [
            table.slice(lo, min(lo + chunk_size, len(table)))
            for lo in range(0, len(table), chunk_size)
        ]
        collected = []
        streamed = simulate_decode_stream(
            chunks, cost_model, sink=collected.append, **knobs
        )
        for field in dataclasses.fields(streamed):
            name = field.name
            assert getattr(streamed, name) == getattr(whole, name), name
        rows = {
            name: np.concatenate([getattr(c, name) for c in collected])
            for name in (
                "request_id", "batched_s", "service_start_s",
                "first_token_s", "finish_s", "batch_size", "device_id",
                "decode_slots",
            )
        }
        order = np.argsort(rows["request_id"], kind="stable")
        for name, col in rows.items():
            assert np.array_equal(col[order], getattr(whole, name)), name


class TestDegeneration:
    def test_output_len_one_reduces_to_prefill_engines(self, cost_model):
        """output_len == 1 everywhere: the prefill and generative
        results agree -- same batches, same floats, on both paths.
        ``ServingSimulator`` runs the generative loop, so the reference
        half checks its mapping onto prefill record fields."""
        table = generate_request_table(
            PoissonProcess(120.0), {"BERT-B": 0.6, "ViT-B": 0.4},
            count=150, seed=3,
        )
        legacy_ref = ServingSimulator(
            [SprintDevice(i, cost_model) for i in range(2)],
            DynamicBatcher(),
        ).run(table.to_requests())
        gen_ref = GenerativeServingSimulator(
            [SprintDevice(i, cost_model) for i in range(2)],
            ContinuousBatcher(),
        ).run(table.to_requests())
        for lrec, grec in zip(legacy_ref.records, gen_ref.records):
            assert lrec.batched_s == grec.prefill_batched_s
            assert lrec.service_start_s == grec.prefill_start_s
            assert lrec.finish_s == grec.first_token_s == grec.finish_s
            assert lrec.device_id == grec.prefill_device_id
            assert lrec.batch_size == grec.prefill_batch_size
            assert grec.decode_slots == 0
        assert legacy_ref.device_busy_s == gen_ref.device_busy_s
        assert legacy_ref.device_energy_pj == gen_ref.device_energy_pj
        assert legacy_ref.batches == gen_ref.batches
        assert gen_ref.decode_batches == 0

        legacy_fast = simulate_table(table, cost_model, num_devices=2)
        gen_fast = simulate_decode_table(table, cost_model, num_devices=2)
        assert np.array_equal(legacy_fast.finish_s, gen_fast.finish_s)
        assert np.array_equal(
            legacy_fast.batched_s, gen_fast.batched_s
        )
        assert np.array_equal(
            legacy_fast.service_start_s, gen_fast.service_start_s
        )
        assert np.array_equal(
            legacy_fast.device_id, gen_fast.device_id
        )
        assert legacy_fast.device_busy_s == gen_fast.device_busy_s

    def test_zero_padding_model_caps_output_at_one(self):
        # ViT-B has no padding headroom: valid_len == seq_len, so the
        # geometric draw clips every output to a single token.
        table = generate_request_table(
            PoissonProcess(60.0), "ViT-B", count=100, seed=0,
            mean_output_tokens=32.0,
        )
        assert table.output_len is not None
        assert np.all(table.output_len == 1)


#: Outage edges of the sliced-table property: a 0.5 ms grid over the
#: first 40 ms, where the drawn cases run.
SLICE_OUTAGE_GRID_S = 5e-4


@st.composite
def sliced_decode_cases(draw):
    """A decode case, its fleet, and either no fault schedule or a
    drawn one with its retry policy."""
    table = draw(decode_cases())
    num_devices = draw(st.integers(1, 3))
    if not draw(st.booleans()):
        return table, num_devices, None, None
    intervals = []
    for _ in range(num_devices):
        slots = draw(st.lists(st.integers(0, 80), unique=True, max_size=6))
        times = [SLICE_OUTAGE_GRID_S * e for e in sorted(slots)] + [np.inf]
        intervals.append([(times[k], times[k + 1]) for k in range(0, len(slots), 2)])
    retry = RetryPolicy(
        max_attempts=draw(st.integers(1, 3)),
        backoff_base_s=draw(st.sampled_from((0.0, 1e-3))),
    )
    return table, num_devices, FaultSchedule.from_intervals(intervals), retry


class TestSlicedDecodeTable:
    """The table driver feeds the decode core row slices too: shrunk to
    1, 7 and 64 rows, a drawn generative table equals the reference
    loop and the stream driver, fault-free and under a schedule."""

    @given(
        case=sliced_decode_cases(),
        slice_rows=st.sampled_from((1, 7, 64)),
        chunk_size=st.integers(1, 8),
        max_batch_size=st.integers(1, 8),
        max_wait_s=st.sampled_from((0.0, 2e-3)),
    )
    @settings(max_examples=150, deadline=None)
    def test_sliced_decode_table_equals_reference_and_stream(
        self, cost_model, case, slice_rows, chunk_size, max_batch_size,
        max_wait_s,
    ):
        table, num_devices, faults, retry = case
        knobs = dict(
            num_devices=num_devices,
            max_batch_size=max_batch_size,
            max_wait_s=max_wait_s,
            faults=faults,
            retry=retry,
        )
        config = TraceConfig(head=0, stride=1)  # every request
        fast_trace, reference_trace = TraceRecorder(config), TraceRecorder(config)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(engine, "_SLICE_ROWS", slice_rows)
            fast = simulate_table(table, cost_model, recorder=fast_trace, **knobs)
        reference = GenerativeServingSimulator(
            [SprintDevice(i, cost_model) for i in range(num_devices)],
            ContinuousBatcher(max_batch_size, max_wait_s),
            reference_trace,
            faults=faults,
            retry=retry,
        ).run(table.to_requests())
        assert fast.to_result() == reference
        assert fast_trace.to_chrome_trace() == reference_trace.to_chrome_trace()

        chunks = [
            table.slice(lo, min(lo + chunk_size, len(table)))
            for lo in range(0, len(table), chunk_size)
        ]
        collected = []
        streamed = simulate_stream(
            chunks, cost_model, sink=collected.append, **knobs
        )
        for field in dataclasses.fields(streamed):
            name = field.name
            assert getattr(streamed, name) == getattr(fast, name), name
        names = [
            "request_id", "batched_s", "service_start_s", "first_token_s",
            "finish_s", "batch_size", "device_id", "decode_slots",
        ]
        done = slice(None)
        if faults is not None:
            names.append("attempts")
            done = fast.drop_reason == 0
        for name in names:
            col = np.concatenate(
                [getattr(c, name) for c in collected] or [np.empty(0)]
            )
            ids = np.concatenate(
                [c.request_id for c in collected] or [np.empty(0)]
            )
            # The drawn ids rise with arrival: id order is row order.
            order = np.argsort(ids, kind="stable")
            assert np.array_equal(col[order], getattr(fast, name)[done]), name


class TestChunkedDecodeStream:
    @pytest.mark.parametrize("chunk_size", (1, 7, 64, 1000))
    def test_stream_equals_whole_table(self, cost_model, chunk_size):
        stream = RequestStream(
            process=PoissonProcess(130.0),
            mix=MIX,
            count=300,
            seed=5,
            chunk_size=chunk_size,
            mean_output_tokens=10.0,
        )
        whole = simulate_decode_table(
            stream.materialize(), cost_model, num_devices=2
        )
        got = {}

        def sink(c):
            for name in (
                "request_id", "arrival_s", "spec_idx", "valid_len",
                "output_len", "batched_s", "service_start_s",
                "first_token_s", "finish_s", "batch_size",
                "device_id", "decode_slots",
            ):
                got.setdefault(name, []).append(getattr(c, name))

        res = simulate_stream(
            stream.chunks(), cost_model, num_devices=2, sink=sink
        )
        cols = {k: np.concatenate(v) for k, v in got.items()}
        order = np.argsort(cols["request_id"], kind="stable")
        worder = np.argsort(whole.request_id, kind="stable")
        for name, col in cols.items():
            assert np.array_equal(
                col[order], getattr(whole, name)[worder]
            ), name
        for field in (
            "completed", "start_s", "end_s", "device_busy_s",
            "device_energy_pj", "batches", "prefill_batches",
            "decode_batches", "size_triggered_batches",
            "timeout_triggered_batches", "total_tokens",
        ):
            assert getattr(res, field) == getattr(whole, field), field

    def test_out_of_order_chunks_rejected(self, cost_model):
        table = generate_request_table(
            PoissonProcess(60.0), "BERT-B", count=40, seed=0,
            mean_output_tokens=4.0,
        )
        half = len(table) // 2
        with pytest.raises(ValueError, match="ordered"):
            simulate_decode_stream(
                [table.slice(half, len(table)), table.slice(0, half)],
                cost_model,
            )

    def test_empty_stream_rejected(self, cost_model):
        with pytest.raises(ValueError, match="empty"):
            simulate_decode_stream([], cost_model)


class TestPerTokenMetrics:
    def test_lifecycle_invariants(self, cost_model):
        table = generate_request_table(
            PoissonProcess(100.0), MIX, count=200, seed=1,
            mean_output_tokens=12.0,
        )
        res = simulate_decode_table(table, cost_model, num_devices=2)
        # Lifecycle ordering: arrival <= sealed <= started < first
        # token <= finish, per request.
        assert np.all(res.batched_s >= res.arrival_s)
        assert np.all(res.service_start_s >= res.batched_s)
        assert np.all(res.first_token_s > res.service_start_s)
        assert np.all(res.finish_s >= res.first_token_s)
        assert np.all(res.ttft_s > 0)
        assert np.all(res.latency_s >= res.ttft_s)
        # Single-token requests finish at their first token and have
        # no decode gaps; multi-token requests decode strictly after.
        single = res.output_len == 1
        assert np.array_equal(
            res.finish_s[single], res.first_token_s[single]
        )
        assert np.all(np.isnan(res.tbt_s[single]))
        multi = ~single
        assert np.all(res.finish_s[multi] > res.first_token_s[multi])
        assert np.all(res.tbt_s[multi] > 0)
        assert np.all(res.decode_slots[single] == 0)
        # Each decode step contributes >= 1 slot (its own occupancy).
        assert np.all(
            res.decode_slots[multi] >= res.output_len[multi] - 1
        )
        assert res.total_tokens == int(res.output_len.sum())

    def test_summarize_generative_fields(self, cost_model):
        table = generate_request_table(
            PoissonProcess(100.0), "BERT-B", count=150, seed=2,
            mean_output_tokens=8.0,
        )
        res = simulate_decode_table(table, cost_model, num_devices=2)
        report = summarize(res, "S", "sprint", "poisson", 100.0)
        ref_report = summarize(
            GenerativeServingSimulator(
                [SprintDevice(i, cost_model) for i in range(2)],
                ContinuousBatcher(),
            ).run(table.to_requests()),
            "S", "sprint", "poisson", 100.0,
        )
        assert report == ref_report  # both paths, one report
        assert report.generative
        assert report.total_tokens == res.total_tokens
        assert report.tokens_per_s > report.throughput_rps
        assert report.ttft.p99_s <= report.latency.p99_s
        assert "TTFT" in report.describe()
        # Prefill-only reports keep the legacy shape untouched.
        legacy = summarize(
            simulate_table(
                generate_request_table(
                    PoissonProcess(100.0), "BERT-B", count=100, seed=2
                ),
                cost_model,
            ),
            "S", "sprint", "poisson", 100.0,
        )
        assert not legacy.generative
        assert legacy.ttft is None and legacy.total_tokens == 0

    def test_summarize_stream_sketch_bounds(self, cost_model):
        stream = RequestStream(
            process=PoissonProcess(110.0),
            mix=MIX,
            count=400,
            seed=9,
            chunk_size=64,
            mean_output_tokens=8.0,
        )
        res = simulate_decode_table(
            stream.materialize(), cost_model, num_devices=2
        )
        exact = summarize(res, "S", "sprint", "poisson", 110.0, sla_s=0.5)
        sketched = summarize_stream(
            stream, cost_model, "S", "sprint", "poisson", 110.0,
            sla_s=0.5, num_devices=2,
        )
        # Exact aggregates are identical (same underlying run).
        assert sketched.requests == exact.requests
        assert sketched.duration_s == exact.duration_s
        assert sketched.energy_uj == exact.energy_uj
        assert sketched.total_tokens == exact.total_tokens
        assert sketched.sla_violations == exact.sla_violations
        assert sketched.mean_batch_size == exact.mean_batch_size
        # Percentiles within the sketch's documented bound of the
        # exact order statistic (same contract test_obs.py pins).
        from repro.obs.streaming import StreamingHistogram

        sk = StreamingHistogram()
        columns = {
            "latency": res.latency_s,
            "queue_wait": res.queue_wait_s,
            "ttft": res.ttft_s,
            "tbt": res.tbt_s[np.isfinite(res.tbt_s)],
        }
        for pop, col in columns.items():
            for q, attr in ((50, "p50_s"), (95, "p95_s"), (99, "p99_s")):
                order_stat = float(np.percentile(col, q, method="higher"))
                got = getattr(getattr(sketched, pop), attr)
                tol = max(sk.rel_error_bound * order_stat, sk.min_value)
                assert abs(got - order_stat) <= tol, (pop, q)
            assert getattr(sketched, pop).max_s == float(col.max())
            assert getattr(sketched, pop).mean_s == pytest.approx(
                float(col.mean()), rel=1e-12
            )


class TestValidation:
    def test_output_len_bounds(self):
        spec = generate_request_table(
            PoissonProcess(60.0), "BERT-B", count=1, seed=0
        ).specs[0]
        with pytest.raises(ValueError, match="output_len"):
            Request(
                request_id=0, arrival_s=0.0, spec=spec,
                valid_len=100, output_len=0,
            )
        with pytest.raises(ValueError, match="seq_len"):
            Request(
                request_id=0, arrival_s=0.0, spec=spec,
                valid_len=spec.seq_len, output_len=2,
            )

    def test_mean_output_tokens_below_one_rejected(self):
        with pytest.raises(ValueError, match="mean_output_tokens"):
            generate_request_table(
                PoissonProcess(60.0), "BERT-B", count=10, seed=0,
                mean_output_tokens=0.5,
            )

    def test_generative_table_routes_to_decode_shard(self, cost_model):
        """simulate_table hands a generative table to the decode engine:
        record for record the simulate_decode_table run."""
        table = generate_request_table(
            PoissonProcess(60.0), {"BERT-B": 0.5, "ViT-B": 0.5},
            count=40, seed=0, mean_output_tokens=4.0,
        )
        decode = simulate_decode_table(table, cost_model, num_devices=2)
        routed = simulate_table(table, cost_model, num_devices=2)
        assert np.array_equal(decode.finish_s, routed.finish_s)
        assert np.array_equal(decode.first_token_s, routed.first_token_s)
        assert decode.to_result().records == routed.to_result().records

    def test_prefill_only_table_rejects_decode_shard(self, cost_model):
        """simulate_decode_table runs a prefill-only table as one-token
        requests: equal to the prefill core, and a prefill result."""
        table = generate_request_table(
            PoissonProcess(60.0), {"BERT-B": 0.5, "ViT-B": 0.5},
            count=60, seed=0,
        )
        decode = simulate_decode_table(table, cost_model, num_devices=2)
        batch = simulate_table(table, cost_model, num_devices=2)
        result = decode.to_result()
        assert isinstance(result, ServingResult)
        assert result.records == batch.to_result().records
        assert decode.device_busy_s == batch.device_busy_s
        assert decode.device_energy_pj == batch.device_energy_pj
        assert decode.batches == batch.batches

    def test_sample_output_lens_chunk_split_bitwise(self):
        rng = np.random.default_rng(0)
        u = rng.uniform(size=1000)
        cap = np.full(1000, 50, dtype=np.int64)
        whole = sample_output_lens(u, 12.0, cap)
        parts = np.concatenate(
            [
                sample_output_lens(u[i : i + 137], 12.0, cap[i : i + 137])
                for i in range(0, 1000, 137)
            ]
        )
        assert np.array_equal(whole, parts)
        assert whole.min() >= 1 and whole.max() <= 50
        # Degenerate mean: every draw is exactly one token.
        assert np.all(sample_output_lens(u, 1.0, cap) == 1)


#: SHA-256 of (id, repr(arrival), model, valid_len, output_len) streams:
#: the 4-phase generative draw order, pinned.  Any drift in arrivals,
#: picks, jitter, or the geometric output draw breaks these.
GOLDEN_GENERATIVE_STREAMS = {
    "gen_poisson_s0": "bfddd81d1643ec296e99a192937ce52f6919a3a437e511c471eb1a4609626a3d",
    "gen_bursty_s1": "28ffadda8968c938f2046129bb76811698b8ce31778602d5132e84fc3a5661c0",
    "gen_mix_s7": "128bf175f39f479c2a3265820bf34ef6ad00448ac9da1baa09b3b0aa2787c06b",
}

GOLDEN_GENERATIVE_CASES = {
    "gen_poisson_s0": (
        lambda: PoissonProcess(90.0), MIX, 300, 0, 8.0
    ),
    "gen_bursty_s1": (
        lambda: BurstyProcess(40.0, 150.0, 0.5, 0.1), "BERT-B", 250, 1,
        16.0,
    ),
    "gen_mix_s7": (
        lambda: PoissonProcess(60.0),
        {"BERT-B": 0.5, "ViT-B": 0.3, "GPT-2-L": 0.2},
        400,
        7,
        4.0,
    ),
}

#: SHA-256 over the decode engine's outcome columns on the golden
#: generative streams at 2 devices -- pins the engine's semantics end
#: to end (and, via the equivalence suite, the reference loop's).
#: gen_poisson_s0 predates the macro-stepping core (PR 8) and must
#: never move; the other two pin the macro-step paths (bursty traffic
#: drains isolated full-batch runs, the 3-model mix exercises
#: per-queue cost vectors + pending-queue bounds).
GOLDEN_DECODE_RUNS = {
    "gen_poisson_s0": (
        "0df86488c8717077cc4d001df86148e13cba81bf5f7ee9b64496add1befa9b41"
    ),
    "gen_bursty_s1": (
        "8668492ec76b52c9722aa24565ba57ebf15233ed3d60a0c5c48d2a1de7f69000"
    ),
    "gen_mix_s7": (
        "57c27e345b085f0df5cbb9ea077de62e7e2834c86cc22dee614393b40ca246d6"
    ),
}
GOLDEN_DECODE_RUN = GOLDEN_DECODE_RUNS["gen_poisson_s0"]


class TestGoldenDecodeStreams:
    @pytest.mark.parametrize("name", sorted(GOLDEN_GENERATIVE_STREAMS))
    def test_generative_stream_hash_pinned(self, name):
        process, mix, count, seed, mean_out = GOLDEN_GENERATIVE_CASES[name]
        digest = hashlib.sha256()
        for r in generate_requests(
            process(), mix, count=count, seed=seed,
            mean_output_tokens=mean_out,
        ):
            digest.update(
                f"{r.request_id}:{r.arrival_s!r}:{r.spec.name}:"
                f"{r.valid_len}:{r.output_len};".encode()
            )
        assert digest.hexdigest() == GOLDEN_GENERATIVE_STREAMS[name]

    def test_chunked_stream_matches_whole_table(self):
        process, mix, count, seed, mean_out = GOLDEN_GENERATIVE_CASES[
            "gen_poisson_s0"
        ]
        whole = generate_request_table(
            process(), mix, count=count, seed=seed,
            mean_output_tokens=mean_out,
        )
        for chunk_size in (1, 37, 512):
            stream = RequestStream(
                process=process(), mix=mix, count=count, seed=seed,
                chunk_size=chunk_size, mean_output_tokens=mean_out,
            )
            got = stream.materialize()
            for col in (
                "request_id", "arrival_s", "spec_idx", "valid_len",
                "output_len",
            ):
                assert np.array_equal(
                    getattr(got, col), getattr(whole, col)
                ), (chunk_size, col)

    @pytest.mark.parametrize("name", sorted(GOLDEN_DECODE_RUNS))
    def test_decode_run_hash_pinned(self, name, cost_model):
        process, mix, count, seed, mean_out = GOLDEN_GENERATIVE_CASES[name]
        table = generate_request_table(
            process(), mix, count=count, seed=seed,
            mean_output_tokens=mean_out,
        )
        res = simulate_decode_table(table, cost_model, num_devices=2)
        digest = hashlib.sha256()
        for col in (
            "batched_s", "service_start_s", "first_token_s",
            "finish_s", "batch_size", "device_id",
            "decode_slots",
        ):
            digest.update(getattr(res, col).tobytes())
        assert digest.hexdigest() == GOLDEN_DECODE_RUNS[name]


# ----------------------------------------------------------------------
# Decode input independence: row order and cost-model warmth move no bit
# ----------------------------------------------------------------------
class TestDecodeParallelEquivalence:
    """Mirrors the prefill checks in tests/test_serving_stream.py: the
    event loop builds each queue's cost vectors lazily, extending them
    as contexts grow, and neither the row order of its input nor a cold
    cost model (which prices its buckets mid-run) may move a bit of its
    output.  The test names are those of the thread- and
    process-parallel vector build these checks replaced."""

    COLS = (
        "batched_s", "service_start_s", "first_token_s",
        "finish_s", "batch_size", "device_id",
        "decode_slots",
    )

    @pytest.mark.parametrize("num_devices", (1, 2, 4))
    def test_threaded_simulate_decode_table(self, num_devices, cost_model):
        table = generate_request_table(
            make_process("bursty"),
            {"BERT-B": 0.5, "ViT-B": 0.3, "GPT-2-L": 0.2},
            count=600,
            seed=8,
            mean_output_tokens=12.0,
        )
        base = simulate_decode_table(table, cost_model, num_devices=num_devices)
        out = simulate_decode_table(
            permute_rows(table, seed=num_devices),
            cost_model,
            num_devices=num_devices,
        )
        for col in ("request_id", "arrival_s", "output_len") + self.COLS:
            assert np.array_equal(
                getattr(out, col), getattr(base, col)
            ), col
        assert out.device_busy_s == base.device_busy_s
        assert out.device_energy_pj == base.device_energy_pj
        assert out.batches == base.batches

    @pytest.mark.parametrize("num_devices", (1, 2, 4))
    def test_threaded_simulate_decode_stream(self, num_devices, cost_model):
        stream = RequestStream(
            process=PoissonProcess(130.0),
            mix=MIX,
            count=400,
            seed=9,
            chunk_size=64,
            mean_output_tokens=6.0,
        )
        chunks = list(stream.chunks())
        shuffled = [permute_rows(c, seed=i) for i, c in enumerate(chunks)]
        flushes = {}
        totals = {}
        for name, feed in (("sorted", chunks), ("shuffled", shuffled)):
            collected = []
            totals[name] = simulate_decode_stream(
                feed, cost_model, num_devices=num_devices, sink=collected.append
            )
            flushes[name] = collected
        assert len(flushes["shuffled"]) == len(flushes["sorted"])
        for got, want in zip(flushes["shuffled"], flushes["sorted"]):
            for col in ("request_id", "arrival_s", "output_len") + self.COLS:
                assert np.array_equal(
                    getattr(got, col), getattr(want, col)
                ), col
        assert totals["shuffled"] == totals["sorted"]
        base = simulate_decode_table(
            stream.materialize(), cost_model, num_devices=num_devices
        )
        got = np.concatenate([c.finish_s for c in flushes["shuffled"]])
        assert np.array_equal(np.sort(got), np.sort(base.finish_s))
        assert totals["shuffled"].device_busy_s == base.device_busy_s
        assert totals["shuffled"].total_tokens == base.total_tokens

    @pytest.mark.parametrize("num_devices", (1, 2, 4))
    def test_sharded_simulate_decode_table(self, num_devices, cost_model):
        table = generate_request_table(
            make_process("trace"),
            {"BERT-B": 0.5, "ViT-B": 0.3, "GPT-2-L": 0.2},
            count=500,
            seed=5,
            mean_output_tokens=9.0,
        )
        warm = simulate_decode_table(table, cost_model, num_devices=num_devices)
        cold = ServiceCostModel(cost_model.config, cost_model.mode)
        out = simulate_decode_table(table, cold, num_devices=num_devices)
        for col in self.COLS:
            assert np.array_equal(
                getattr(out, col), getattr(warm, col)
            ), col
        assert out.device_busy_s == warm.device_busy_s
        assert out.device_energy_pj == warm.device_energy_pj
        assert out.batches == warm.batches
        assert out.to_result().records == warm.to_result().records


# ----------------------------------------------------------------------
# decode-phase tracing: spans from both engines, bitwise-neutral
# ----------------------------------------------------------------------
class TestDecodeTracing:
    def _table(self):
        return generate_request_table(
            PoissonProcess(90.0), MIX, count=120, seed=3,
            mean_output_tokens=8.0,
        )

    def test_tracing_does_not_change_results(self, cost_model):
        from repro.obs.trace import TraceConfig, TraceRecorder

        table = self._table()
        recorder = TraceRecorder(TraceConfig(head=60))
        traced = simulate_decode_table(
            table, cost_model, num_devices=2, recorder=recorder
        )
        plain = simulate_decode_table(table, cost_model, num_devices=2)
        assert np.array_equal(traced.finish_s, plain.finish_s)
        assert np.array_equal(traced.first_token_s, plain.first_token_s)
        assert traced.device_busy_s == plain.device_busy_s
        assert recorder.sampled_requests == 60
        assert recorder.sampled_decode_phases > 0

    def test_traces_byte_identical_across_engines(self, cost_model, tmp_path):
        from repro.obs.trace import TraceConfig, TraceRecorder

        table = self._table()
        fast = TraceRecorder(TraceConfig(head=48, stride=13))
        simulate_decode_table(
            table, cost_model, num_devices=2, recorder=fast
        )
        reference = TraceRecorder(TraceConfig(head=48, stride=13))
        GenerativeServingSimulator(
            [SprintDevice(i, cost_model) for i in range(2)],
            ContinuousBatcher(8, 2e-3),
            recorder=reference,
        ).run(table.to_requests())
        fast_path = fast.write(tmp_path / "fast.json")
        reference_path = reference.write(tmp_path / "reference.json")
        assert fast_path.read_bytes() == reference_path.read_bytes()

    def test_decode_spans_cover_the_decode_phase(self, cost_model):
        import json

        from repro.obs.trace import TraceConfig, TraceRecorder

        table = self._table()
        recorder = TraceRecorder(TraceConfig(head=0, stride=1))
        out = simulate_decode_table(
            table, cost_model, num_devices=2, recorder=recorder
        )
        payload = json.loads(
            json.dumps(recorder.to_chrome_trace())
        )  # round-trip: the export must be JSON-clean
        decode = {
            e["tid"]: e
            for e in payload["traceEvents"]
            if e["ph"] == "X" and e["name"] == "decode"
        }
        generative = out.output_len > 1
        assert len(decode) == int(generative.sum())
        for i in np.flatnonzero(generative):
            span = decode[int(out.request_id[i])]
            assert span["ts"] == float(out.first_token_s[i]) * 1e6
            assert span["dur"] == pytest.approx(
                (out.finish_s[i] - out.first_token_s[i]) * 1e6
            )
            assert span["args"]["tokens"] == int(out.output_len[i]) - 1
        # Prefill-only rows contribute no decode span.
        assert not set(decode) & set(
            out.request_id[~generative].tolist()
        )
