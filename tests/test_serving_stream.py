"""Out-of-core serving equivalence suite.

The chunked path's contract is the same *exact* equality the fast
engine pins against the reference loop, extended to streaming:

* :class:`RequestStream` chunks concatenate bitwise equal to one
  whole-stream ``generate_request_table`` call, at every chunk size;
* :func:`simulate_stream` reproduces :func:`simulate_table` bitwise --
  every per-request column, device fold, and batch counter -- at every
  chunk size, device count, and wait bound, including chunk boundaries
  that split an unsealed batch;
* both drivers are independent of how their input arrives: row order
  inside a table or a chunk, and a cold cost model against a warm one,
  move no bit;
* :func:`simulate_table` feeds the same chunked core row slices of its
  table: at slices of 1, 7 and 64 rows it equals the reference loop and
  the stream driver bitwise, and it holds about one slice beyond its
  result, with or without a fault schedule, and leaves no cyclic
  garbage; an ordered table's result shares the table's request
  columns read-only, and a shuffled table's result is bitwise the same;
* one validator checks every stream's chunks, so each defect reads the
  same for every traffic shape and driver; under a schedule its check
  of ids across chunks agrees with a set of every id seen, on
  interleaved ids, while holding O(id runs) memory;
* :func:`summarize_stream` matches the exact whole-table ``summarize``
  on every exact field, and within the sketch's documented relative
  error bound on percentiles.
"""

import dataclasses
import gc
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.configs import S_SPRINT
from repro.core.system import ExecutionMode
from repro.experiments.decode import DecodeExperiment
from repro.experiments.serving import ServingExperiment
from repro.models.zoo import get_model
from repro.obs.streaming import StreamingHistogram
from repro.obs.trace import TraceConfig, TraceRecorder
from repro.serving import (
    BurstyProcess,
    DynamicBatcher,
    FaultSchedule,
    PoissonProcess,
    RequestStream,
    RequestTable,
    ServiceCostModel,
    ServingSimulator,
    SprintDevice,
    TraceProcess,
    generate_request_table,
    shared_cost_model,
    simulate_decode_stream,
    simulate_stream,
    simulate_table,
    summarize,
    summarize_stream,
)
from repro.serving import engine

PATTERNS = ("poisson", "bursty", "trace")
CHUNK_SIZES = (1, 7, 1000, 10_000)
MIX = {"BERT-B": 2.0, "BERT-L": 1.0, "ViT-B": 1.0, "ALBERT-XL": 0.5}


def make_process(pattern):
    return {
        "poisson": PoissonProcess(rate_rps=120.0),
        "bursty": BurstyProcess(40.0, 150.0, 0.5, 0.1),
        "trace": TraceProcess([0.01, 0.002, 0.005]),
    }[pattern]


@pytest.fixture(scope="module")
def cost_model():
    return shared_cost_model(S_SPRINT, ExecutionMode.SPRINT)


def table_chunks(table, size):
    """Slice a (sorted) table into consecutive chunks of ``size`` rows."""
    return [
        table.slice(lo, min(lo + size, len(table)))
        for lo in range(0, len(table), size)
    ]


def assert_tables_equal(a, b):
    assert [s.name for s in a.specs] == [s.name for s in b.specs]
    assert np.array_equal(a.request_id, b.request_id)
    assert np.array_equal(a.arrival_s, b.arrival_s)
    assert np.array_equal(a.spec_idx, b.spec_idx)
    assert np.array_equal(a.valid_len, b.valid_len)


#: A table's request columns; the last two are optional.
REQUEST_COLUMNS = (
    "request_id",
    "arrival_s",
    "spec_idx",
    "valid_len",
    "output_len",
    "deadline_s",
)


def permute_rows(table, seed):
    """The same requests as ``table``, rows in a seeded random order."""
    perm = np.random.default_rng(seed).permutation(len(table))
    columns = {name: getattr(table, name) for name in REQUEST_COLUMNS}
    return RequestTable(
        specs=table.specs,
        **{name: None if col is None else col[perm] for name, col in columns.items()},
    )


def run_stream(chunks, cost, **kwargs):
    """simulate_stream with a collecting sink -> (result, sorted columns)."""
    collected = []
    result = simulate_stream(chunks, cost, sink=collected.append, **kwargs)
    cols = {
        name: np.concatenate([getattr(c, name) for c in collected])
        for name in (
            "request_id",
            "arrival_s",
            "spec_idx",
            "valid_len",
            "batched_s",
            "service_start_s",
            "finish_s",
            "batch_size",
            "device_id",
        )
    }
    order = np.lexsort((cols["request_id"], cols["arrival_s"]))
    return result, {name: col[order] for name, col in cols.items()}


def assert_stream_matches_table(chunks, table, cost, **kwargs):
    whole = simulate_table(table, cost, **kwargs)
    result, cols = run_stream(chunks, cost, **kwargs)
    assert result.completed == whole.completed
    assert np.array_equal(cols["request_id"], whole.request_id)
    assert np.array_equal(cols["arrival_s"], whole.arrival_s)
    assert np.array_equal(cols["spec_idx"], whole.spec_idx)
    assert np.array_equal(cols["valid_len"], whole.valid_len)
    assert np.array_equal(cols["batched_s"], whole.batched_s)
    assert np.array_equal(cols["service_start_s"], whole.service_start_s)
    assert np.array_equal(cols["finish_s"], whole.finish_s)
    assert np.array_equal(cols["batch_size"], whole.batch_size)
    assert np.array_equal(cols["device_id"], whole.device_id)
    assert result.start_s == whole.start_s
    assert result.end_s == whole.end_s
    assert result.device_busy_s == whole.device_busy_s
    assert result.device_energy_pj == whole.device_energy_pj
    assert result.batches == whole.batches
    assert result.size_triggered_batches == whole.size_triggered_batches
    assert result.timeout_triggered_batches == whole.timeout_triggered_batches


# ----------------------------------------------------------------------
# RequestStream: chunked generation bitwise equals the whole-stream call
# ----------------------------------------------------------------------
class TestRequestStreamBitwise:
    @pytest.mark.parametrize("pattern", PATTERNS)
    @pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
    def test_chunks_concatenate_to_whole_table(self, pattern, chunk_size):
        process = make_process(pattern)
        whole = generate_request_table(process, MIX, count=3000, seed=11)
        stream = RequestStream(
            process, MIX, count=3000, seed=11, chunk_size=chunk_size
        )
        assert_tables_equal(stream.materialize(), whole)

    @pytest.mark.parametrize("seed", (0, 3, 9))
    @pytest.mark.parametrize(
        "mix", ("BERT-B", {"GPT-2-L": 1.0, "Synth-1": 3.0})
    )
    def test_mixes_and_seeds(self, seed, mix):
        process = PoissonProcess(rate_rps=250.0)
        whole = generate_request_table(process, mix, count=777, seed=seed)
        stream = RequestStream(
            process, mix, count=777, seed=seed, chunk_size=100
        )
        assert_tables_equal(stream.materialize(), whole)

    def test_start_id_offset(self):
        stream = RequestStream(
            PoissonProcess(50.0), "BERT-B", count=10, start_id=400
        )
        table = stream.materialize()
        assert np.array_equal(
            table.request_id, 400 + np.arange(10, dtype=np.int64)
        )

    def test_reiterable(self):
        stream = RequestStream(
            BurstyProcess(40.0, 150.0, 0.5, 0.1),
            MIX,
            count=500,
            seed=2,
            chunk_size=64,
        )
        assert_tables_equal(stream.materialize(), stream.materialize())

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            RequestStream(PoissonProcess(50.0), "BERT-B", count=0)
        with pytest.raises(ValueError):
            RequestStream(
                PoissonProcess(50.0), "BERT-B", count=5, chunk_size=0
            )


# ----------------------------------------------------------------------
# simulate_stream: bitwise equal to simulate_table at every chunking
# ----------------------------------------------------------------------
class TestStreamDriverBitwise:
    @pytest.mark.parametrize("pattern", PATTERNS)
    @pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
    def test_chunk_sizes_and_patterns(self, pattern, chunk_size, cost_model):
        table = generate_request_table(
            make_process(pattern), MIX, count=1500, seed=4
        )
        assert_stream_matches_table(
            table_chunks(table, chunk_size), table, cost_model
        )

    @pytest.mark.parametrize("num_devices", (1, 2, 4))
    @pytest.mark.parametrize("max_wait_s", (0.0, 2e-3))
    def test_devices_and_waits(self, num_devices, max_wait_s, cost_model):
        # chunk_size=7 guarantees many boundaries land mid-batch: an
        # unsealed tail (and, with max_wait > 0, a not-yet-expired
        # timeout batch) must carry across the boundary unchanged.
        table = generate_request_table(
            make_process("bursty"), MIX, count=900, seed=6
        )
        assert_stream_matches_table(
            table_chunks(table, 7),
            table,
            cost_model,
            num_devices=num_devices,
            max_wait_s=max_wait_s,
        )

    def test_request_stream_end_to_end(self, cost_model):
        # The generator path (never materialized by the driver) equals
        # the whole-table run on the materialized equivalent.
        stream = RequestStream(
            PoissonProcess(200.0), MIX, count=2000, seed=13, chunk_size=333
        )
        assert_stream_matches_table(
            stream, stream.materialize(), cost_model, num_devices=2
        )

    def test_rejects_out_of_order_chunks(self, cost_model):
        table = generate_request_table(
            PoissonProcess(100.0), "BERT-B", count=100, seed=0
        )
        chunks = table_chunks(table, 50)
        with pytest.raises(ValueError):
            simulate_stream([chunks[1], chunks[0]], cost_model)

    def test_rejects_spec_mismatch(self, cost_model):
        a = generate_request_table(
            PoissonProcess(100.0), "BERT-B", count=50, seed=0
        )
        b = generate_request_table(
            PoissonProcess(100.0), "BERT-L", count=50, seed=0
        )
        b = type(b)(
            specs=b.specs,
            request_id=b.request_id + 100,
            arrival_s=b.arrival_s + float(a.arrival_s[-1]) + 1.0,
            spec_idx=b.spec_idx,
            valid_len=b.valid_len,
        )
        with pytest.raises(ValueError):
            simulate_stream([a, b], cost_model)

    def test_rejects_empty_stream(self, cost_model):
        with pytest.raises(ValueError):
            simulate_stream([], cost_model)

    @pytest.mark.parametrize("generative_first", (False, True))
    @pytest.mark.parametrize("faulted", (False, True))
    def test_rejects_mixed_chunk_shapes(self, generative_first, faulted, cost_model):
        # A table has an output_len column or not, so a stream mixing
        # the two has no whole-table run to equal: whichever driver the
        # first chunk picks must refuse the other shape.
        table = generate_request_table(
            PoissonProcess(100.0), "BERT-B", count=100, seed=0, mean_output_tokens=8.0
        )
        chunks = table_chunks(table, 50)
        stripped = 1 if generative_first else 0
        prefill = chunks[stripped]
        chunks[stripped] = RequestTable(
            specs=prefill.specs,
            request_id=prefill.request_id,
            arrival_s=prefill.arrival_s,
            spec_idx=prefill.spec_idx,
            valid_len=prefill.valid_len,
        )
        faults = FaultSchedule.none(1) if faulted else None
        with pytest.raises(ValueError, match="all carry an output_len column"):
            simulate_stream(chunks, cost_model, faults=faults)


# ----------------------------------------------------------------------
# One chunk check for every stream shape and driver
# ----------------------------------------------------------------------
#: Each defect's key phrase; its message is one for every shape.
CHUNK_DEFECTS = {
    "out_of_order": "ordered",
    "spec_mismatch": "spec list",
    "duplicate_in_chunk": "duplicate request id in chunk",
    "mixed_shapes": "all carry an output_len column",
    "empty": "empty",
    "duplicate_across_chunks": "duplicate request id across chunks",
}


def with_columns(chunk, **columns):
    """``chunk`` with some of its columns, or its specs, replaced."""
    fields = dict(
        specs=chunk.specs,
        request_id=chunk.request_id,
        arrival_s=chunk.arrival_s,
        spec_idx=chunk.spec_idx,
        valid_len=chunk.valid_len,
        output_len=chunk.output_len,
    )
    fields.update(columns)
    return RequestTable(**fields)


def bad_stream(defect, a, b):
    """Two consecutive chunks ``a``, ``b`` of one stream, with ``defect``."""
    if defect == "out_of_order":
        return [b, a]
    if defect == "spec_mismatch":
        return [a, with_columns(b, specs=[get_model("BERT-L")])]
    if defect == "mixed_shapes":
        output_len = np.ones(len(b), np.int64) if b.output_len is None else None
        return [a, with_columns(b, output_len=output_len)]
    if defect == "empty":
        none = np.empty(0, np.int64)
        empty = with_columns(
            a,
            request_id=none,
            arrival_s=np.empty(0),
            spec_idx=none,
            valid_len=none,
            output_len=None,
        )
        return [empty]
    ids = b.request_id.copy()
    ids[0] = ids[1] if defect == "duplicate_in_chunk" else a.request_id[0]
    return [a, with_columns(b, request_id=ids)]


class TestChunkValidation:
    """Every stream run checks its chunks in one place, so a defect
    reads the same whatever the traffic shape and the driver."""

    @pytest.fixture(scope="class")
    def tables(self):
        prefill = generate_request_table(
            PoissonProcess(100.0), "BERT-B", count=40, seed=0
        )
        generative = generate_request_table(
            PoissonProcess(100.0), "BERT-B", count=40, seed=0, mean_output_tokens=4.0
        )
        return prefill, generative

    @pytest.mark.parametrize("defect", sorted(CHUNK_DEFECTS))
    def test_one_message_per_defect(self, cost_model, tables, defect):
        prefill, generative = tables
        schedule = FaultSchedule.none(1)
        runs = {
            "prefill": (simulate_stream, prefill, None),
            "generative": (simulate_stream, generative, None),
            "prefill_under_faults": (simulate_stream, prefill, schedule),
            "decode_stream": (simulate_decode_stream, prefill, None),
        }
        messages = {}
        for shape, (driver, table, faults) in runs.items():
            if defect == "duplicate_across_chunks":
                # Ids across chunks are checked under a schedule only.
                faults = schedule
            chunks = bad_stream(defect, *table_chunks(table, 20))
            with pytest.raises(ValueError) as raised:
                driver(chunks, cost_model, faults=faults)
            messages[shape] = str(raised.value)
        assert len(set(messages.values())) == 1, messages
        assert CHUNK_DEFECTS[defect] in messages["prefill"]


@st.composite
def interleaved_ids(draw):
    """One stream's request ids, chunk by chunk: few distinct values, so
    ids interleave and repeat across chunks, near either int64 end."""
    offset = draw(st.sampled_from((0, -(2**63), 2**63 - 64)))
    chunk = st.lists(st.integers(0, 40), min_size=1, max_size=12)
    chunks = draw(st.lists(chunk, min_size=1, max_size=6))
    return [[offset + i for i in ids] for ids in chunks]


class TestIdRuns:
    """Under a fault schedule the validator rejects an id repeated
    across chunks, keeping the ids seen as runs of consecutive ids."""

    def test_cross_chunk_id_check_memory_bounded(self):
        # A generated stream is one run (1.0x the fault-free peak
        # here); a set of every id grew ~90 bytes a request (15x).
        def validator_peak(unique_ids):
            stream = RequestStream(
                PoissonProcess(2000.0), "BERT-B", count=200_000, seed=0,
                chunk_size=8192,
            )
            tracemalloc.start()
            try:
                for _ in engine._checked_chunks(stream, unique_ids):
                    pass
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        validator_peak(True)  # warm
        assert validator_peak(True) <= 1.5 * validator_peak(False)

    @given(ids=interleaved_ids())
    @example(ids=[[0, 2, 4], [1, 3, 5], [6, 8], [7]])
    @example(ids=[[0, 2], [1], [2]])
    @example(ids=[[5, 3], [4, 4]])
    @example(ids=[[2**63 - 1], [2**63 - 3, 2**63 - 2]])
    @example(ids=[[-(2**63) + 1], [-(2**63)], [-(2**63) + 1]])
    @settings(max_examples=200, deadline=None)
    def test_interleaved_ids_match_set_oracle(self, ids):
        # Ids interleave across chunks, so runs split, merge and
        # collide; each stream must fail at the chunk, and with the
        # message, a set of every id seen gives.
        spec = get_model("BERT-B")
        chunks, row = [], 0
        for chunk_ids in ids:
            n = len(chunk_ids)
            chunks.append(
                RequestTable(
                    specs=[spec],
                    request_id=np.array(chunk_ids, dtype=np.int64),
                    arrival_s=np.arange(row, row + n, dtype=np.float64),
                    spec_idx=np.zeros(n, np.int64),
                    valid_len=np.full(n, 8),
                )
            )
            row += n
        seen, expected, passed = set(), None, 0
        for chunk_ids in ids:
            if len(set(chunk_ids)) < len(chunk_ids):
                expected = "duplicate request id in chunk"
                break
            if seen & set(chunk_ids):
                expected = "duplicate request id across chunks"
                break
            seen.update(chunk_ids)
            passed += 1
        checked = engine._checked_chunks(chunks, unique_ids=True)
        yielded = 0
        try:
            for _ in checked:
                yielded += 1
        except ValueError as error:
            assert str(error) == expected
        else:
            assert expected is None
        assert yielded == passed


# ----------------------------------------------------------------------
# Input independence: row order and cost-model warmth move no bit
# ----------------------------------------------------------------------
class TestParallelEquivalence:
    """Phase 1 (per-queue batch formation and pricing) runs serially in
    the driver; what it must not depend on is how its input arrives.
    The test names are those of the thread- and process-parallel phase
    1 these checks replaced."""

    COLS = ("batched_s", "service_start_s", "finish_s", "batch_size", "device_id")

    @pytest.mark.parametrize("num_devices", (1, 2, 4))
    def test_threaded_simulate_table(self, num_devices, cost_model):
        table = generate_request_table(
            make_process("bursty"), MIX, count=2000, seed=8
        )
        base = simulate_table(table, cost_model, num_devices=num_devices)
        out = simulate_table(
            permute_rows(table, seed=num_devices), cost_model, num_devices=num_devices
        )
        assert_tables_equal(out, base)
        for col in self.COLS:
            assert np.array_equal(getattr(out, col), getattr(base, col)), col
        assert out.device_busy_s == base.device_busy_s
        assert out.device_energy_pj == base.device_energy_pj
        assert out.batches == base.batches
        assert out.size_triggered_batches == base.size_triggered_batches

    @pytest.mark.parametrize("num_devices", (1, 2, 4))
    def test_threaded_simulate_stream(self, num_devices, cost_model):
        table = generate_request_table(
            make_process("poisson"), MIX, count=1500, seed=8
        )
        chunks = table_chunks(table, 250)
        shuffled = [permute_rows(c, seed=i) for i, c in enumerate(chunks)]
        flushes = {}
        totals = {}
        for name, stream in (("sorted", chunks), ("shuffled", shuffled)):
            collected = []
            totals[name] = simulate_stream(
                stream, cost_model, num_devices=num_devices, sink=collected.append
            )
            flushes[name] = collected
        assert len(flushes["shuffled"]) == len(flushes["sorted"])
        for got, want in zip(flushes["shuffled"], flushes["sorted"]):
            for col in ("request_id", "arrival_s", "spec_idx", "valid_len") + self.COLS:
                assert np.array_equal(getattr(got, col), getattr(want, col)), col
        assert totals["shuffled"] == totals["sorted"]
        assert_stream_matches_table(
            shuffled, table, cost_model, num_devices=num_devices
        )

    @pytest.mark.parametrize("num_devices", (1, 2, 4))
    def test_sharded_simulate_table(self, num_devices, cost_model):
        table = generate_request_table(
            make_process("trace"), MIX, count=1200, seed=5
        )
        warm = simulate_table(table, cost_model, num_devices=num_devices)
        cold = ServiceCostModel(cost_model.config, cost_model.mode)
        out = simulate_table(table, cold, num_devices=num_devices)
        for col in self.COLS:
            assert np.array_equal(getattr(out, col), getattr(warm, col)), col
        assert out.device_busy_s == warm.device_busy_s
        assert out.device_energy_pj == warm.device_energy_pj
        assert out.batches == warm.batches


# ----------------------------------------------------------------------
# simulate_table runs its rows through the chunked core, one slice at a
# time: bitwise equal at any slice size, and bounded by one slice
# ----------------------------------------------------------------------
#: A power-of-two grid (~0.24 ms): grid arrivals tie exactly, and an
#: arrival pushed one wait bound later lands bit for bit on another
#: request's deadline.
SLICE_GRID_S = 2.0**-12
#: Two model names, BERT-B under two spec indices: both indices share
#: one queue.
SLICE_SPECS = ("BERT-B", "ViT-B", "BERT-B")


def grid_table(slots, hops, picks, lengths, ids, max_wait_s):
    """Requests on the grid, each hopped ``hop`` wait bounds later."""
    arrival = []
    for slot, hop in zip(slots, hops):
        at = slot * SLICE_GRID_S
        for _ in range(hop):
            at = at + max_wait_s
        arrival.append(at)
    return RequestTable(
        specs=[get_model(name) for name in SLICE_SPECS],
        request_id=np.array(ids, dtype=np.int64),
        arrival_s=np.array(arrival, dtype=np.float64),
        spec_idx=np.array(picks, dtype=np.int64),
        valid_len=np.array(lengths, dtype=np.int64),
    )


def sorted_rows(table):
    """``table`` with its rows in (arrival, id) order."""
    order = np.lexsort((table.request_id, table.arrival_s))
    return RequestTable(
        specs=table.specs,
        request_id=table.request_id[order],
        arrival_s=table.arrival_s[order],
        spec_idx=table.spec_idx[order],
        valid_len=table.valid_len[order],
    )


@st.composite
def tie_heavy_tables(draw):
    """Up to 150 requests, about four to a grid slot, ids shuffled."""
    n = draw(st.integers(1, 150))
    max_wait_s = draw(st.sampled_from((0.0, 2e-3)))

    def column(values):
        return st.lists(values, min_size=n, max_size=n)

    table = grid_table(
        draw(column(st.integers(0, n // 4 + 1))),
        draw(column(st.integers(0, 1))),
        draw(column(st.integers(0, len(SLICE_SPECS) - 1))),
        draw(column(st.sampled_from((16, 48, 64, 100)))),
        draw(st.permutations(range(n))),
        max_wait_s,
    )
    return table, max_wait_s


#: 30 requests in three tie groups of ten, so every 7-row slice boundary
#: cuts a group, and the third group lands on the first's deadlines.
STRADDLING_TIES = (
    grid_table(
        [0] * 10 + [3] * 10 + [0] * 10,
        [0] * 20 + [1] * 10,
        [0, 1, 2] * 10,
        [64, 16, 100] * 10,
        list(range(29, -1, -1)),
        2e-3,
    ),
    2e-3,
)


class TestSlicedTable:
    """The serving properties draw tables of one slice; this one shrinks
    the slice until every drawn table spans many."""

    @given(
        case=tie_heavy_tables(),
        slice_rows=st.sampled_from((1, 7, 64)),
        chunk_size=st.integers(1, 40),
        num_devices=st.integers(1, 4),
        max_batch_size=st.sampled_from((1, 3, 8)),
    )
    @example(
        case=STRADDLING_TIES,
        slice_rows=7,
        chunk_size=7,
        num_devices=2,
        max_batch_size=8,
    )
    @example(
        case=STRADDLING_TIES,
        slice_rows=1,
        chunk_size=10,
        num_devices=1,
        max_batch_size=1,
    )
    @settings(max_examples=150, deadline=None)
    def test_sliced_table_equals_reference_and_stream(
        self, cost_model, case, slice_rows, chunk_size, num_devices, max_batch_size
    ):
        table, max_wait_s = case
        knobs = dict(
            num_devices=num_devices,
            max_batch_size=max_batch_size,
            max_wait_s=max_wait_s,
        )
        config = TraceConfig(head=0, stride=1)  # every request
        fast_trace, reference_trace = TraceRecorder(config), TraceRecorder(config)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(engine, "_SLICE_ROWS", slice_rows)
            fast = simulate_table(table, cost_model, recorder=fast_trace, **knobs)
            assert_stream_matches_table(
                table_chunks(sorted_rows(table), chunk_size),
                table,
                cost_model,
                **knobs,
            )
        reference = ServingSimulator(
            [SprintDevice(i, cost_model) for i in range(num_devices)],
            DynamicBatcher(max_batch_size, max_wait_s),
            recorder=reference_trace,
        ).run(table.to_requests())
        assert fast.to_result() == reference
        assert fast_trace.to_chrome_trace() == reference_trace.to_chrome_trace()


#: Result columns of a prefill table; a run's transient is its
#: tracemalloc peak less their bytes.
RESULT_COLUMNS = (
    "request_id",
    "arrival_s",
    "spec_idx",
    "valid_len",
    "batched_s",
    "service_start_s",
    "finish_s",
    "batch_size",
    "device_id",
)
#: The fault columns a run under a schedule adds to its result.
FAULT_COLUMNS = ("attempts", "drop_reason", "dropped_s", "drop_order")
#: Bytes the whole-table engine the chunked core replaced held beyond
#: its result on ``memory_table(20_000)`` (tracemalloc, numpy 2.4).
WHOLE_TABLE_TRANSIENT_BYTES = 2_935_257


def memory_table(count):
    return generate_request_table(
        BurstyProcess(40.0, 400.0, 0.5, 0.1), MIX, count=count, seed=3
    )


def memory_faults(table):
    """Four chips failing every ~2 s for ~0.1 s over the table's span."""
    horizon_s = 2.0 * float(table.arrival_s.max())
    return FaultSchedule.exponential(
        4, mtbf_s=2.0, mttr_s=0.1, horizon_s=horizon_s, seed=1
    )


def transient_bytes(table, cost, faults=None):
    """Peak bytes of one simulate_table call beyond the result columns
    it allocated: a column sharing memory with the table (an ordered
    table's request columns) cost the run nothing."""
    simulate_table(table, cost, num_devices=4, faults=faults)  # warm the buckets
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = simulate_table(table, cost, num_devices=4, faults=faults)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    names = RESULT_COLUMNS + (FAULT_COLUMNS if result.faulted else ())
    given = [getattr(table, name) for name in REQUEST_COLUMNS]
    allocated = [
        col
        for col in (getattr(result, name) for name in names)
        if not any(np.shares_memory(col, own) for own in given if own is not None)
    ]
    return peak - sum(col.nbytes for col in allocated)


def assert_results_identical(a, b):
    """Every field of two columnar results bitwise equal."""
    for name in (field.name for field in dataclasses.fields(a)):
        x, y = getattr(a, name), getattr(b, name)
        if isinstance(x, np.ndarray):
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name
        else:
            assert x == y, name


class TestSlicedTableMemory:
    def test_transient_bounded_by_one_slice(self, cost_model, monkeypatch):
        # Three times the slices, about the same transient; the
        # whole-table engine's grew 2.8x here.
        monkeypatch.setattr(engine, "_SLICE_ROWS", 1024)
        few = transient_bytes(memory_table(4 * 1024), cost_model)
        many = transient_bytes(memory_table(12 * 1024), cost_model)
        assert many <= 1.3 * few, (few, many)

    def test_faulted_transient_bounded_by_one_slice(self, cost_model, monkeypatch):
        # The same under outages that lose batches in every slice; the
        # whole-table fault phases' transient grew 3.0x here.
        monkeypatch.setattr(engine, "_SLICE_ROWS", 1024)
        small, large = memory_table(4 * 1024), memory_table(12 * 1024)
        faults = memory_faults(large)
        result = simulate_table(large, cost_model, num_devices=4, faults=faults)
        retried = np.flatnonzero((result.attempts > 1) | (result.drop_reason > 0))
        assert np.unique(retried // 1024).size == 12
        few = transient_bytes(small, cost_model, memory_faults(small))
        many = transient_bytes(large, cost_model, faults)
        assert many <= 1.3 * few, (few, many)

    @pytest.mark.parametrize("faulted", (False, True))
    def test_run_leaves_no_cyclic_garbage(self, cost_model, faulted):
        # A reference cycle, such as a core reached through its
        # dispatcher, would keep each run's columns alive until a full
        # collection.
        table = memory_table(2048)
        faults = memory_faults(table) if faulted else None
        simulate_table(table, cost_model, num_devices=4, faults=faults)
        gc.collect()
        gc.disable()
        try:
            simulate_table(table, cost_model, num_devices=4, faults=faults)
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize("shape", ("prefill", "generative", "faulted"))
    def test_result_shares_ordered_table_columns(self, cost_model, shape):
        # An ordered table's request columns come back as read-only
        # views of its own arrays; a shuffled one's as read-only sorted
        # copies, and its result is bitwise the ordered table's.
        table = generate_request_table(
            BurstyProcess(40.0, 400.0, 0.5, 0.1),
            MIX,
            count=3000,
            seed=3,
            mean_output_tokens=4.0 if shape == "generative" else None,
            deadline_range_s=(0.05, 0.5) if shape == "faulted" else None,
        )
        faults = memory_faults(table) if shape == "faulted" else None
        names = [n for n in REQUEST_COLUMNS if getattr(table, n) is not None]
        assert len(names) == (4 if shape == "prefill" else 5)
        ordered = simulate_table(table, cost_model, num_devices=4, faults=faults)
        if faults is not None:
            assert ordered.retries and ordered.dropped  # fault columns in play
        shuffled = permute_rows(table, seed=5)
        other = simulate_table(shuffled, cost_model, num_devices=4, faults=faults)
        for name in names:
            col = getattr(ordered, name)
            assert np.shares_memory(col, getattr(table, name)), name
            assert not np.shares_memory(getattr(other, name), getattr(shuffled, name))
            for result in (ordered, other):
                with pytest.raises(ValueError, match="read-only"):
                    getattr(result, name)[0] = 0
        assert_results_identical(other, ordered)

    def test_one_slice_peaks_no_higher_than_whole_table(self, cost_model):
        table = memory_table(20_000)
        assert len(table) <= engine._SLICE_ROWS
        assert transient_bytes(table, cost_model) <= WHOLE_TABLE_TRANSIENT_BYTES


# ----------------------------------------------------------------------
# summarize_stream: exact aggregates, sketch-bounded percentiles
# ----------------------------------------------------------------------
class TestSummarizeStream:
    @pytest.mark.parametrize("pattern", PATTERNS)
    def test_matches_exact_summary(self, pattern, cost_model):
        table = generate_request_table(
            make_process(pattern), MIX, count=2500, seed=3
        )
        exact = summarize(
            simulate_table(table, cost_model),
            config=S_SPRINT.name,
            mode="sprint",
            pattern=pattern,
            offered_rps=120.0,
            sla_s=0.05,
        )
        streamed = summarize_stream(
            table_chunks(table, 400),
            cost_model,
            config=S_SPRINT.name,
            mode="sprint",
            pattern=pattern,
            offered_rps=120.0,
            sla_s=0.05,
        )
        assert streamed.requests == exact.requests
        assert streamed.duration_s == exact.duration_s
        assert streamed.throughput_rps == exact.throughput_rps
        assert streamed.utilization == exact.utilization
        assert streamed.energy_uj == exact.energy_uj
        assert streamed.sla_violations == exact.sla_violations
        assert streamed.mean_batch_size == pytest.approx(
            exact.mean_batch_size, rel=1e-12
        )
        bound = StreamingHistogram().rel_error_bound
        for attr in ("p50_s", "p95_s", "p99_s"):
            assert getattr(streamed.latency, attr) == pytest.approx(
                getattr(exact.latency, attr), rel=bound
            )
            assert getattr(streamed.queue_wait, attr) == pytest.approx(
                getattr(exact.queue_wait, attr), rel=bound
            )
        assert streamed.latency.max_s == exact.latency.max_s
        assert streamed.latency.mean_s == pytest.approx(
            exact.latency.mean_s, rel=1e-9
        )

    def test_stream_engine_experiment_point(self):
        fast = ServingExperiment(engine="fast")
        stream = ServingExperiment(engine="stream")
        mode = ExecutionMode.SPRINT
        a = fast.simulate("poisson", mode, 40.0, 1000)
        b = stream.simulate("poisson", mode, 40.0, 1000)
        assert b.requests == a.requests
        assert b.duration_s == a.duration_s
        assert b.throughput_rps == a.throughput_rps
        assert b.utilization == a.utilization
        assert b.energy_uj == a.energy_uj
        assert b.sla_violations == a.sla_violations

    @pytest.mark.parametrize("mean_output_tokens", [2.0, 16.0])
    def test_stream_engine_decode_point(self, mean_output_tokens):
        # Generative chunks through summarize_stream: every exact field
        # equals the fast engine's (TTFT/TBT percentiles are sketch-bounded).
        mode = ExecutionMode.SPRINT
        a = DecodeExperiment(engine="fast").simulate(
            mode, mean_output_tokens, 400.0, 600
        )
        b = DecodeExperiment(engine="stream").simulate(
            mode, mean_output_tokens, 400.0, 600
        )
        assert b.requests == a.requests
        assert b.total_tokens == a.total_tokens
        assert b.tokens_per_s == a.tokens_per_s
        assert b.utilization == a.utilization
        assert b.energy_uj_per_token == a.energy_uj_per_token
        assert b.mean_batch_size == a.mean_batch_size

    def test_rejects_unknown_engine(self):
        with pytest.raises(ValueError):
            ServingExperiment(engine="chunky")


# ----------------------------------------------------------------------
# RequestTable.head / slice (satellite S6)
# ----------------------------------------------------------------------
class TestTableSlicing:
    @pytest.fixture(scope="class")
    def table(self):
        return generate_request_table(
            PoissonProcess(100.0), MIX, count=50, seed=1
        )

    def test_head_validates_count(self, table):
        with pytest.raises(ValueError):
            table.head(51)
        assert len(table.head(50)) == 50

    def test_slice_bounds(self, table):
        with pytest.raises(ValueError):
            table.slice(-1, 10)
        with pytest.raises(ValueError):
            table.slice(10, 10)
        with pytest.raises(ValueError):
            table.slice(10, 51)

    def test_slice_copies(self, table):
        part = table.slice(10, 20)
        assert len(part) == 10
        assert np.array_equal(part.request_id, table.request_id[10:20])
        part.arrival_s[0] = -1.0
        assert table.arrival_s[10] != -1.0

    def test_head_equals_slice_prefix(self, table):
        assert_tables_equal(table.head(10), table.slice(0, 10))
