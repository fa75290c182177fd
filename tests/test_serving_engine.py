"""Equivalence suite: the columnar fast engine vs the reference loop.

The fast serving engine's contract is *exact* equality -- per-request
records bitwise equal to the per-request reference event loop, not
approximately close -- pinned here across arrival patterns, execution
modes, seeds, device counts, and wait bounds.  Plus the vectorized
stream generation's own contract: ``generate_requests`` output is
byte-identical to the historical per-request sampling loop (golden
hashes captured before vectorization).
"""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.configs import S_SPRINT
from repro.core.system import ExecutionMode
from repro.models.zoo import get_model
from repro.serving import (
    BurstyProcess,
    DynamicBatcher,
    FaultSchedule,
    PoissonProcess,
    RequestTable,
    ServiceCostModel,
    ServingSimulator,
    SprintDevice,
    TraceProcess,
    generate_request_table,
    generate_requests,
    sample_valid_len,
    simulate_decode_stream,
    simulate_decode_table,
    simulate_stream,
    simulate_table,
    summarize,
)
from repro.experiments.serving import ServingExperiment
from repro.serving.engine import (
    _fold,
    _form_batches,
    _group_rows,
    _place_batches,
)
from repro.serving.requests import has_duplicate_ids

SEEDS = (0, 1, 7)
DEVICE_COUNTS = (1, 2, 4)
WAITS = (0.0, 2e-3)


def make_process(pattern):
    return {
        "poisson": PoissonProcess(rate_rps=120.0),
        "bursty": BurstyProcess(40.0, 150.0, 0.5, 0.1),
        "trace": TraceProcess([0.01, 0.002, 0.005]),
    }[pattern]


@pytest.fixture(scope="module")
def cost_model():
    """One shared (memoized) cost model: both engines must price every
    batch identically, and the matrix reuses the primed buckets."""
    return ServiceCostModel(S_SPRINT, ExecutionMode.SPRINT)


def assert_engines_equal(table, cost, num_devices, max_wait_s, max_batch_size=8):
    """Run both engines on one stream; everything must match exactly."""
    fast = simulate_table(
        table,
        cost,
        num_devices=num_devices,
        max_batch_size=max_batch_size,
        max_wait_s=max_wait_s,
    ).to_result()
    reference = ServingSimulator(
        [SprintDevice(i, cost) for i in range(num_devices)],
        DynamicBatcher(max_batch_size, max_wait_s),
    ).run(table.to_requests())
    assert len(fast.records) == len(reference.records)
    for a, b in zip(fast.records, reference.records):
        assert a == b  # dataclass equality: every timestamp, exactly
    assert fast.start_s == reference.start_s
    assert fast.end_s == reference.end_s
    assert fast.device_busy_s == reference.device_busy_s
    assert fast.device_energy_pj == reference.device_energy_pj
    assert fast.batches == reference.batches
    assert fast.size_triggered_batches == reference.size_triggered_batches
    assert fast.timeout_triggered_batches == reference.timeout_triggered_batches


class TestEngineEquivalence:
    @pytest.mark.parametrize("pattern", ("poisson", "bursty", "trace"))
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("num_devices", DEVICE_COUNTS)
    @pytest.mark.parametrize("max_wait_s", WAITS)
    def test_records_exactly_equal(
        self, cost_model, pattern, seed, num_devices, max_wait_s
    ):
        table = generate_request_table(
            make_process(pattern), "BERT-B", count=250, seed=seed
        )
        cost_model.prime(table.specs[0], table.valid_len)
        assert_engines_equal(table, cost_model, num_devices, max_wait_s)

    @pytest.mark.parametrize(
        "mode", (ExecutionMode.BASELINE, ExecutionMode.PRUNING_ONLY)
    )
    def test_other_modes_equal(self, mode):
        cost = ServiceCostModel(S_SPRINT, mode)
        table = generate_request_table(
            PoissonProcess(90.0), "BERT-B", count=200, seed=3
        )
        cost.prime(table.specs[0], table.valid_len)
        assert_engines_equal(table, cost, 2, 2e-3)

    def test_multi_model_mix_equal(self, cost_model):
        table = generate_request_table(
            PoissonProcess(90.0),
            {"BERT-B": 0.5, "ViT-B": 0.3, "GPT-2-L": 0.2},
            count=300,
            seed=5,
        )
        for idx, spec in enumerate(table.specs):
            cost_model.prime(spec, table.valid_len[table.spec_idx == idx])
        assert_engines_equal(table, cost_model, 2, 2e-3)
        # End-of-stream flush seals several model queues at the same
        # instant; zero wait exercises the per-arrival flush ordering.
        assert_engines_equal(table, cost_model, 1, 10e-3)
        assert_engines_equal(table, cost_model, 2, 0.0)

    def test_repeated_model_in_mix_shares_one_queue(self, cost_model):
        # A pair-list mix may name the same model twice; the reference
        # batcher merges both into one per-name queue, and the fast
        # engine must form the same batches.
        table = generate_request_table(
            PoissonProcess(120.0),
            [("BERT-B", 0.5), ("BERT-B", 0.3), ("ViT-B", 0.2)],
            count=200,
            seed=0,
        )
        assert len(table.specs) == 3  # duplicates kept, stream unchanged
        for idx, spec in enumerate(table.specs):
            cost_model.prime(spec, table.valid_len[table.spec_idx == idx])
        assert_engines_equal(table, cost_model, 2, 2e-3)

    def test_conflicting_same_name_specs_rejected(self):
        import dataclasses

        spec = get_model("BERT-B")
        shrunk = dataclasses.replace(spec, seq_len=128)
        with pytest.raises(ValueError):
            RequestTable(
                specs=[spec, shrunk],
                request_id=np.arange(2),
                arrival_s=np.zeros(2),
                spec_idx=np.arange(2, dtype=np.int64),
                valid_len=np.full(2, 100),
            )

    def test_batch_size_one_seals_by_size(self, cost_model):
        table = generate_request_table(
            PoissonProcess(60.0), "BERT-B", count=80, seed=0
        )
        cost_model.prime(table.specs[0], table.valid_len)
        assert_engines_equal(table, cost_model, 1, 0.0, max_batch_size=1)
        assert_engines_equal(table, cost_model, 3, 5e-3, max_batch_size=1)

    def test_columnar_summary_equals_reference_summary(self, cost_model):
        table = generate_request_table(
            BurstyProcess(40.0, 150.0, 0.5, 0.1), "BERT-B", count=300, seed=1
        )
        cost_model.prime(table.specs[0], table.valid_len)
        fast = simulate_table(table, cost_model, num_devices=2)
        reference = ServingSimulator(
            [SprintDevice(i, cost_model) for i in range(2)],
            DynamicBatcher(8, 2e-3),
        ).run(table.to_requests())
        kwargs = dict(
            config="S-SPRINT", mode="sprint", pattern="bursty",
            offered_rps=40.0, sla_s=0.05,
        )
        assert summarize(fast, **kwargs) == summarize(reference, **kwargs)

    def test_experiment_fast_and_reference_reports_identical(self):
        reports = {
            engine: ServingExperiment(seed=2, engine=engine).simulate(
                "poisson", ExecutionMode.SPRINT, 40.0, 150
            )
            for engine in ("fast", "reference")
        }
        assert reports["fast"] == reports["reference"]

    def test_validation(self, cost_model):
        table = generate_request_table(PoissonProcess(10.0), "BERT-B", 10)
        with pytest.raises(ValueError):
            simulate_table(table, cost_model, num_devices=0)
        with pytest.raises(ValueError):
            simulate_table(table, cost_model, max_batch_size=0)
        with pytest.raises(ValueError):
            simulate_table(table, cost_model, max_wait_s=-1.0)
        dup = RequestTable(
            specs=table.specs,
            request_id=np.zeros(3, dtype=np.int64),
            arrival_s=np.arange(3, dtype=np.float64),
            spec_idx=np.zeros(3, dtype=np.int64),
            valid_len=np.full(3, 100, dtype=np.int64),
        )
        with pytest.raises(ValueError):
            simulate_table(dup, cost_model)
        # Counts must be integers and the wait a number, on every
        # columnar driver a call can land on.
        generative = generate_request_table(
            PoissonProcess(10.0), "BERT-B", 10, mean_output_tokens=4.0
        )
        drivers = (
            lambda **kw: simulate_table(table, cost_model, **kw),
            lambda **kw: simulate_stream([table], cost_model, **kw),
            lambda **kw: simulate_table(generative, cost_model, **kw),
            lambda **kw: simulate_decode_table(table, cost_model, **kw),
            lambda **kw: simulate_decode_stream([generative], cost_model, **kw),
        )
        bad_knobs = (
            ("max_batch_size", 8.0),
            ("max_batch_size", 2.5),
            ("num_devices", 2.0),
            ("max_wait_s", math.nan),
        )
        for name, value in bad_knobs:
            for run in drivers:
                with pytest.raises(ValueError, match=name):
                    run(**{name: value})
        # Python and numpy integers both pass, with the same result.
        for run in (drivers[0], drivers[2]):
            a = run(num_devices=2, max_batch_size=4)
            b = run(num_devices=np.int64(2), max_batch_size=np.int32(4))
            assert np.array_equal(a.finish_s, b.finish_s)
            assert a.device_busy_s == b.device_busy_s


#: SHA-256 of the (id, repr(arrival), model, valid_len) stream, captured
#: from the pre-vectorization per-request generation loop.  Any drift in
#: the draw sequence -- process, mix, or length jitter -- breaks these.
GOLDEN_STREAMS = {
    "poisson_s0": "4708cccd361e3479572f9a2d840208bba08bcd027aa1a33dcdda99e5ecd72b3e",
    "poisson_s7": "bf80981b111f8ca5abf93fd2ba74a1ae4394997db1373d8af0a461cb26d76682",
    "bursty_s1": "9d8e3b7b256f5d1555e8ee4425b520d15ac1e71c03193c4a86510ada20b9267c",
    "trace_s0": "ea4a0fd03919c9979db3d0222a1f2940b11054b9a125106ec3f5d813dd12d495",
    "mix_s3": "ced0046942128ba5588be3ee063b5f12d3d90b11f30c9168e6297048d0f3e93a",
}

GOLDEN_CASES = {
    "poisson_s0": (lambda: PoissonProcess(80.0), "BERT-B", 500, 0),
    "poisson_s7": (lambda: PoissonProcess(40.0), "BERT-B", 300, 7),
    "bursty_s1": (lambda: BurstyProcess(40.0, 150.0, 0.5, 0.1), "BERT-B", 400, 1),
    "trace_s0": (lambda: TraceProcess([0.01, 0.02, 0.005]), "BERT-B", 200, 0),
    "mix_s3": (
        lambda: PoissonProcess(60.0),
        {"BERT-B": 0.5, "ViT-B": 0.3, "GPT-2-L": 0.2},
        400,
        3,
    ),
}


class TestVectorizedGeneration:
    @pytest.mark.parametrize("name", sorted(GOLDEN_STREAMS))
    def test_generate_requests_byte_identical_to_pre_vectorization(self, name):
        process, mix, count, seed = GOLDEN_CASES[name]
        digest = hashlib.sha256()
        for r in generate_requests(process(), mix, count=count, seed=seed):
            digest.update(
                f"{r.request_id}:{r.arrival_s!r}:{r.spec.name}:{r.valid_len};".encode()
            )
        assert digest.hexdigest() == GOLDEN_STREAMS[name]

    def test_table_matches_per_request_sampling_loop(self):
        """The vectorized jitter draw consumes the generator exactly
        like one sample_valid_len call per padded request."""
        process = PoissonProcess(70.0)
        mix = {"BERT-B": 0.6, "ViT-B": 0.4}  # ViT pads nothing
        table = generate_request_table(process, mix, count=400, seed=11)
        rng = np.random.default_rng(11)
        specs = table.specs
        times = process.arrival_times(400, rng)
        picks = rng.choice(len(specs), size=400, p=np.array([0.6, 0.4]))
        assert np.array_equal(table.spec_idx, picks)
        assert np.array_equal(table.arrival_s, times)
        for i in range(400):
            assert int(table.valid_len[i]) == sample_valid_len(
                specs[int(picks[i])], rng
            )

    def test_table_round_trips_through_objects(self):
        table = generate_request_table(
            PoissonProcess(50.0), {"BERT-B": 0.5, "GPT-2-L": 0.5}, 200, seed=4
        )
        back = RequestTable.from_requests(table.to_requests())
        assert np.array_equal(back.request_id, table.request_id)
        assert np.array_equal(back.arrival_s, table.arrival_s)
        assert np.array_equal(back.valid_len, table.valid_len)
        # Spec lists may order differently (first occurrence vs mix
        # order); the per-row model assignment must survive either way.
        for i in range(len(table)):
            assert (
                back.specs[int(back.spec_idx[i])].name
                == table.specs[int(table.spec_idx[i])].name
            )

    def test_head_is_stream_prefix(self):
        table = generate_request_table(PoissonProcess(50.0), "BERT-B", 100, 0)
        head = table.head(10)
        assert len(head) == 10
        assert np.array_equal(head.arrival_s, table.arrival_s[:10])

    def test_table_validation(self):
        spec = get_model("BERT-B")
        with pytest.raises(ValueError):
            RequestTable(
                specs=[spec],
                request_id=np.arange(2),
                arrival_s=np.zeros(2),
                spec_idx=np.zeros(2, dtype=np.int64),
                valid_len=np.array([100, spec.seq_len + 1]),
            )
        with pytest.raises(ValueError):
            RequestTable(
                specs=[spec],
                request_id=np.arange(2),
                arrival_s=np.zeros(1),
                spec_idx=np.zeros(2, dtype=np.int64),
                valid_len=np.full(2, 10),
            )
        with pytest.raises(ValueError):
            RequestTable(
                specs=[spec],
                request_id=np.arange(1),
                arrival_s=np.zeros(1),
                spec_idx=np.ones(1, dtype=np.int64),
                valid_len=np.full(1, 10),
            )


# ----------------------------------------------------------------------
# Property tests: vectorised batch formation, the single dispatch loop
# and the duplicate-id check, each against a plain oracle.
# ----------------------------------------------------------------------


def _form_batches_loop(
    arrival, request_id, max_batch_size, max_wait_s, last_arrival_s=None, horizon_s=None
):
    """Per-batch forward pass: one ``searchsorted`` per sealed batch.

    The oracle for :func:`repro.serving.engine._form_batches`, which
    must return the same arrays bit for bit.
    """
    n = arrival.size
    if max_wait_s == 0.0:
        return (
            np.arange(n, dtype=np.int64),
            np.ones(n, dtype=np.int64),
            arrival.copy(),
            np.full(n, max_batch_size == 1, dtype=bool),
            arrival.copy(),
            request_id.copy(),
            n,
        )
    starts, counts, sealed, by_size, tie_a, tie_i = [], [], [], [], [], []
    i = 0
    while i < n:
        deadline = float(arrival[i]) + max_wait_s
        due = int(np.searchsorted(arrival, deadline, side="right"))
        take = min(max_batch_size, due - i)
        if take == max_batch_size:
            last = i + take - 1
            seal_at, size_trigger = float(arrival[last]), True
            anchor_a, anchor_i = float(arrival[last]), int(request_id[last])
        elif last_arrival_s is not None:
            seal_at = deadline if deadline <= last_arrival_s else last_arrival_s
            size_trigger = False
            anchor_a, anchor_i = float(arrival[i]), int(request_id[i])
        elif deadline < horizon_s:
            seal_at, size_trigger = deadline, False
            anchor_a, anchor_i = float(arrival[i]), int(request_id[i])
        else:
            break
        starts.append(i)
        counts.append(take)
        sealed.append(seal_at)
        by_size.append(size_trigger)
        tie_a.append(anchor_a)
        tie_i.append(anchor_i)
        i += take
    return (
        np.asarray(starts, dtype=np.int64),
        np.asarray(counts, dtype=np.int64),
        np.asarray(sealed, dtype=np.float64),
        np.asarray(by_size, dtype=bool),
        np.asarray(tie_a, dtype=np.float64),
        np.asarray(tie_i, dtype=np.int64),
        i,
    )


def _grid_arrivals(slots, hops, max_wait_s, grid_s):
    """Arrivals on a coarse grid, each pushed ``hop`` wait bounds later.

    A hop adds ``max_wait_s`` the way the engine forms a deadline, so
    hopped arrivals land bit for bit on other requests' deadlines; the
    power-of-two grid keeps ``slot * grid_s`` exact, so grid arrivals
    tie exactly.
    """
    out = []
    for slot, hop in zip(slots, hops):
        at = slot * grid_s
        for _ in range(hop):
            at = at + max_wait_s
        out.append(at)
    return np.array(out, dtype=np.float64)


#: About 1 ms: next to the 1 ms and 50 ms wait bounds, many batches
#: see ties and exact deadline landings.
FORMATION_GRID_S = 2.0**-10


@st.composite
def formation_cases(draw):
    """One queue's sorted (arrival, id) rows plus the formation knobs."""
    max_wait_s = draw(st.sampled_from((0.0, 1e-3, 0.05)))
    n = draw(st.integers(1, 60))
    slots = draw(st.lists(st.integers(0, 40), min_size=n, max_size=n))
    hops = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    ids = np.array(draw(st.permutations(range(n))), dtype=np.int64)
    arrival = _grid_arrivals(slots, hops, max_wait_s, FORMATION_GRID_S)
    order = np.lexsort((ids, arrival))
    arrival, ids = arrival[order], ids[order]
    # The stream's last arrival or the chunk horizon sits on an
    # arrival or a deadline: the ties the seal rules care about.
    bound = draw(st.sampled_from(np.concatenate((arrival, arrival + max_wait_s))))
    mode = draw(st.sampled_from(("last_arrival_s", "horizon_s")))
    return arrival, ids, draw(st.integers(1, 9)), max_wait_s, {mode: float(bound)}


class TestFormationProperty:
    @given(case=formation_cases())
    @settings(max_examples=300, deadline=None)
    def test_vectorised_matches_per_batch_loop(self, case):
        arrival, ids, max_batch_size, max_wait_s, mode = case
        got = _form_batches(arrival, ids, max_batch_size, max_wait_s, **mode)
        want = _form_batches_loop(arrival, ids, max_batch_size, max_wait_s, **mode)
        assert got[6] == want[6]
        for g, w in zip(got[:6], want[:6]):
            assert g.dtype == w.dtype
            np.testing.assert_array_equal(g, w)


#: About 0.24 ms: a BERT-B batch lasts several slots, so dense draws
#: queue behind busy devices and sparse draws find them idle.
DISPATCH_GRID_S = 2.0**-12
DISPATCH_MODELS = ("BERT-B", "ViT-B")


def _tie_heavy_table(case, max_wait_s):
    slots, hops, picks, lengths, ids = case
    return RequestTable(
        specs=[get_model(name) for name in DISPATCH_MODELS[: max(picks) + 1]],
        request_id=np.array(ids, dtype=np.int64),
        arrival_s=_grid_arrivals(slots, hops, max_wait_s, DISPATCH_GRID_S),
        spec_idx=np.array(picks, dtype=np.int64),
        valid_len=np.array(lengths, dtype=np.int64),
    )


@st.composite
def dispatch_cases(draw):
    """Up to 300 requests of 1-2 models on a coarse arrival grid."""
    n = draw(st.integers(1, 300))
    span = draw(st.integers(0, 400))
    models = draw(st.integers(1, len(DISPATCH_MODELS)))

    def column(values):
        return st.lists(values, min_size=n, max_size=n)

    return (
        draw(column(st.integers(0, span))),
        draw(column(st.integers(0, 1))),
        draw(column(st.integers(0, models - 1))),
        draw(column(st.sampled_from((16, 48, 64, 100)))),
        draw(st.permutations(range(n))),
    )


#: One device: a burst that queues, then arrivals that find it idle.
ONE_DEVICE_BURST = (
    [0] * 12 + [40, 400, 900],
    [0] * 15,
    [0] * 15,
    [64] * 15,
    list(range(14, -1, -1)),
)
#: Three devices, two models: early batches land on idle devices past a
#: busy device 0, later ones wait for the earliest free device.
FLEET_BURST = (
    [0, 0, 1, 1, 2, 2, 3] * 10 + [300, 301, 900],
    [0, 1] * 35 + [0, 0, 0],
    [0, 1, 0, 1, 1, 0, 0] * 10 + [1, 0, 0],
    [100, 64, 48, 16, 100, 64, 100] * 10 + [64, 64, 16],
    list(range(73)),
)


class TestDispatchProperty:
    @given(
        case=dispatch_cases(),
        num_devices=st.integers(1, 16),
        max_wait_s=st.sampled_from((0.0, 2e-3)),
        max_batch_size=st.integers(1, 9),
    )
    @example(case=ONE_DEVICE_BURST, num_devices=1, max_wait_s=2e-3, max_batch_size=8)
    @example(case=ONE_DEVICE_BURST, num_devices=1, max_wait_s=0.0, max_batch_size=8)
    @example(case=FLEET_BURST, num_devices=3, max_wait_s=2e-3, max_batch_size=8)
    @example(case=FLEET_BURST, num_devices=3, max_wait_s=0.0, max_batch_size=8)
    @settings(max_examples=60, deadline=None)
    def test_fast_equals_reference(
        self, cost_model, case, num_devices, max_wait_s, max_batch_size
    ):
        table = _tie_heavy_table(case, max_wait_s)
        assert_engines_equal(
            table, cost_model, num_devices, max_wait_s, max_batch_size
        )

    @pytest.mark.parametrize(
        "case, num_devices", [(ONE_DEVICE_BURST, 1), (FLEET_BURST, 3)]
    )
    @pytest.mark.parametrize("max_wait_s", (0.0, 2e-3))
    def test_examples_reach_both_dispatch_branches(
        self, cost_model, case, num_devices, max_wait_s
    ):
        result = simulate_table(
            _tie_heavy_table(case, max_wait_s),
            cost_model,
            num_devices=num_devices,
            max_wait_s=max_wait_s,
        )
        waited = result.service_start_s > result.batched_s
        assert waited.any()  # every device was busy at the seal
        assert (~waited).any()  # an idle device took the batch at its seal
        if num_devices > 1:
            # The idle scan passed a busy device 0.
            assert (result.device_id[~waited] > 0).any()


def _scan_place(batches, free_at, busy_s, energy_by_device, horizon):
    """The per-batch scan the heap kernel replaced, kept as its oracle:
    ``min`` over the free times, ``index`` of it when every device is
    busy, else an index-order scan for the first idle device; stops
    at the first batch that starts at or finishes after ``horizon``."""
    starts, devices = [], []
    for sealed, service, energy in batches:
        earliest = min(free_at)
        if earliest > sealed:
            start = earliest
            device = free_at.index(earliest)
        else:
            start = sealed
            for device, free in enumerate(free_at):
                if free <= sealed:
                    break
        finish = start + service
        if finish > horizon or start >= horizon:
            break
        free_at[device] = finish
        busy_s[device] += service
        energy_by_device[device] += energy
        starts.append(start)
        devices.append(device)
    return starts, devices


def _bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


# Finite, non-negative instants: entry points reject non-finite
# arrivals, and on a NaN seal the two rules pick different devices.
_TIMES = st.floats(0.0, 50.0, allow_nan=False, allow_infinity=False)
# A small pool makes equal seals, equal services and equal free times
# common.
_TIED = st.sampled_from((0.0, 0.5, 1.0, 2.5)) | _TIMES


class TestPlacementKernel:
    """``_place_batches`` + ``_fold`` against the scan loop, on carried
    state."""

    @given(
        batches=st.lists(st.tuples(_TIED, _TIED, _TIMES), max_size=80),
        carried=st.integers(1, 16).flatmap(
            lambda k: st.lists(st.tuples(_TIED, _TIMES, _TIMES), min_size=k, max_size=k)
        ),
        horizon=st.just(math.inf) | _TIED,
    )
    @example(
        batches=[(0.0, 1.0, 1.0)] * 3 + [(0.5, 0.5, 2.0), (2.0, 0.0, 0.0)],
        carried=[(0.0, 0.0, 0.0)] * 2,
        horizon=math.inf,
    )
    @example(
        batches=[(1.0, 1.0, 1.0), (1.0, 0.0, 1.0), (2.0, 0.0, 1.0)],
        carried=[(0.5, 3.0, 4.0), (2.0, 1.0, 2.0)],
        horizon=2.0,
    )
    @settings(max_examples=300, deadline=None)
    def test_heap_kernel_equals_scan_loop(self, batches, carried, horizon):
        free_at, busy_s, energy = (list(column) for column in zip(*carried))
        expect = [list(free_at), list(busy_s), list(energy)]
        expect_starts, expect_devices = _scan_place(batches, *expect, horizon)

        starts, devices = [], []
        pending = iter([(sealed, service) for sealed, service, _ in batches])
        _place_batches(pending, free_at, horizon, starts, devices)
        placed = batches[: len(starts)]
        _fold(busy_s, devices, np.array([service for _, service, _ in placed]))
        _fold(energy, devices, np.array([pj for _, _, pj in placed]))

        assert devices == expect_devices
        assert _bits(starts) == _bits(expect_starts)
        got = [free_at, busy_s, energy]
        assert list(map(_bits, got)) == list(map(_bits, expect))
        # The batch that reached the horizon is consumed and unplaced.
        rest = [(sealed, service) for sealed, service, _ in batches[len(starts) + 1 :]]
        assert list(pending) == rest

    @given(
        num_queues=st.integers(2, 300),
        picks=st.lists(st.integers(0, 10**6), min_size=1, max_size=400),
    )
    @settings(max_examples=60, deadline=None)
    def test_group_rows_keeps_stream_order(self, num_queues, picks):
        # Queue ids above 255 need 16-bit keys; several specs share one
        # queue, as repeated model names do.
        num_specs = num_queues + 3
        queue_of_spec = np.arange(num_specs, dtype=np.int64) % num_queues
        spec_idx = np.asarray(picks, dtype=np.int64) % num_specs
        rows = _group_rows(spec_idx, queue_of_spec, num_queues)
        qcol = queue_of_spec[spec_idx]
        assert len(rows) == num_queues
        for q, got in enumerate(rows):
            np.testing.assert_array_equal(got, np.flatnonzero(qcol == q))


_INT64 = np.iinfo(np.int64)


class TestDuplicateIds:
    @given(
        ids=st.one_of(
            arrays(
                np.int64,
                st.integers(0, 40),
                elements=st.integers(-6, 6) | st.integers(_INT64.min, _INT64.max),
            ),
            arrays(
                np.int64,
                st.integers(0, 40),
                elements=st.integers(_INT64.min, _INT64.max),
                unique=True,
            ),
        ),
        sort=st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_unique_count(self, ids, sort):
        if sort:
            ids = np.sort(ids)
        assert has_duplicate_ids(ids) == (np.unique(ids).size != ids.size)

    @pytest.mark.parametrize(
        "entry",
        ("stream", "decode_table", "decode_stream", "faulty_table", "faulty_stream"),
    )
    def test_entry_points_reject_duplicate_id(self, cost_model, entry):
        # ``simulate_table`` itself is covered by ``test_validation``.
        columns = dict(
            specs=[get_model("BERT-B")],
            request_id=np.array([5, 2, 5], dtype=np.int64),
            arrival_s=np.array([0.0, 1e-3, 2e-3]),
            spec_idx=np.zeros(3, dtype=np.int64),
            valid_len=np.full(3, 32, dtype=np.int64),
        )
        prefill = RequestTable(**columns)
        generative = RequestTable(**columns, output_len=np.array([2, 1, 3]))
        faults = FaultSchedule.none(1)
        run = {
            "stream": lambda: simulate_stream([prefill], cost_model),
            "decode_table": lambda: simulate_decode_table(generative, cost_model),
            "decode_stream": lambda: simulate_decode_stream([generative], cost_model),
            "faulty_table": lambda: simulate_table(prefill, cost_model, faults=faults),
            "faulty_stream": lambda: simulate_stream(
                [prefill], cost_model, faults=faults
            ),
        }[entry]
        with pytest.raises(ValueError, match="duplicate request id"):
            run()
