"""Fault-injection suite: equivalence, conservation, and validation.

The fault layer's contract mirrors the engines' own: fault mode on the
columnar engines -- the chunked prefill core for prefill tables and
streams, the decode core for generative ones -- is *exactly* equal --
per-request records, drop records, retry events, device accounting --
to the fault-threaded reference event loops, across arrival patterns,
seeds, fleet sizes, outage traces, and retry/deadline policies, on
fixed grids and on hypothesis-drawn cases, at every slice and chunk
size.  Every stream-vs-table diff also runs the decode core's stream
driver, so prefill draws diff the two engines against each other.  On
top of that sit conservation
properties every fault run must satisfy (``completed + dropped ==
total``, busy time bounded by uptime), byte-identity of fault traces
across engines, and the no-faults guarantee: an empty schedule changes
nothing, and the fault-free fast path is never perturbed.
"""

import dataclasses

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
    RetryPolicy,
    ServiceCostModel,
    ServingSimulator,
    SprintDevice,
    TraceProcess,
    generate_request_table,
    simulate_decode_stream,
    simulate_decode_table,
    simulate_faulty_stream,
    simulate_faulty_table,
    simulate_stream,
    simulate_table,
    summarize,
    summarize_stream,
)
from repro.serving import engine
from repro.serving.faults import Fleet

SEEDS = (0, 1, 7)
DEVICE_COUNTS = (1, 2, 4)


def make_process(pattern):
    return {
        "poisson": PoissonProcess(rate_rps=120.0),
        "bursty": BurstyProcess(40.0, 150.0, 0.5, 0.1),
        "trace": TraceProcess([0.01, 0.002, 0.005]),
    }[pattern]


def make_schedule(kind, num_devices, seed=0):
    """One outage schedule per test axis: seeded renewal or fixed."""
    if kind == "exponential":
        return FaultSchedule.exponential(
            num_devices, mtbf_s=0.08, mttr_s=0.04, horizon_s=4.0, seed=seed
        )
    if kind == "fixed":
        # Rapid staggered flapping: the up-gaps between outages are
        # shorter than a typical batch service time, so dispatches keep
        # landing on doomed devices and the retry machinery engages.
        return FaultSchedule.from_intervals(
            [
                [
                    (t + 0.004 * d, t + 0.015 + 0.004 * d)
                    for t in np.arange(0.12, 1.4, 0.017)
                ]
                for d in range(num_devices)
            ]
        )
    raise KeyError(kind)


@pytest.fixture(scope="module")
def cost_model():
    """One shared (memoized) cost model; the matrix reuses its buckets."""
    return ServiceCostModel(S_SPRINT, ExecutionMode.SPRINT)


def run_reference(table, cost, faults, retry, num_devices, max_wait_s,
                  max_batch_size=8, recorder=None):
    devices = [SprintDevice(i, cost) for i in range(num_devices)]
    if table.output_len is not None:
        sim = GenerativeServingSimulator(
            devices,
            ContinuousBatcher(max_batch_size, max_wait_s),
            recorder,
            faults=faults,
            retry=retry,
        )
    else:
        sim = ServingSimulator(
            devices,
            DynamicBatcher(max_batch_size, max_wait_s),
            recorder,
            faults=faults,
            retry=retry,
        )
    return sim.run(table.to_requests())


def assert_fault_runs_equal(table, cost, faults, retry, num_devices,
                            max_wait_s, max_batch_size=8):
    """Run the columnar engine and the reference loop; everything must
    match."""
    fast = simulate_faulty_table(
        table,
        cost,
        faults,
        retry=retry,
        num_devices=num_devices,
        max_batch_size=max_batch_size,
        max_wait_s=max_wait_s,
    ).to_result()
    ref = run_reference(
        table, cost, faults, retry, num_devices, max_wait_s, max_batch_size
    )
    assert len(fast.records) == len(ref.records)
    for a, b in zip(fast.records, ref.records):
        assert a == b  # dataclass equality: every timestamp, exactly
    assert len(fast.dropped) == len(ref.dropped)
    for a, b in zip(fast.dropped, ref.dropped):
        assert a == b
    assert fast.dropped_by_reason == ref.dropped_by_reason
    assert fast.start_s == ref.start_s
    assert fast.end_s == ref.end_s
    assert fast.device_busy_s == ref.device_busy_s
    assert fast.device_energy_pj == ref.device_energy_pj
    assert fast.device_downtime_s == ref.device_downtime_s
    assert fast.batches == ref.batches
    assert fast.size_triggered_batches == ref.size_triggered_batches
    assert fast.timeout_triggered_batches == ref.timeout_triggered_batches
    assert fast.retries == ref.retries
    assert fast.failed_batches == ref.failed_batches
    assert fast.wasted_energy_pj == ref.wasted_energy_pj
    assert fast.retry_events == ref.retry_events
    if table.output_len is not None:
        assert fast.total_tokens == ref.total_tokens
        assert fast.prefill_batches == ref.prefill_batches
        assert fast.decode_batches == ref.decode_batches
    return fast, ref


def assert_stream_equals_table(table, cost, chunk_size, **kwargs):
    """Chunk the table through ``simulate_stream`` and, as a second
    engine, ``simulate_decode_stream``: each run's totals must equal the
    whole-table run's, and its sink's rows the completed rows.  Returns
    the whole-table result."""
    whole = simulate_table(table, cost, **kwargs)
    chunks = [
        table.slice(lo, min(lo + chunk_size, len(table)))
        for lo in range(0, len(table), chunk_size)
    ]
    names = [
        "request_id", "arrival_s", "spec_idx", "valid_len", "batched_s",
        "service_start_s", "finish_s", "batch_size", "device_id", "attempts",
    ]
    if whole.generative:
        names += ["output_len", "first_token_s", "decode_slots"]
    done = whole.drop_reason == 0
    for driver in (simulate_stream, simulate_decode_stream):
        collected = []
        streamed = driver(chunks, cost, sink=collected.append, **kwargs)
        for field in dataclasses.fields(streamed):
            name = field.name
            assert getattr(streamed, name) == getattr(whole, name), (driver, name)
        # The sink's rows, in (arrival, id) order, are the completed rows.
        cols = {
            name: np.concatenate(
                [getattr(c, name) for c in collected] or [np.empty(0)]
            )
            for name in names
        }
        order = np.lexsort((cols["request_id"], cols["arrival_s"]))
        for name in names:
            assert np.array_equal(
                cols[name][order], getattr(whole, name)[done]
            ), (driver, name)
    return whole


# ----------------------------------------------------------------------
# reference-vs-columnar bitwise matrix under fault schedules
# ----------------------------------------------------------------------
class TestFaultEquivalence:
    @pytest.mark.parametrize("pattern", ("poisson", "bursty", "trace"))
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("num_devices", DEVICE_COUNTS)
    @pytest.mark.parametrize("kind", ("exponential", "fixed"))
    def test_prefill_matrix(self, cost_model, pattern, seed, num_devices, kind):
        table = generate_request_table(
            make_process(pattern), "BERT-B", count=200, seed=seed
        )
        cost_model.prime(table.specs[0], table.valid_len)
        assert_fault_runs_equal(
            table,
            cost_model,
            make_schedule(kind, num_devices, seed=seed),
            RetryPolicy(),
            num_devices,
            2e-3,
        )

    @pytest.mark.parametrize("pattern", ("poisson", "bursty"))
    @pytest.mark.parametrize("num_devices", (1, 2))
    @pytest.mark.parametrize("kind", ("exponential", "fixed"))
    def test_generative_matrix(self, cost_model, pattern, num_devices, kind):
        table = generate_request_table(
            make_process(pattern),
            "BERT-B",
            count=150,
            seed=1,
            mean_output_tokens=4.0,
        )
        cost_model.prime(table.specs[0], table.valid_len)
        fast, _ = assert_fault_runs_equal(
            table,
            cost_model,
            make_schedule(kind, num_devices, seed=1),
            RetryPolicy(),
            num_devices,
            2e-3,
        )
        assert fast.failed_batches > 0  # the schedule actually bit

    @pytest.mark.parametrize("max_wait_s", (0.0, 2e-3))
    def test_zero_wait_and_no_retry_policy(self, cost_model, max_wait_s):
        # retry=None means the default policy in both engines.
        table = generate_request_table(
            PoissonProcess(120.0), "BERT-B", count=200, seed=0
        )
        cost_model.prime(table.specs[0], table.valid_len)
        assert_fault_runs_equal(
            table, cost_model, make_schedule("fixed", 2), None, 2, max_wait_s
        )

    def test_deadline_drops_equal(self, cost_model):
        table = generate_request_table(
            PoissonProcess(120.0),
            "BERT-B",
            count=200,
            seed=0,
            deadline_range_s=(0.02, 0.2),
        )
        cost_model.prime(table.specs[0], table.valid_len)
        fast, _ = assert_fault_runs_equal(
            table,
            cost_model,
            FaultSchedule.from_intervals(
                [
                    [(t, t + 0.02) for t in np.arange(0.2, 1.2, 0.021)],
                    [(0.3, 0.9)],
                ]
            ),
            RetryPolicy(max_attempts=8, backoff_base_s=0.05),
            2,
            2e-3,
        )
        reasons = {d.reason for d in fast.dropped}
        assert "deadline" in reasons

    def test_retry_budget_exhaustion_drops(self, cost_model):
        table = generate_request_table(
            PoissonProcess(120.0), "BERT-B", count=200, seed=0
        )
        cost_model.prime(table.specs[0], table.valid_len)
        fast, _ = assert_fault_runs_equal(
            table,
            cost_model,
            # Flapping outages with up-gaps shorter than a batch: a
            # retried dispatch keeps landing on a doomed device until
            # its attempt budget runs out.
            FaultSchedule.from_intervals(
                [[(t, t + 0.02) for t in np.arange(0.2, 1.2, 0.021)]]
            ),
            RetryPolicy(max_attempts=2, backoff_base_s=1e-4),
            1,
            2e-3,
        )
        assert any(d.reason == "retries" for d in fast.dropped)

    def test_stranded_fleet_drops_everything_queued(self, cost_model):
        table = generate_request_table(
            PoissonProcess(120.0), "BERT-B", count=120, seed=0
        )
        cost_model.prime(table.specs[0], table.valid_len)
        fast, _ = assert_fault_runs_equal(
            table,
            cost_model,
            FaultSchedule.from_intervals(
                [[(0.1, np.inf)], [(0.1, np.inf)]]
            ),
            RetryPolicy(),
            2,
            2e-3,
        )
        assert fast.dropped and all(
            d.reason == "stranded" for d in fast.dropped
        )
        assert len(fast.records) + len(fast.dropped) == 120

    def test_stranded_generative_fleet_drops_everything_queued(self, cost_model):
        # The decode core strands what the dead fleet can never run: its
        # table and stream drivers against the reference loop.
        table = generate_request_table(
            PoissonProcess(120.0),
            "BERT-B",
            count=120,
            seed=0,
            mean_output_tokens=8.0,
        )
        cost_model.prime(table.specs[0], table.valid_len)
        faults = FaultSchedule.from_intervals([[(0.1, np.inf)], [(0.1, np.inf)]])
        fast, _ = assert_fault_runs_equal(
            table, cost_model, faults, RetryPolicy(), 2, 2e-3
        )
        assert fast.records and fast.dropped
        assert all(d.reason == "stranded" for d in fast.dropped)
        assert len(fast.records) + len(fast.dropped) == 120
        for chunk_size in (1, 7, 50):
            assert_stream_equals_table(
                table,
                cost_model,
                chunk_size,
                faults=faults,
                retry=RetryPolicy(),
                num_devices=2,
                max_wait_s=2e-3,
            )

    def test_empty_schedule_equals_fault_free_run(self, cost_model):
        table = generate_request_table(
            PoissonProcess(120.0), "BERT-B", count=200, seed=3
        )
        cost_model.prime(table.specs[0], table.valid_len)
        plain = simulate_table(
            table, cost_model, num_devices=2, max_wait_s=2e-3
        ).to_result()
        faulted = simulate_faulty_table(
            table,
            cost_model,
            FaultSchedule.none(2),
            num_devices=2,
            max_wait_s=2e-3,
        ).to_result()
        assert faulted.records == plain.records
        assert faulted.device_busy_s == plain.device_busy_s
        assert faulted.device_energy_pj == plain.device_energy_pj
        assert faulted.batches == plain.batches
        assert not faulted.dropped
        assert faulted.retries == 0 and faulted.failed_batches == 0
        assert faulted.device_downtime_s == [0.0, 0.0]

    @pytest.mark.parametrize("num_devices", (1, 2))
    @pytest.mark.parametrize("max_wait_s", (0.0, 2e-3))
    def test_empty_schedule_equals_fault_free_decode_run(
        self, cost_model, num_devices, max_wait_s
    ):
        # Fault mode runs one step at a time; the fault-free decode run
        # macro-steps.  An empty schedule must make them agree.
        table = generate_request_table(
            PoissonProcess(120.0),
            {"BERT-B": 0.5, "GPT-2-L": 0.5},
            count=300,
            seed=3,
            mean_output_tokens=12.0,
        )
        kwargs = dict(num_devices=num_devices, max_wait_s=max_wait_s)
        plain = simulate_decode_table(table, cost_model, **kwargs).to_result()
        faulted = simulate_faulty_table(
            table, cost_model, FaultSchedule.none(num_devices), **kwargs
        ).to_result()
        assert faulted.records == plain.records
        assert faulted.device_busy_s == plain.device_busy_s
        assert faulted.device_energy_pj == plain.device_energy_pj
        assert faulted.batches == plain.batches
        assert faulted.prefill_batches == plain.prefill_batches
        assert faulted.decode_batches == plain.decode_batches
        assert faulted.size_triggered_batches == plain.size_triggered_batches
        assert faulted.timeout_triggered_batches == plain.timeout_triggered_batches
        assert faulted.total_tokens == plain.total_tokens
        assert not faulted.dropped
        assert faulted.retries == 0 and faulted.failed_batches == 0

    def test_faults_kwarg_off_is_untouched_fast_path(self, cost_model):
        # simulate_table(faults=None) must stay byte-for-byte today's
        # golden fast path: identical result object, no fault fields.
        table = generate_request_table(
            PoissonProcess(120.0), "BERT-B", count=200, seed=3
        )
        cost_model.prime(table.specs[0], table.valid_len)
        plain = simulate_table(table, cost_model, num_devices=2)
        routed = simulate_table(table, cost_model, num_devices=2, faults=None)
        assert type(routed) is type(plain)
        assert routed.to_result() == plain.to_result()


class TestFaultRouting:
    def test_prefill_fault_tables_skip_the_decode_core(self, cost_model, monkeypatch):
        # Prefill tables and streams run the prefill core under a
        # schedule; only generative tables and the decode drivers, which
        # select it for prefill traffic too, build the decode core.
        from repro.serving import decode

        class Built(Exception):
            pass

        def refuse(*args, **kwargs):
            raise Built

        prefill = generate_request_table(
            PoissonProcess(120.0), "BERT-B", count=200, seed=0
        )
        generative = generate_request_table(
            PoissonProcess(120.0), "BERT-B", count=50, seed=0, mean_output_tokens=4.0
        )
        faults = make_schedule("fixed", 2)
        kwargs = dict(faults=faults, num_devices=2)
        monkeypatch.setattr(decode, "_DecodeCore", refuse)
        simulate_table(prefill, cost_model, **kwargs)
        simulate_faulty_table(prefill, cost_model, faults, num_devices=2)
        simulate_stream([prefill], cost_model, **kwargs)
        simulate_faulty_stream([prefill], cost_model, faults, num_devices=2)
        with pytest.raises(Built):
            simulate_table(generative, cost_model, **kwargs)
        with pytest.raises(Built):
            simulate_decode_table(prefill, cost_model, **kwargs)
        with pytest.raises(Built):
            simulate_decode_stream([prefill], cost_model, **kwargs)


# ----------------------------------------------------------------------
# property: drawn streams, fleets, schedules and policies
# ----------------------------------------------------------------------
#: Inter-arrival gaps; zero gaps make arrivals tie.
PROPERTY_GAPS_S = (0.0, 1e-3, 2e-3, 5e-3)
#: Outage edges sit on a 1 ms grid over the first 0.4 s, so failures,
#: recoveries, retries and timeouts share instants.
OUTAGE_GRID_S = 1e-3
OUTAGE_SLOTS = 400


@st.composite
def outage_intervals(draw):
    """Up to 6 sorted, disjoint outages of one device.

    An odd number of edges leaves the last outage never ending.
    """
    edges = sorted(
        draw(st.lists(st.integers(0, OUTAGE_SLOTS), unique=True, max_size=12))
    )
    times = [OUTAGE_GRID_S * e for e in edges] + [np.inf]
    return [(times[k], times[k + 1]) for k in range(0, len(edges), 2)]


@st.composite
def fault_cases(draw, output_tokens=(None, 3.0, 24.0)):
    """A tie-heavy stream plus the fleet, schedule and retry policy;
    ``output_tokens`` lists the mean output lengths to draw (None: a
    prefill stream)."""
    num_devices = draw(st.integers(1, 3))
    gaps = draw(st.lists(st.sampled_from(PROPERTY_GAPS_S), min_size=1, max_size=8))
    table = generate_request_table(
        TraceProcess(gaps),
        {"BERT-B": 0.5, "ViT-B": 0.5},
        count=draw(st.integers(1, 80)),
        seed=draw(st.integers(0, 2**16)),
        mean_output_tokens=draw(st.sampled_from(output_tokens)),
        deadline_range_s=draw(st.sampled_from((None, (5e-3, 50e-3)))),
    )
    faults = FaultSchedule.from_intervals(
        [draw(outage_intervals()) for _ in range(num_devices)]
    )
    retry = RetryPolicy(
        max_attempts=draw(st.integers(1, 4)),
        backoff_base_s=draw(st.sampled_from((0.0, 1e-3, 2e-3))),
        backoff_multiplier=draw(st.sampled_from((1.0, 2.0))),
    )
    return table, faults, retry, num_devices


#: Tail draws: outage edges on a 0.5 ms grid within 12 ms of the last
#: arrival, so failures and retries straddle the end-of-stream flush.
TAIL_GRID_S = 5e-4
TAIL_SLOTS = 24
#: End-of-stream paths the tail draws must reach.
TAIL_PATHS = ("retried_completed", "pending_at_last", "flush_after_last")


@st.composite
def tail_fault_cases(draw):
    """A prefill stream whose outages cluster around its last arrival,
    on ``fault_cases``' gap, deadline and retry-policy axes."""
    num_devices = draw(st.integers(1, 3))
    gaps = draw(st.lists(st.sampled_from(PROPERTY_GAPS_S), min_size=1, max_size=8))
    table = generate_request_table(
        TraceProcess(gaps),
        {"BERT-B": 0.5, "ViT-B": 0.5},
        count=draw(st.integers(1, 60)),
        seed=draw(st.integers(0, 2**16)),
        deadline_range_s=draw(st.sampled_from((None, (5e-3, 50e-3)))),
    )
    anchor = round(float(table.arrival_s.max()) / TAIL_GRID_S)
    intervals = []
    for _ in range(num_devices):
        slots = draw(
            st.lists(
                st.integers(max(0, anchor - TAIL_SLOTS), anchor + TAIL_SLOTS),
                unique=True,
                max_size=12,
            )
        )
        times = [TAIL_GRID_S * e for e in sorted(slots)] + [np.inf]
        intervals.append([(times[k], times[k + 1]) for k in range(0, len(slots), 2)])
    retry = RetryPolicy(
        max_attempts=draw(st.integers(1, 4)),
        backoff_base_s=draw(st.sampled_from((0.0, 1e-3, 2e-3))),
        backoff_multiplier=draw(st.sampled_from((1.0, 2.0))),
    )
    return table, FaultSchedule.from_intervals(intervals), retry, num_devices


def tail_paths(table, result, retry, max_batch_size, max_wait_s):
    """Which of :data:`TAIL_PATHS` a fault run reached, read off its
    result columns."""
    last = float(table.arrival_s.max())
    done = result.drop_reason == 0
    reached = set()
    if np.any(done & (result.attempts > 1)):
        reached.add("retried_completed")
    for request_id, at, attempt, _ in result.retry_events:
        # Outage edges and arrivals sit >= 0.5 ms apart or on one grid
        # point; the margin only absorbs the backoff's rounding.
        failed = at - retry.backoff_s(attempt - 1)
        if failed < last - 1e-9 and at >= last:
            reached.add("pending_at_last")
        row = int(np.flatnonzero(result.request_id == request_id)[0])
        if (
            max_wait_s > 0
            and at >= last
            and done[row]
            and result.attempts[row] == attempt
            and result.batched_s[row] == at
            and result.batch_size[row] < max_batch_size
        ):
            # Admitted and sealed at its retry instant, neither by size
            # nor by a timeout (which would have sealed before it
            # joined): the end-of-stream flush at a retry.
            reached.add("flush_after_last")
    return reached


#: Twelve BERT-B requests 5 ms apart on a chip that serves batches of
#: two in ~15 ms: at 7-row slices the first slice's last arrival is at
#: 35 ms, the table's at 60 ms.
SLICED_FAULT_TABLE = generate_request_table(
    TraceProcess([5e-3]), "BERT-B", count=12, seed=0
)
#: The batch lost at 34 ms retries at 36 ms, past the first slice.
RETRY_ACROSS_SLICES = (
    SLICED_FAULT_TABLE,
    FaultSchedule.from_intervals([[(0.034, 0.045)]]),
    RetryPolicy(backoff_base_s=2e-3),
    1,
)
#: A batch of the last slice is lost at 58 ms and retries after the
#: last arrival.
LOST_IN_LAST_SLICE = (
    SLICED_FAULT_TABLE,
    FaultSchedule.from_intervals([[(0.058, 0.07)]]),
    RetryPolicy(backoff_base_s=2e-3),
    1,
)
#: Both chips go down for good within the first slice, so every batch
#: sealed after it strands.
STRANDED_ACROSS_SLICES = (
    SLICED_FAULT_TABLE,
    FaultSchedule.from_intervals([[(0.02, np.inf)], [(0.025, np.inf)]]),
    RetryPolicy(),
    2,
)


class TestFaultProperty:
    @given(
        case=fault_cases(),
        max_batch_size=st.integers(1, 8),
        max_wait_s=st.sampled_from((0.0, 2e-3)),
    )
    @settings(max_examples=150, deadline=None)
    def test_fast_equals_reference(self, cost_model, case, max_batch_size, max_wait_s):
        table, faults, retry, num_devices = case
        assert_fault_runs_equal(
            table, cost_model, faults, retry, num_devices, max_wait_s, max_batch_size
        )

    @given(
        case=fault_cases(),
        chunk_size=st.integers(1, 80),
        max_batch_size=st.integers(1, 8),
        max_wait_s=st.sampled_from((0.0, 2e-3)),
    )
    @settings(max_examples=150, deadline=None)
    def test_stream_equals_table(
        self, cost_model, case, chunk_size, max_batch_size, max_wait_s
    ):
        # Prefill draws run the prefill core in both drivers and diff it
        # with the decode core's stream driver; generative draws run the
        # decode core throughout.
        table, faults, retry, num_devices = case
        assert_stream_equals_table(
            table,
            cost_model,
            chunk_size,
            faults=faults,
            retry=retry,
            num_devices=num_devices,
            max_batch_size=max_batch_size,
            max_wait_s=max_wait_s,
        )

    def test_tail_draws_equal_reference_and_stream(self, cost_model):
        """Outages around the last arrival: the prefill core equals the
        reference loop, its own stream driver and the decode core's, and
        the draws reach the re-formation paths at the end of the
        stream."""
        reached = dict.fromkeys(TAIL_PATHS, 0)

        @given(
            case=tail_fault_cases(),
            chunk_size=st.integers(1, 60),
            max_batch_size=st.integers(1, 8),
            max_wait_s=st.sampled_from((0.0, 2e-3)),
        )
        @settings(max_examples=300, deadline=None, derandomize=True, database=None)
        def check(case, chunk_size, max_batch_size, max_wait_s):
            table, faults, retry, num_devices = case
            assert_fault_runs_equal(
                table,
                cost_model,
                faults,
                retry,
                num_devices,
                max_wait_s,
                max_batch_size,
            )
            whole = assert_stream_equals_table(
                table,
                cost_model,
                chunk_size,
                faults=faults,
                retry=retry,
                num_devices=num_devices,
                max_batch_size=max_batch_size,
                max_wait_s=max_wait_s,
            )
            for path in tail_paths(table, whole, retry, max_batch_size, max_wait_s):
                reached[path] += 1

        check()
        assert all(reached.values()), reached

    def test_sliced_table_equals_reference_and_stream(self, cost_model):
        """Prefill draws at slices of 1, 7 and 64 rows, so that most
        tables span many: the sliced table equals the reference loop,
        Chrome trace included, and every column and total equals both
        stream drivers'; each end-of-stream path is reached at a slice
        smaller than the table."""
        reached = dict.fromkeys(TAIL_PATHS, 0)
        pinned = dict(slice_rows=7, chunk_size=5, max_batch_size=2, max_wait_s=2e-3)

        @given(
            case=st.one_of(fault_cases(output_tokens=(None,)), tail_fault_cases()),
            slice_rows=st.sampled_from((1, 7, 64)),
            chunk_size=st.integers(1, 80),
            max_batch_size=st.integers(1, 8),
            max_wait_s=st.sampled_from((0.0, 2e-3)),
        )
        @example(case=RETRY_ACROSS_SLICES, **pinned)
        @example(case=LOST_IN_LAST_SLICE, **pinned)
        @example(case=STRANDED_ACROSS_SLICES, **pinned)
        @settings(max_examples=200, deadline=None, derandomize=True, database=None)
        def check(case, slice_rows, chunk_size, max_batch_size, max_wait_s):
            table, faults, retry, num_devices = case
            knobs = dict(
                num_devices=num_devices,
                max_batch_size=max_batch_size,
                max_wait_s=max_wait_s,
            )
            config = TraceConfig(head=0, stride=1)  # every request
            fast_trace, reference_trace = TraceRecorder(config), TraceRecorder(config)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(engine, "_SLICE_ROWS", slice_rows)
                fast = simulate_table(
                    table, cost_model, faults=faults, retry=retry,
                    recorder=fast_trace, **knobs,
                )
                assert_stream_equals_table(
                    table, cost_model, chunk_size, faults=faults, retry=retry, **knobs
                )
            reference = run_reference(
                table, cost_model, faults, retry, num_devices, max_wait_s,
                max_batch_size, recorder=reference_trace,
            )
            assert fast.to_result() == reference
            assert fast_trace.to_chrome_trace() == reference_trace.to_chrome_trace()
            if slice_rows < len(table):
                for path in tail_paths(table, fast, retry, max_batch_size, max_wait_s):
                    reached[path] += 1

        check()
        assert all(reached.values()), reached


# ----------------------------------------------------------------------
# the fleet model alone
# ----------------------------------------------------------------------
#: Prompt lengths the fleet property prices: batch services of 0.8 to
#: 21 ms, long enough that many batches straddle an outage's start.
FLEET_LENGTHS = (64, 128)


def first_up(trace, t):
    """Brute force: the first instant at or after ``t`` at which the
    device is up -- ``t`` itself, or the end of an outage after it."""
    candidates = [t] + [up for up in trace.up_s if up > t]
    return next(instant for instant in candidates if trace.is_up(instant))


def _bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


class TestFleet:
    @given(
        intervals=st.lists(outage_intervals(), min_size=1, max_size=3),
        batches=st.lists(
            st.tuples(
                st.integers(0, OUTAGE_SLOTS),
                st.sampled_from(FLEET_LENGTHS),
                st.integers(1, 8),
            ),
            max_size=40,
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_place_and_run_equal_brute_force(self, cost_model, intervals, batches):
        """Batches sealed at non-decreasing instants: every placement is
        the brute-force scan's, and every booking or loss is the
        reference device's (:meth:`SprintDevice.start_step_batch`,
        :meth:`SprintDevice.lose_step_batch`), bitwise."""
        faults = FaultSchedule.from_intervals(intervals)
        fleet = Fleet(faults, RetryPolicy())
        devices = [SprintDevice(d, cost_model) for d in range(len(intervals))]
        spec = get_model("BERT-B")
        wasted = 0.0
        for slot, length, size in sorted(batches):
            sealed = OUTAGE_GRID_S * slot
            # Each device's first up instant at or after its raw free
            # time (its last batch's finish or failure) and the seal.
            firsts = [
                first_up(trace, max(sealed, device.busy_until_s))
                for trace, device in zip(faults.traces, devices)
            ]
            start, d = fleet.place(sealed)
            if min(firsts) == np.inf:
                assert (start, d) == (np.inf, -1)  # stranded
                continue
            assert (start, d) == (min(firsts), firsts.index(min(firsts)))
            device, trace = devices[d], faults.traces[d]
            service = device.step_service_time_s(spec, length, size, False)
            energy = cost_model.sample_cost(spec, length).energy_pj * size
            fail = fleet.run(d, start, service, energy)
            down = trace.next_down_after(start)
            if down < start + service:
                assert fail == down
                wasted += device.lose_step_batch(spec, length, size, False, start, down)
                assert fleet.free_at[d] == first_up(trace, device.busy_until_s)
            else:
                assert fail is None
                device.start_step_batch(spec, length, size, False, start)
                assert fleet.free_at[d] == device.busy_until_s
            assert _bits(fleet.busy_s) == _bits([dev.busy_s for dev in devices])
            assert _bits(fleet.energy_pj) == _bits([dev.energy_pj for dev in devices])
            assert _bits([fleet.wasted_energy_pj]) == _bits([wasted])


# ----------------------------------------------------------------------
# conservation properties: every fault run, any schedule
# ----------------------------------------------------------------------
class TestConservation:
    @pytest.mark.parametrize("pattern", ("poisson", "bursty", "trace"))
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("num_devices", DEVICE_COUNTS)
    def test_fault_run_invariants(self, cost_model, pattern, seed, num_devices):
        table = generate_request_table(
            make_process(pattern), "BERT-B", count=200, seed=seed
        )
        cost_model.prime(table.specs[0], table.valid_len)
        faults = make_schedule("exponential", num_devices, seed=seed)
        result = simulate_faulty_table(
            table,
            cost_model,
            faults,
            retry=RetryPolicy(),
            num_devices=num_devices,
            max_wait_s=2e-3,
        ).to_result()
        # Every request is accounted for exactly once.
        assert len(result.records) + len(result.dropped) == len(table)
        assert result.retries >= 0
        assert result.failed_batches >= 0
        assert result.wasted_energy_pj >= 0.0
        # A completed request that ever lost a batch carries attempts
        # >= 2; drop records carry their (started) lost attempts.
        for rec in result.records:
            assert rec.attempts >= 1
        retried_ids = {rid for rid, _, _, _ in result.retry_events}
        for rec in result.records:
            if rec.request.request_id in retried_ids:
                assert rec.attempts >= 2
        for d in result.dropped:
            assert d.attempts >= 0
            assert d.reason in ("retries", "deadline", "stranded")
        # Per device: busy time never exceeds uptime within the span.
        span = result.end_s - result.start_s
        for dev in range(num_devices):
            downtime = faults.downtime_within(
                dev, result.start_s, result.end_s
            )
            assert result.device_busy_s[dev] <= span - downtime + 1e-9
            assert result.device_downtime_s[dev] == pytest.approx(downtime)

    def test_summarize_conservation_and_engine_agreement(self, cost_model):
        table = generate_request_table(
            PoissonProcess(120.0), "BERT-B", count=200, seed=0
        )
        cost_model.prime(table.specs[0], table.valid_len)
        faults = make_schedule("exponential", 2)
        kwargs = dict(
            config=S_SPRINT.name,
            mode="sprint",
            pattern="poisson",
            offered_rps=120.0,
            sla_s=0.1,
        )
        fast = summarize(
            simulate_faulty_table(
                table, cost_model, faults, num_devices=2, max_wait_s=2e-3
            ),
            **kwargs,
        )
        ref = summarize(
            run_reference(table, cost_model, faults, None, 2, 2e-3), **kwargs
        )
        assert fast == ref  # dataclass equality across all fault fields
        assert fast.faulted
        assert fast.requests + fast.dropped_requests == len(table)
        assert fast.offered_requests == len(table)
        assert sum(fast.dropped_by_reason.values()) == fast.dropped_requests
        assert 0.0 <= fast.availability <= 1.0
        assert fast.goodput_rps <= fast.offered_rps * 1.5  # sanity scale
        assert "availability" in fast.describe()


# ----------------------------------------------------------------------
# chunked fault-mode stream == whole-table fault run
# ----------------------------------------------------------------------
class TestFaultStream:
    @pytest.mark.parametrize("chunk_size", (1, 7, 50, 200))
    @pytest.mark.parametrize("generative", (False, True))
    def test_chunk_sizes_match_table(self, cost_model, chunk_size, generative):
        table = generate_request_table(
            PoissonProcess(120.0),
            "BERT-B",
            count=200,
            seed=0,
            mean_output_tokens=4.0 if generative else None,
        )
        cost_model.prime(table.specs[0], table.valid_len)
        faults = make_schedule("exponential", 2)
        whole = simulate_faulty_table(
            table, cost_model, faults, num_devices=2, max_wait_s=2e-3
        )
        chunks = [
            table.slice(lo, min(lo + chunk_size, len(table)))
            for lo in range(0, len(table), chunk_size)
        ]
        collected = []
        streamed = simulate_faulty_stream(
            chunks,
            cost_model,
            faults,
            num_devices=2,
            max_wait_s=2e-3,
            sink=collected.append,
        )
        assert streamed.offered == len(table)
        assert streamed.completed == int(whole.completed)
        assert streamed.dropped == int(whole.dropped)
        assert streamed.start_s == whole.start_s
        assert streamed.end_s == whole.end_s
        assert streamed.device_busy_s == list(whole.device_busy_s)
        assert streamed.device_energy_pj == list(whole.device_energy_pj)
        assert streamed.device_downtime_s == list(whole.device_downtime_s)
        assert streamed.batches == whole.batches
        assert streamed.retries == whole.retries
        assert streamed.failed_batches == whole.failed_batches
        assert streamed.wasted_energy_pj == whole.wasted_energy_pj
        assert streamed.total_tokens == whole.total_tokens
        # Sink chunks carry every completed request exactly once, with
        # the same attempts column the table run recorded.
        ids = np.concatenate([c.request_id for c in collected])
        attempts = np.concatenate([c.attempts for c in collected])
        mask = whole.drop_reason == 0
        by_id = dict(zip(ids.tolist(), attempts.tolist()))
        table_ids = whole.request_id[mask]
        assert sorted(ids.tolist()) == sorted(table_ids.tolist())
        for rid, att in zip(table_ids, whole.attempts[mask]):
            assert by_id[int(rid)] == int(att)

    def test_summarize_stream_matches_exact_fault_summary(self, cost_model):
        table = generate_request_table(
            PoissonProcess(120.0), "BERT-B", count=300, seed=0
        )
        cost_model.prime(table.specs[0], table.valid_len)
        faults = make_schedule("exponential", 2)
        kwargs = dict(
            config=S_SPRINT.name,
            mode="sprint",
            pattern="poisson",
            offered_rps=120.0,
            sla_s=0.1,
            num_devices=2,
            max_wait_s=2e-3,
        )
        chunks = [
            table.slice(lo, min(lo + 64, len(table)))
            for lo in range(0, len(table), 64)
        ]
        streamed = summarize_stream(chunks, cost_model, faults=faults, **kwargs)
        exact = summarize(
            simulate_faulty_table(
                table, cost_model, faults, num_devices=2, max_wait_s=2e-3
            ),
            config=S_SPRINT.name,
            mode="sprint",
            pattern="poisson",
            offered_rps=120.0,
            sla_s=0.1,
        )
        assert streamed.faulted and exact.faulted
        assert streamed.requests == exact.requests
        assert streamed.dropped_requests == exact.dropped_requests
        assert streamed.dropped_by_reason == exact.dropped_by_reason
        assert streamed.retries == exact.retries
        assert streamed.retried_completed == exact.retried_completed
        assert streamed.failed_batches == exact.failed_batches
        assert streamed.wasted_energy_uj == exact.wasted_energy_uj
        assert streamed.availability == exact.availability
        assert streamed.throughput_rps == exact.throughput_rps
        # Sketch-bounded percentiles: within the documented 1% bound.
        assert streamed.latency.p99_s == pytest.approx(
            exact.latency.p99_s, rel=0.02
        )


# ----------------------------------------------------------------------
# fault traces: byte-identical across engines
# ----------------------------------------------------------------------
class TestFaultTraces:
    def test_fast_and_reference_fault_traces_byte_identical(
        self, cost_model, tmp_path
    ):
        table = generate_request_table(
            PoissonProcess(120.0), "BERT-B", count=200, seed=0
        )
        cost_model.prime(table.specs[0], table.valid_len)
        faults = make_schedule("exponential", 2)
        config = TraceConfig(head=0, stride=1)  # record everything
        fast_rec = TraceRecorder(config)
        simulate_faulty_table(
            table,
            cost_model,
            faults,
            num_devices=2,
            max_wait_s=2e-3,
            recorder=fast_rec,
        )
        ref_rec = TraceRecorder(config)
        run_reference(
            table, cost_model, faults, None, 2, 2e-3, recorder=ref_rec
        )
        fast_path = fast_rec.write(tmp_path / "fast.json")
        ref_path = ref_rec.write(tmp_path / "reference.json")
        assert fast_rec.recorded_outages > 0
        assert fast_rec.sampled_retries > 0
        assert fast_path.read_bytes() == ref_path.read_bytes()


# ----------------------------------------------------------------------
# deadline sampling: a fifth draw phase, order-preserving
# ----------------------------------------------------------------------
class TestDeadlineSampling:
    def test_deadline_phase_preserves_earlier_columns(self):
        base = generate_request_table(
            PoissonProcess(120.0), "BERT-B", count=300, seed=0,
            mean_output_tokens=4.0,
        )
        with_dl = generate_request_table(
            PoissonProcess(120.0), "BERT-B", count=300, seed=0,
            mean_output_tokens=4.0, deadline_range_s=(0.05, 0.5),
        )
        # The deadline draw happens strictly after every other phase,
        # so adding it leaves the established columns byte-identical.
        assert base.arrival_s.tobytes() == with_dl.arrival_s.tobytes()
        assert base.request_id.tobytes() == with_dl.request_id.tobytes()
        assert base.spec_idx.tobytes() == with_dl.spec_idx.tobytes()
        assert base.valid_len.tobytes() == with_dl.valid_len.tobytes()
        assert base.output_len.tobytes() == with_dl.output_len.tobytes()
        assert base.deadline_s is None
        assert with_dl.deadline_s is not None
        assert np.all(with_dl.deadline_s >= 0.05)
        assert np.all(with_dl.deadline_s <= 0.5)

    def test_deadline_range_validation(self):
        with pytest.raises(ValueError, match="deadline_range_s"):
            generate_request_table(
                PoissonProcess(120.0), "BERT-B", count=10, seed=0,
                deadline_range_s=(0.0, 0.5),
            )
        with pytest.raises(ValueError, match="deadline_range_s"):
            generate_request_table(
                PoissonProcess(120.0), "BERT-B", count=10, seed=0,
                deadline_range_s=(0.5, 0.1),
            )

    def test_deadlines_survive_round_trips(self):
        table = generate_request_table(
            PoissonProcess(120.0), "BERT-B", count=50, seed=0,
            deadline_range_s=(0.05, 0.5),
        )
        requests = table.to_requests()
        assert all(r.deadline_s is not None for r in requests)
        part = table.slice(10, 20)
        assert part.deadline_s is not None
        assert part.deadline_s.tolist() == table.deadline_s[10:20].tolist()


# ----------------------------------------------------------------------
# entry-point validation (satellite: input hardening)
# ----------------------------------------------------------------------
class TestValidation:
    @pytest.fixture()
    def table(self):
        return generate_request_table(
            PoissonProcess(120.0), "BERT-B", count=20, seed=0
        )

    def test_empty_table_rejected(self, cost_model, table):
        empty = type(table)(
            specs=table.specs,
            request_id=np.empty(0, dtype=np.int64),
            arrival_s=np.empty(0, dtype=np.float64),
            spec_idx=np.empty(0, dtype=np.int64),
            valid_len=np.empty(0, dtype=np.int64),
        )
        with pytest.raises(ValueError, match="empty"):
            simulate_table(empty, cost_model)
        with pytest.raises(ValueError, match="empty"):
            simulate_faulty_table(empty, cost_model, FaultSchedule.none(1))

    def test_bad_device_count_rejected(self, cost_model, table):
        with pytest.raises(ValueError, match="device"):
            simulate_table(table, cost_model, num_devices=0)
        with pytest.raises(ValueError, match="device"):
            simulate_faulty_table(
                table, cost_model, FaultSchedule.none(1), num_devices=0
            )
        with pytest.raises(ValueError, match="device"):
            FaultSchedule.none(0)
        with pytest.raises(ValueError, match="num_devices"):
            FaultSchedule.none(2.5)
        with pytest.raises(ValueError, match="num_devices"):
            FaultSchedule.exponential(2.5, mtbf_s=1.0, mttr_s=0.5, horizon_s=10.0)

    def test_negative_wait_rejected(self, cost_model, table):
        with pytest.raises(ValueError, match="max_wait_s"):
            simulate_table(table, cost_model, max_wait_s=-1e-3)
        with pytest.raises(ValueError, match="max_wait_s"):
            simulate_faulty_table(
                table, cost_model, FaultSchedule.none(1), max_wait_s=-1e-3
            )

    def test_negative_load_rejected(self):
        from repro.experiments.serving import make_process as mk

        with pytest.raises(ValueError, match="rate_rps"):
            mk("poisson", -5.0)
        with pytest.raises(ValueError, match="rate_rps"):
            PoissonProcess(rate_rps=-1.0)

    def test_retry_without_faults_rejected(self, cost_model, table):
        with pytest.raises(ValueError, match="retry"):
            simulate_table(table, cost_model, retry=RetryPolicy())

    def test_schedule_fleet_mismatch_rejected(self, cost_model, table):
        with pytest.raises(ValueError, match="fleet"):
            simulate_faulty_table(
                table, cost_model, FaultSchedule.none(3), num_devices=2
            )

    def test_retry_policy_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_base_s=-1.0)
        with pytest.raises(ValueError, match="max_attempts"):
            RetryPolicy(max_attempts=2.5)
        for value in (np.nan, np.inf):
            with pytest.raises(ValueError, match="backoff_base_s"):
                RetryPolicy(backoff_base_s=value)
            with pytest.raises(ValueError, match="backoff_multiplier"):
                RetryPolicy(backoff_multiplier=value)

    def test_exponential_schedule_bounds_validation(self):
        # NaN fails every check, and an infinite horizon is rejected: the
        # draw would never end.  An infinite MTBF (no outages) or MTTR
        # (a device that never recovers) stays legal.
        bounds = dict(mtbf_s=1.0, mttr_s=0.5, horizon_s=10.0)
        for name, value in [
            ("mtbf_s", np.nan),
            ("mttr_s", np.nan),
            ("horizon_s", np.nan),
            ("horizon_s", np.inf),
        ]:
            with pytest.raises(ValueError, match=name):
                FaultSchedule.exponential(2, **dict(bounds, **{name: value}))
        assert not len(FaultSchedule.exponential(2, **dict(bounds, mtbf_s=np.inf)).traces[0])
        never = FaultSchedule.exponential(2, **dict(bounds, mttr_s=np.inf))
        assert all(trace.up_s == (np.inf,) for trace in never.traces)

    def test_request_deadline_validation(self, table):
        from repro.serving import Request

        spec = table.specs[0]
        with pytest.raises(ValueError, match="deadline"):
            Request(
                request_id=0, arrival_s=0.0, spec=spec, valid_len=16,
                deadline_s=0.0,
            )

    def test_resilience_experiment_validation(self):
        from repro.experiments.resilience import ResilienceExperiment

        with pytest.raises(ValueError, match="engine"):
            ResilienceExperiment(engine="warp")
        with pytest.raises(ValueError, match="load"):
            ResilienceExperiment(load=-3.0)
        with pytest.raises(ValueError, match="mttr"):
            ResilienceExperiment(mttr_s=0.0)
        with pytest.raises(ValueError, match="deadline"):
            ResilienceExperiment(
                engine="stream", deadline_range_s=(0.1, 0.2)
            )
        with pytest.raises(KeyError, match="policy"):
            ResilienceExperiment().simulate(1.0, 1, "nope", 10)
