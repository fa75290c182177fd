"""Deterministic device-fault injection for the serving simulators.

A :class:`FaultSchedule` assigns every device a fixed list of outage
intervals -- either written down directly (:meth:`FaultSchedule
.from_intervals`) or drawn from seeded exponential MTBF/MTTR
generators (:meth:`FaultSchedule.exponential`).  The schedule is
*exogenous*: outages depend only on (seed, device), never on simulated
traffic, so every batch's fate is preordained at dispatch time and the
event loops never roll anything back.  Generated schedules are
materialized up front -- O(expected failures), independent of stream
length -- so chunked (out-of-core) runs replay the exact same outages
no matter how the stream is cut, the fault-layer analogue of
``ArrivalProcess.cursor``.

Failure semantics
-----------------
* A device is *down* over half-open intervals ``[down_s, up_s)``: it
  can start a batch at the exact recovery instant, and a batch that
  finishes exactly when the outage begins completes.
* A batch whose device dies mid-execution is **lost** at the failure
  instant: the device stays occupied until then (the work happened, it
  just produced nothing), the partial energy is accounted as *wasted*,
  and every member re-enters its queue under the :class:`RetryPolicy`
  -- bounded attempts with exponential backoff -- or is dropped once
  its budget or per-request deadline (``Request.deadline_s``, relative
  to arrival) is exhausted.
* If the whole fleet is down forever with sealed work still queued,
  those requests are dropped as ``stranded``.

Both serving paths understand fault schedules: the per-request
reference loop (:mod:`repro.serving.scheduler`) defines the semantics,
and the columnar fast path is the decode engine's event core
(:class:`repro.serving.decode._DecodeCore`) run with the schedule and
retry policy as its fault hook.  It is pinned bitwise-equal under every
schedule (and equal to the no-fault engines when the schedule is
empty).  This module holds the schedule and policy types, the fault
result types and the two drivers.  Conservation holds by construction:
``completed + dropped == offered``.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.obs.trace import TraceRecorder
from repro.serving.decode import (
    _ARR,
    _DSLOT,
    _FIN,
    _FLS,
    _FT,
    _OLEN,
    _PFB,
    _PFD,
    _PFS,
    _PFSZ,
    _RID,
    _ROW,
    DROP_DEADLINE,
    DROP_NONE,  # noqa: F401 - re-exported
    DROP_RETRIES,
    DROP_STRANDED,
    _DecodeCore,
    _validate_knobs,
)
from repro.serving.devices import DEFAULT_SETUP_CYCLES, ServiceCostModel
from repro.serving.requests import Request, RequestTable, has_duplicate_ids

_INF = float("inf")

DROP_REASON_NAMES = {
    DROP_RETRIES: "retries",
    DROP_DEADLINE: "deadline",
    DROP_STRANDED: "stranded",
}


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff for lost batches.

    A request's k-th failure (k counted from 1) schedules a retry at
    ``failure_instant + backoff_base_s * backoff_multiplier**(k - 1)``
    unless k has reached ``max_attempts`` (the request is dropped with
    reason ``retries``) or the retry instant overshoots the request's
    absolute deadline (dropped with reason ``deadline``).  Deadlines
    gate *retries only* -- a request that completes on its first
    attempt is never deadline-checked, so fault-free runs are
    untouched by deadline columns.
    """

    max_attempts: int = 3
    backoff_base_s: float = 1e-3
    backoff_multiplier: float = 2.0

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be positive")
        if self.backoff_base_s < 0:
            raise ValueError("backoff_base_s must be non-negative")
        if self.backoff_multiplier < 1.0:
            raise ValueError("backoff_multiplier must be >= 1")

    def backoff_s(self, failure_index: int) -> float:
        """Backoff after the ``failure_index``-th failure (1-based)."""
        return self.backoff_base_s * self.backoff_multiplier ** (failure_index - 1)


class DeviceFaultTrace:
    """Sorted, disjoint half-open ``[down_s, up_s)`` outages of one device."""

    __slots__ = ("down_s", "up_s")

    def __init__(self, intervals: Sequence[Tuple[float, float]]):
        downs: List[float] = []
        ups: List[float] = []
        prev_up = 0.0
        for down, up in intervals:
            down = float(down)
            up = float(up)
            if down < 0:
                raise ValueError("outage start must be non-negative")
            if not up > down:
                raise ValueError("outage end must exceed its start")
            if downs and down <= prev_up:
                raise ValueError("outage intervals must be sorted and disjoint")
            downs.append(down)
            ups.append(up)
            prev_up = up
        self.down_s: Tuple[float, ...] = tuple(downs)
        self.up_s: Tuple[float, ...] = tuple(ups)

    def __len__(self) -> int:
        return len(self.down_s)

    def is_up(self, t: float) -> bool:
        idx = bisect_right(self.down_s, t) - 1
        return idx < 0 or t >= self.up_s[idx]

    def next_down_after(self, t: float) -> float:
        """Start of the first outage strictly after ``t`` (inf if none)."""
        idx = bisect_right(self.down_s, t)
        return self.down_s[idx] if idx < len(self.down_s) else _INF

    def downtime_within(self, t0: float, t1: float) -> float:
        """Seconds of outage overlapping ``[t0, t1]``."""
        total = 0.0
        for down, up in zip(self.down_s, self.up_s):
            if down >= t1:
                break
            overlap = min(up, t1) - max(down, t0)
            if overlap > 0:
                total += overlap
        return total


class FaultSchedule:
    """Per-device outage traces; index = device position in the fleet."""

    def __init__(self, traces: Sequence[DeviceFaultTrace]):
        self.traces: List[DeviceFaultTrace] = list(traces)

    def __len__(self) -> int:
        return len(self.traces)

    # ------------------------------------------------------------------
    @classmethod
    def from_intervals(
        cls, intervals_per_device: Sequence[Sequence[Tuple[float, float]]]
    ) -> "FaultSchedule":
        """Fixed outage traces, one interval list per device."""
        return cls([DeviceFaultTrace(iv) for iv in intervals_per_device])

    @classmethod
    def none(cls, num_devices: int) -> "FaultSchedule":
        """An empty schedule: every device is up forever."""
        if num_devices < 1:
            raise ValueError("at least one device required")
        return cls([DeviceFaultTrace(()) for _ in range(num_devices)])

    @classmethod
    def exponential(
        cls,
        num_devices: int,
        mtbf_s: float,
        mttr_s: float,
        horizon_s: float,
        seed: int = 0,
    ) -> "FaultSchedule":
        """Seeded alternating-renewal outages: Exp(mtbf) up, Exp(mttr) down.

        Each device draws from its own ``default_rng([seed, device])``
        stream, so the schedule for device ``d`` is identical no matter
        the fleet size, and the whole schedule is materialized up front
        (outages whose *start* falls before ``horizon_s``), making
        chunked replays exact by construction.
        """
        if num_devices < 1:
            raise ValueError("at least one device required")
        if mtbf_s <= 0 or mttr_s <= 0:
            raise ValueError("mtbf_s and mttr_s must be positive")
        if horizon_s <= 0:
            raise ValueError("horizon_s must be positive")
        traces = []
        for device in range(num_devices):
            rng = np.random.default_rng([seed, device])
            t = 0.0
            intervals: List[Tuple[float, float]] = []
            while True:
                t += float(rng.exponential(mtbf_s))
                if t >= horizon_s:
                    break
                down = t
                t += float(rng.exponential(mttr_s))
                intervals.append((down, t))
            traces.append(DeviceFaultTrace(intervals))
        return cls(traces)

    # ------------------------------------------------------------------
    def validate_for(self, num_devices: int) -> None:
        if len(self.traces) != num_devices:
            raise ValueError(
                f"fault schedule covers {len(self.traces)} devices, "
                f"fleet has {num_devices}"
            )

    def is_up(self, device: int, t: float) -> bool:
        return self.traces[device].is_up(t)

    def next_down_after(self, device: int, t: float) -> float:
        return self.traces[device].next_down_after(t)

    def recovery_events(self) -> List[Tuple[int, float]]:
        """(device, recovery instant) for every finite outage end.

        Both engines push these a priori -- a recovery only exists to
        re-trigger dispatch; up/down state itself is a pure function of
        time -- and in the same (device-major, then chronological)
        order, so same-instant tie-breaks agree.
        """
        events = []
        for device, trace in enumerate(self.traces):
            for up in trace.up_s:
                if up < _INF:
                    events.append((device, up))
        return events

    def downtime_within(self, device: int, t0: float, t1: float) -> float:
        return self.traces[device].downtime_within(t0, t1)


@dataclass
class DroppedRecord:
    """One request the fault layer gave up on."""

    request: Request
    #: ``retries`` (attempt budget exhausted), ``deadline`` (the next
    #: retry would land past the request's deadline), or ``stranded``
    #: (the whole fleet died with the request's batch still queued).
    reason: str
    dropped_s: float
    #: Dispatch attempts that actually started (and were lost).
    attempts: int


@dataclass
class FaultColumnarResult:
    """A fault-mode run's per-request columns plus fleet accounting.

    Rows are in canonical (arrival, id) order.  ``completed`` masks
    the rows that finished; dropped rows carry ``drop_reason`` /
    ``dropped_s`` instead of service timestamps.  ``generative``
    selects which reference result :meth:`to_result` rebuilds.
    """

    table: RequestTable
    generative: bool
    completed: np.ndarray
    attempts: np.ndarray
    drop_reason: np.ndarray
    dropped_s: np.ndarray
    #: Row indices of dropped requests in drop-event order (the
    #: reference result's ``dropped`` list order).
    drop_order: np.ndarray
    batched_s: np.ndarray
    service_start_s: np.ndarray
    first_token_s: np.ndarray
    finish_s: np.ndarray
    batch_size: np.ndarray
    device_id: np.ndarray
    decode_slots: np.ndarray
    start_s: float
    end_s: float
    device_busy_s: List[float]
    device_energy_pj: List[float]
    device_downtime_s: List[float]
    batches: int
    prefill_batches: int
    decode_batches: int
    size_triggered_batches: int
    timeout_triggered_batches: int
    total_tokens: int
    retries: int
    failed_batches: int
    wasted_energy_pj: float
    retry_events: List[Tuple[int, float, int, str]]

    @property
    def duration_s(self) -> float:
        return max(self.end_s - self.start_s, 0.0)

    @property
    def completed_count(self) -> int:
        return int(np.count_nonzero(self.completed))

    @property
    def dropped_count(self) -> int:
        return int(self.drop_order.size)

    @property
    def latency_s(self) -> np.ndarray:
        """End-to-end latency of the *completed* rows."""
        m = self.completed
        return self.finish_s[m] - self.table.arrival_s[m]

    @property
    def queue_wait_s(self) -> np.ndarray:
        m = self.completed
        return self.service_start_s[m] - self.table.arrival_s[m]

    @property
    def ttft_s(self) -> np.ndarray:
        m = self.completed
        return self.first_token_s[m] - self.table.arrival_s[m]

    @property
    def tbt_s(self) -> np.ndarray:
        """Mean time between tokens of completed multi-token rows."""
        out = self.table.output_len
        if out is None:
            return np.empty(0, dtype=np.float64)
        m = self.completed & (out > 1)
        steps = out[m] - 1
        return (self.finish_s[m] - self.first_token_s[m]) / steps

    # ------------------------------------------------------------------
    def _request_at(self, row: int) -> Request:
        t = self.table
        out = t.output_len
        dl = t.deadline_s
        deadline = None
        if dl is not None and np.isfinite(dl[row]):
            deadline = float(dl[row])
        return Request(
            request_id=int(t.request_id[row]),
            arrival_s=float(t.arrival_s[row]),
            spec=t.specs[int(t.spec_idx[row])],
            valid_len=int(t.valid_len[row]),
            output_len=1 if out is None else int(out[row]),
            deadline_s=deadline,
        )

    def to_result(self):
        """Rebuild the reference result (for the equivalence suite)."""
        from repro.serving.scheduler import (
            DecodeRecord,
            GenerativeResult,
            RequestRecord,
            ServingResult,
        )

        dropped = [
            DroppedRecord(
                request=self._request_at(row),
                reason=DROP_REASON_NAMES[int(self.drop_reason[row])],
                dropped_s=float(self.dropped_s[row]),
                attempts=int(self.attempts[row]),
            )
            for row in self.drop_order
        ]
        rows = np.flatnonzero(self.completed)
        common = dict(
            start_s=self.start_s,
            end_s=self.end_s,
            device_busy_s=list(self.device_busy_s),
            device_energy_pj=list(self.device_energy_pj),
            batches=self.batches,
            size_triggered_batches=self.size_triggered_batches,
            timeout_triggered_batches=self.timeout_triggered_batches,
            retries=self.retries,
            failed_batches=self.failed_batches,
            wasted_energy_pj=self.wasted_energy_pj,
            dropped=dropped,
            device_downtime_s=list(self.device_downtime_s),
            retry_events=list(self.retry_events),
        )
        if self.generative:
            records = [
                DecodeRecord(
                    request=self._request_at(row),
                    prefill_batched_s=float(self.batched_s[row]),
                    prefill_start_s=float(self.service_start_s[row]),
                    first_token_s=float(self.first_token_s[row]),
                    finish_s=float(self.finish_s[row]),
                    prefill_batch_size=int(self.batch_size[row]),
                    prefill_device_id=int(self.device_id[row]),
                    decode_slots=int(self.decode_slots[row]),
                    attempts=int(self.attempts[row]),
                )
                for row in rows
            ]
            return GenerativeResult(
                records=records,
                prefill_batches=self.prefill_batches,
                decode_batches=self.decode_batches,
                total_tokens=self.total_tokens,
                **common,
            )
        records = [
            RequestRecord(
                request=self._request_at(row),
                batched_s=float(self.batched_s[row]),
                service_start_s=float(self.service_start_s[row]),
                finish_s=float(self.finish_s[row]),
                batch_size=int(self.batch_size[row]),
                device_id=int(self.device_id[row]),
                attempts=int(self.attempts[row]),
            )
            for row in rows
        ]
        return ServingResult(records=records, **common)


def _emit_fault_trace(
    recorder: TraceRecorder,
    schedule: FaultSchedule,
    num_devices: int,
    start_s: float,
    end_s: float,
    retry_events: Sequence[Tuple[int, float, int, str]],
) -> None:
    """Shared post-hoc span emission: both engines call this with equal
    inputs, so fault traces stay byte-identical across paths."""
    for device in range(num_devices):
        trace = schedule.traces[device]
        for down, up in zip(trace.down_s, trace.up_s):
            if down < end_s and up > start_s:
                recorder.add_device_fault(
                    device_id=device,
                    down_s=max(down, start_s),
                    up_s=min(up, end_s),
                )
    for request_id, at_s, attempt, model in retry_events:
        recorder.add_retry(
            request_id=request_id, model=model, at_s=at_s, attempt=attempt
        )


def _run_core_result(
    core: _DecodeCore,
    table: RequestTable,
    schedule: FaultSchedule,
    num_devices: int,
    recorder: Optional[TraceRecorder],
) -> FaultColumnarResult:
    """Assemble a :class:`FaultColumnarResult` from a finished core."""
    n = len(table)
    generative = table.output_len is not None
    completed = np.zeros(n, dtype=bool)
    attempts = np.zeros(n, dtype=np.int64)
    drop_reason = np.zeros(n, dtype=np.int8)
    dropped_s = np.full(n, np.nan)
    drop_order = np.empty(len(core.dropped), dtype=np.int64)
    batched_s = np.full(n, np.nan)
    service_start_s = np.full(n, np.nan)
    first_token_s = np.full(n, np.nan)
    finish_s = np.full(n, np.nan)
    batch_size = np.zeros(n, dtype=np.int64)
    device_id = np.full(n, -1, dtype=np.int64)
    decode_slots = np.zeros(n, dtype=np.int64)

    end_s = -_INF
    for rec in core.completed:
        row = rec[_ROW]
        completed[row] = True
        attempts[row] = rec[_FLS] + 1
        batched_s[row] = rec[_PFB]
        service_start_s[row] = rec[_PFS]
        first_token_s[row] = rec[_FT]
        finish_s[row] = rec[_FIN]
        batch_size[row] = rec[_PFSZ]
        device_id[row] = rec[_PFD]
        decode_slots[row] = rec[_DSLOT]
        if rec[_FIN] > end_s:
            end_s = rec[_FIN]
    for k, (rec, reason, at) in enumerate(core.dropped):
        row = rec[_ROW]
        drop_order[k] = row
        attempts[row] = rec[_FLS]
        drop_reason[row] = reason
        dropped_s[row] = at
        if at > end_s:
            end_s = at

    start_s = float(table.arrival_s[0])
    end_s = float(end_s)
    total_tokens = (
        int(np.sum(table.output_len[completed])) if generative else int(
            np.count_nonzero(completed)
        )
    )
    result = FaultColumnarResult(
        table=table,
        generative=generative,
        completed=completed,
        attempts=attempts,
        drop_reason=drop_reason,
        dropped_s=dropped_s,
        drop_order=drop_order,
        batched_s=batched_s,
        service_start_s=service_start_s,
        first_token_s=first_token_s,
        finish_s=finish_s,
        batch_size=batch_size,
        device_id=device_id,
        decode_slots=decode_slots,
        start_s=start_s,
        end_s=end_s,
        device_busy_s=list(core.busy_s),
        device_energy_pj=list(core.energy_pj),
        device_downtime_s=[
            schedule.downtime_within(d, start_s, end_s) for d in range(num_devices)
        ],
        batches=core.batches,
        prefill_batches=core.prefill_batches,
        decode_batches=core.decode_batches,
        size_triggered_batches=core.size_triggered,
        timeout_triggered_batches=core.timeout_triggered,
        total_tokens=total_tokens,
        retries=core.retries,
        failed_batches=core.failed_batches,
        wasted_energy_pj=core.wasted_energy_pj,
        retry_events=list(core.retry_events),
    )
    if recorder is not None:
        rows = np.flatnonzero(completed)
        out = table.output_len
        for row in rows:
            spec = table.specs[int(table.spec_idx[row])]
            recorder.add_request(
                request_id=int(table.request_id[row]),
                model=spec.name,
                arrival_s=float(table.arrival_s[row]),
                batched_s=float(batched_s[row]),
                service_start_s=float(service_start_s[row]),
                finish_s=float(finish_s[row]),
                device_id=int(device_id[row]),
                batch_size=int(batch_size[row]),
            )
            if generative:
                recorder.add_decode_phase(
                    request_id=int(table.request_id[row]),
                    model=spec.name,
                    first_token_s=float(first_token_s[row]),
                    finish_s=float(finish_s[row]),
                    tokens=int(out[row]) - 1,
                )
        _emit_fault_trace(
            recorder, schedule, num_devices, start_s, end_s, core.retry_events
        )
    return result


def _sorted_columns(table: RequestTable):
    order = np.lexsort((table.request_id, table.arrival_s))
    sorted_table = RequestTable(
        specs=table.specs,
        request_id=table.request_id[order],
        arrival_s=table.arrival_s[order],
        spec_idx=table.spec_idx[order],
        valid_len=table.valid_len[order],
        output_len=None if table.output_len is None else table.output_len[order],
        deadline_s=None if table.deadline_s is None else table.deadline_s[order],
    )
    if has_duplicate_ids(sorted_table.request_id):
        raise ValueError("duplicate request id")
    return sorted_table


def simulate_faulty_table(
    table: RequestTable,
    cost_model: ServiceCostModel,
    faults: FaultSchedule,
    retry: Optional[RetryPolicy] = None,
    num_devices: int = 1,
    max_batch_size: int = 8,
    max_wait_s: float = 2e-3,
    setup_cycles: int = DEFAULT_SETUP_CYCLES,
    recorder: Optional[TraceRecorder] = None,
) -> FaultColumnarResult:
    """Columnar serving with a fault schedule in force.

    Runs prefill-only and generative tables on the decode engine's
    event core (prefill as the ``output_len == 1`` case), one step at a
    time; pinned bitwise-equal to the fault-mode reference loop
    (:class:`~repro.serving.scheduler.GenerativeServingSimulator`, run
    through :class:`~repro.serving.scheduler.ServingSimulator` for
    prefill tables).
    ``retry=None`` means the default :class:`RetryPolicy` (3 attempts,
    1 ms base backoff doubled each time).
    """
    if len(table) == 0:
        raise ValueError("request table must not be empty")
    _validate_knobs(num_devices, max_batch_size, max_wait_s)
    faults.validate_for(num_devices)
    if retry is None:
        retry = RetryPolicy()
    sorted_table = _sorted_columns(table)
    olen = (
        sorted_table.output_len
        if sorted_table.output_len is not None
        else np.ones(len(sorted_table), dtype=np.int64)
    )
    core = _DecodeCore(
        sorted_table.specs,
        cost_model,
        num_devices,
        max_batch_size,
        max_wait_s,
        setup_cycles,
        faults=faults,
        retry=retry,
    )
    core.run_arrivals(
        sorted_table.request_id,
        sorted_table.arrival_s,
        sorted_table.spec_idx,
        sorted_table.valid_len,
        olen,
        0,
        sorted_table.deadline_s,
    )
    core.finalize()
    return _run_core_result(core, sorted_table, faults, num_devices, recorder)


@dataclass
class FaultCompletedChunk:
    """Requests that finished during one streamed chunk (completion
    order), with the per-attempt column the retry sketches fold."""

    generative: bool
    request_id: np.ndarray
    arrival_s: np.ndarray
    output_len: np.ndarray
    attempts: np.ndarray
    batched_s: np.ndarray
    service_start_s: np.ndarray
    first_token_s: np.ndarray
    finish_s: np.ndarray
    batch_size: np.ndarray
    device_id: np.ndarray
    decode_slots: np.ndarray

    def __len__(self) -> int:
        return int(self.request_id.size)

    @property
    def latency_s(self) -> np.ndarray:
        return self.finish_s - self.arrival_s

    @property
    def queue_wait_s(self) -> np.ndarray:
        return self.service_start_s - self.arrival_s

    @property
    def ttft_s(self) -> np.ndarray:
        return self.first_token_s - self.arrival_s

    @property
    def tbt_s(self) -> np.ndarray:
        m = self.output_len > 1
        return (self.finish_s[m] - self.first_token_s[m]) / (self.output_len[m] - 1)


@dataclass
class FaultStreamedResult:
    """Aggregates of a chunked fault-mode run (per-request columns went
    to the sink chunk-wise; only O(fleet) state remains)."""

    generative: bool
    offered: int
    completed: int
    dropped: int
    dropped_by_reason: dict
    start_s: float
    end_s: float
    device_busy_s: List[float]
    device_energy_pj: List[float]
    device_downtime_s: List[float]
    batches: int
    prefill_batches: int
    decode_batches: int
    size_triggered_batches: int
    timeout_triggered_batches: int
    total_tokens: int
    retries: int
    failed_batches: int
    wasted_energy_pj: float

    @property
    def duration_s(self) -> float:
        return max(self.end_s - self.start_s, 0.0)


def simulate_faulty_stream(
    chunks,
    cost_model: ServiceCostModel,
    faults: FaultSchedule,
    retry: Optional[RetryPolicy] = None,
    num_devices: int = 1,
    max_batch_size: int = 8,
    max_wait_s: float = 2e-3,
    setup_cycles: int = DEFAULT_SETUP_CYCLES,
    sink: Optional[Callable[[FaultCompletedChunk], None]] = None,
) -> FaultStreamedResult:
    """Out-of-core fault-mode serving: one core, chunked arrivals.

    Chunking never changes the computation -- the core's state advances
    arrival by arrival either way -- so aggregates and per-request
    values are bitwise equal to :func:`simulate_faulty_table` on the
    concatenated stream at any chunk size.
    """
    _validate_knobs(num_devices, max_batch_size, max_wait_s)
    faults.validate_for(num_devices)
    if retry is None:
        retry = RetryPolicy()

    core: Optional[_DecodeCore] = None
    generative = False
    seen_ids: set = set()
    offered = 0
    last_key = None
    start_s = 0.0
    end_s = -_INF
    total_tokens = 0
    dropped_by_reason = {name: 0 for name in DROP_REASON_NAMES.values()}
    dropped = 0

    def _drain(core: _DecodeCore) -> None:
        nonlocal end_s, total_tokens, dropped
        if core.completed:
            recs = core.completed
            if sink is not None:
                chunk = FaultCompletedChunk(
                    generative=generative,
                    request_id=np.array([r[_RID] for r in recs], dtype=np.int64),
                    arrival_s=np.array([r[_ARR] for r in recs]),
                    output_len=np.array([r[_OLEN] for r in recs], dtype=np.int64),
                    attempts=np.array([r[_FLS] + 1 for r in recs], dtype=np.int64),
                    batched_s=np.array([r[_PFB] for r in recs]),
                    service_start_s=np.array([r[_PFS] for r in recs]),
                    first_token_s=np.array([r[_FT] for r in recs]),
                    finish_s=np.array([r[_FIN] for r in recs]),
                    batch_size=np.array([r[_PFSZ] for r in recs], dtype=np.int64),
                    device_id=np.array([r[_PFD] for r in recs], dtype=np.int64),
                    decode_slots=np.array([r[_DSLOT] for r in recs], dtype=np.int64),
                )
                sink(chunk)
            for r in recs:
                if r[_FIN] > end_s:
                    end_s = r[_FIN]
                total_tokens += r[_OLEN] if generative else 1
            core.completed = []
        if core.dropped:
            for rec, reason, at in core.dropped:
                dropped_by_reason[DROP_REASON_NAMES[reason]] += 1
                dropped += 1
                if at > end_s:
                    end_s = at
            core.dropped = []

    for chunk in chunks:
        if len(chunk) == 0:
            continue
        sub = _sorted_columns(chunk)
        if core is None:
            generative = sub.output_len is not None
            start_s = float(sub.arrival_s[0])
            core = _DecodeCore(
                sub.specs,
                cost_model,
                num_devices,
                max_batch_size,
                max_wait_s,
                setup_cycles,
                faults=faults,
                retry=retry,
            )
        elif sub.specs is not core.specs and list(sub.specs) != list(core.specs):
            raise ValueError("every chunk must share the stream's spec list")
        key = (float(sub.arrival_s[0]), int(sub.request_id[0]))
        if last_key is not None and key < last_key:
            raise ValueError("chunks must be sorted by (arrival_s, request_id)")
        for rid in sub.request_id.tolist():
            if rid in seen_ids:
                raise ValueError(f"duplicate request id {rid}")
            seen_ids.add(rid)
        last_key = (float(sub.arrival_s[-1]), int(sub.request_id[-1]))
        olen = (
            sub.output_len
            if sub.output_len is not None
            else np.ones(len(sub), dtype=np.int64)
        )
        core.run_arrivals(
            sub.request_id,
            sub.arrival_s,
            sub.spec_idx,
            sub.valid_len,
            olen,
            offered,
            sub.deadline_s,
        )
        offered += len(sub)
        _drain(core)
    if core is None:
        raise ValueError("request stream must not be empty")
    core.finalize()
    _drain(core)
    start = float(start_s)
    end = float(end_s)
    return FaultStreamedResult(
        generative=generative,
        offered=offered,
        completed=offered - dropped,
        dropped=dropped,
        dropped_by_reason=dropped_by_reason,
        start_s=start,
        end_s=end,
        device_busy_s=list(core.busy_s),
        device_energy_pj=list(core.energy_pj),
        device_downtime_s=[
            faults.downtime_within(d, start, end) for d in range(num_devices)
        ],
        batches=core.batches,
        prefill_batches=core.prefill_batches,
        decode_batches=core.decode_batches,
        size_triggered_batches=core.size_triggered,
        timeout_triggered_batches=core.timeout_triggered,
        total_tokens=total_tokens,
        retries=core.retries,
        failed_batches=core.failed_batches,
        wasted_energy_pj=core.wasted_energy_pj,
    )
