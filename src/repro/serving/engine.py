"""Columnar fast path: batch-granular serving simulation over arrays.

The per-request reference loop (:class:`~repro.serving.scheduler.
GenerativeServingSimulator`, which :class:`~repro.serving.scheduler.
ServingSimulator` runs for prefill traffic) spends its time on Python
object churn: one heap event, one dict lookup, and one record mutation
per request.  This module simulates the *same* deployment semantics at
batch granularity over a struct-of-arrays
:class:`~repro.serving.requests.RequestTable`:

1. **Batch formation is device-independent.**  The dynamic batcher
   seals on size or on the oldest member's wait bound only, so every
   sealed batch -- members, seal time, and trigger -- follows from each
   model's sorted arrival column by a few vectorised passes (one
   ``searchsorted`` for every row's wait deadline, pointer doubling
   over the chain of batch starts), without running an event loop.
2. **Dispatch is a k-server FIFO over batches.**  Devices are k free
   times; each batch (in global seal order) starts at
   ``max(sealed_s, earliest free time)`` on the lowest-index device
   idle at that instant -- exactly the device the reference loop's
   event-driven dispatch would pick -- collapsing the event count by
   the mean batch size.  One lean scalar loop serves every fleet size,
   including a single device.
3. **Costs and metrics stay columnar.**  Per-batch cycles/energy come
   from :meth:`~repro.serving.devices.ServiceCostModel.cost_arrays`
   (array indexing into the primed bucket cache) and
   :func:`~repro.serving.metrics.summarize` consumes the result's
   columns directly.

Faults hook into step 2.  Under a fault schedule a prefill table keeps
its vectorised batch chains, and :class:`_FaultDispatch` dispatches
them only to devices that are up, loses the batches whose device fails
mid-service, retries or drops their members, and re-forms only the
few batches a retry touches.  Generative tables, and every stream
under a schedule, run the decode engine (:mod:`repro.serving.decode`).

The equivalence contract: for any stream, knobs, and device count,
:func:`simulate_table` produces per-request records **exactly equal**
(bitwise, not approximately) to the reference loop's -- the same
floating-point expressions are evaluated in the same order, only
batched.  ``tests/test_serving_engine.py`` pins this across arrival
patterns, execution modes, seeds, device counts, and wait bounds, and
``tests/test_serving_faults.py`` under fault schedules.

Every columnar run, whatever its traffic shape (prefill, generative,
or under a fault schedule) and whichever engine ran it, comes back as
one of three types, one per role:

* :class:`ColumnarServingResult` -- a whole-table run: per-request
  columns plus the run totals;
* :class:`CompletedChunk` -- the requests one streamed flush retired;
* :class:`StreamedServingResult` -- a streamed run's totals.

Generative traffic adds the ``output_len`` / ``first_token_s`` /
``decode_slots`` columns, fault mode the ``attempts`` and drop columns
and the fault totals; the other columns and their names are shared.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from heapq import heappop, heappush
from itertools import chain
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.obs.trace import TraceRecorder
from repro.serving.devices import DEFAULT_SETUP_CYCLES, ServiceCostModel
from repro.serving.faults import (
    DROP_DEADLINE,
    DROP_REASON_NAMES,
    DROP_RETRIES,
    DROP_STRANDED,
    DroppedRecord,
    _emit_fault_trace,
    _fault_columns,
)
from repro.serving.requests import (
    Request,
    RequestRecord,
    RequestTable,
    has_duplicate_ids,
)
from repro.serving.scheduler import DecodeRecord, GenerativeResult, ServingResult

#: Raised by both stream drivers: a ``RequestTable`` either has an
#: ``output_len`` column or not, so a mixed stream has no whole-table run
#: to be equal to.
_MIXED_CHUNKS = "chunks must all carry an output_len column, or all lack one"


@dataclass(kw_only=True)
class StreamedServingResult:
    """Run totals of one columnar simulation, for every traffic shape.

    A chunked run returns only these (its per-request columns left
    through the ``sink`` as :class:`CompletedChunk` batches); a
    whole-table :class:`ColumnarServingResult` carries them beside its
    columns.  Every field is bitwise equal between the two drivers.
    A prefill run counts each batch as a prefill batch and each request
    as one token.  The fault totals keep their zero defaults without a
    fault schedule, which ``device_downtime_s is None`` marks.
    """

    completed: int
    start_s: float
    end_s: float
    device_busy_s: List[float]
    device_energy_pj: List[float]
    batches: int
    prefill_batches: int
    decode_batches: int
    size_triggered_batches: int
    timeout_triggered_batches: int
    #: Tokens generated by the completed requests.
    total_tokens: int
    dropped: int = 0
    #: Dropped requests per reason name ('retries', 'deadline',
    #: 'stranded').
    dropped_by_reason: Dict[str, int] = field(default_factory=dict)
    retries: int = 0
    failed_batches: int = 0
    wasted_energy_pj: float = 0.0
    #: Per-device outage seconds within [start_s, end_s].
    device_downtime_s: Optional[List[float]] = None

    @property
    def duration_s(self) -> float:
        return max(self.end_s - self.start_s, 0.0)

    @property
    def offered(self) -> int:
        return self.completed + self.dropped

    @property
    def faulted(self) -> bool:
        """Whether a fault schedule was in force."""
        return self.device_downtime_s is not None


@dataclass(kw_only=True)
class CompletedChunk:
    """Per-request columns of finished requests, for every traffic shape.

    A chunked driver hands one to its ``sink`` per flush -- row order
    within a chunk is free, the values are bitwise equal to the
    whole-table run's -- and :class:`ColumnarServingResult` extends it
    over a whole table.  For generative traffic the outcome columns
    describe the prefill step (its batch's seal, start, size and
    device), and ``finish_s`` is the last token.
    """

    specs: List
    request_id: np.ndarray
    arrival_s: np.ndarray
    spec_idx: np.ndarray
    valid_len: np.ndarray
    batched_s: np.ndarray
    service_start_s: np.ndarray
    finish_s: np.ndarray
    batch_size: np.ndarray
    device_id: np.ndarray
    #: Generative traffic only.
    output_len: Optional[np.ndarray] = None
    first_token_s: Optional[np.ndarray] = None
    #: Summed decode batch occupancy per request.
    decode_slots: Optional[np.ndarray] = None
    #: Fault mode only: dispatch attempts (lost ones plus the success).
    attempts: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return int(self.request_id.size)

    @property
    def generative(self) -> bool:
        return self.output_len is not None

    @property
    def latency_s(self) -> np.ndarray:
        """End-to-end latency column: arrival to completion."""
        return self.finish_s - self.arrival_s

    @property
    def queue_wait_s(self) -> np.ndarray:
        """Arrival to (prefill) service start."""
        return self.service_start_s - self.arrival_s

    @property
    def ttft_s(self) -> np.ndarray:
        """Time-to-first-token column: arrival to prefill finish."""
        return self.first_token_s - self.arrival_s

    @property
    def tbt_s(self) -> np.ndarray:
        """Mean time between tokens per request (NaN when 1 token)."""
        steps = (self.output_len - 1).astype(np.float64)
        return np.divide(
            self.finish_s - self.first_token_s,
            steps,
            out=np.full(steps.shape, np.nan),
            where=steps > 0,
        )


@dataclass(kw_only=True)
class ColumnarServingResult(CompletedChunk, StreamedServingResult):
    """Everything one whole-table run produced, as per-request columns.

    Row ``i`` of every column describes request ``i`` of the input
    table sorted by (arrival, id) -- the reference loop's record order.
    Under a fault schedule the rows cover every offered request:
    ``drop_reason`` is 0 on completed rows, and dropped rows carry NaN
    times, batch size 0 and device -1.  :meth:`to_result` materializes
    the reference loop's result for equivalence tests; analysis paths
    stay columnar via :func:`~repro.serving.metrics.summarize`.
    """

    #: Per-request deadline, seconds after arrival (``inf`` = none).
    deadline_s: Optional[np.ndarray] = None
    #: Fault mode only: drop-reason code per row (0 = completed; see
    #: :data:`~repro.serving.faults.DROP_REASON_NAMES`).
    drop_reason: Optional[np.ndarray] = None
    dropped_s: Optional[np.ndarray] = None
    #: Row indices of dropped requests in drop-event order (the
    #: reference result's ``dropped`` list order).
    drop_order: Optional[np.ndarray] = None
    #: (request id, retry instant, attempt number, model name) per
    #: scheduled retry.
    retry_events: Optional[list] = None

    def _request_at(self, row) -> Request:
        out = self.output_len
        dl = self.deadline_s
        return Request(
            request_id=int(self.request_id[row]),
            arrival_s=float(self.arrival_s[row]),
            spec=self.specs[int(self.spec_idx[row])],
            valid_len=int(self.valid_len[row]),
            output_len=1 if out is None else int(out[row]),
            deadline_s=(
                None if dl is None or not np.isfinite(dl[row]) else float(dl[row])
            ),
        )

    def to_result(self) -> ServingResult | GenerativeResult:
        """Materialize the reference loop's result (tests, small runs).

        Generative tables give a :class:`~repro.serving.scheduler.
        GenerativeResult`, the others a :class:`~repro.serving.
        scheduler.ServingResult`; a fault-mode run also rebuilds its
        drop records and fault totals.
        """
        common = dict(
            start_s=self.start_s,
            end_s=self.end_s,
            device_busy_s=list(self.device_busy_s),
            device_energy_pj=list(self.device_energy_pj),
            batches=self.batches,
            size_triggered_batches=self.size_triggered_batches,
            timeout_triggered_batches=self.timeout_triggered_batches,
        )
        rows = range(len(self))
        attempts = [1] * len(self)
        if self.faulted:
            rows = np.flatnonzero(self.drop_reason == 0)
            attempts = self.attempts.tolist()
            common.update(
                retries=self.retries,
                failed_batches=self.failed_batches,
                wasted_energy_pj=self.wasted_energy_pj,
                dropped=[
                    DroppedRecord(
                        request=self._request_at(row),
                        reason=DROP_REASON_NAMES[int(self.drop_reason[row])],
                        dropped_s=float(self.dropped_s[row]),
                        attempts=attempts[row],
                    )
                    for row in self.drop_order
                ],
                device_downtime_s=list(self.device_downtime_s),
                retry_events=list(self.retry_events),
            )
        if self.generative:
            return GenerativeResult(
                records=[
                    DecodeRecord(
                        request=self._request_at(i),
                        prefill_batched_s=float(self.batched_s[i]),
                        prefill_start_s=float(self.service_start_s[i]),
                        first_token_s=float(self.first_token_s[i]),
                        finish_s=float(self.finish_s[i]),
                        prefill_batch_size=int(self.batch_size[i]),
                        prefill_device_id=int(self.device_id[i]),
                        decode_slots=int(self.decode_slots[i]),
                        attempts=attempts[i],
                    )
                    for i in rows
                ],
                prefill_batches=self.prefill_batches,
                decode_batches=self.decode_batches,
                total_tokens=self.total_tokens,
                **common,
            )
        return ServingResult(
            records=[
                RequestRecord(
                    request=self._request_at(i),
                    batched_s=float(self.batched_s[i]),
                    service_start_s=float(self.service_start_s[i]),
                    finish_s=float(self.finish_s[i]),
                    batch_size=int(self.batch_size[i]),
                    device_id=int(self.device_id[i]),
                    attempts=attempts[i],
                )
                for i in rows
            ],
            **common,
        )


#: Per-shape names of the three types, kept so that every public name
#: of :mod:`repro.serving` still resolves.
DecodeColumnarResult = FaultColumnarResult = ColumnarServingResult
DecodeCompletedChunk = FaultCompletedChunk = CompletedChunk
DecodeStreamedResult = FaultStreamedResult = StreamedServingResult


def _record_spans(recorder: TraceRecorder, result: ColumnarServingResult) -> None:
    """Emit the sampled completed requests' lifecycle spans, in row order.

    Post hoc over the finished columns, so tracing cannot perturb a
    computed value.  The sampled set keys on request id only, so the
    spans match the reference loop's (and any other run of this
    stream) exactly.
    """
    rows = np.flatnonzero(recorder.config.mask(result.request_id))
    if result.dropped:
        rows = rows[result.drop_reason[rows] == 0]
    for i in rows.tolist():
        model = result.specs[int(result.spec_idx[i])].name
        recorder.add_request(
            request_id=int(result.request_id[i]),
            model=model,
            arrival_s=float(result.arrival_s[i]),
            batched_s=float(result.batched_s[i]),
            service_start_s=float(result.service_start_s[i]),
            finish_s=float(result.finish_s[i]),
            device_id=int(result.device_id[i]),
            batch_size=int(result.batch_size[i]),
        )
        if result.generative:
            recorder.add_decode_phase(
                request_id=int(result.request_id[i]),
                model=model,
                first_token_s=float(result.first_token_s[i]),
                finish_s=float(result.finish_s[i]),
                tokens=int(result.output_len[i]) - 1,
            )


def _form_batches(
    arrival: np.ndarray,
    request_id: np.ndarray,
    max_batch_size: int,
    max_wait_s: float,
    last_arrival_s: Optional[float] = None,
    horizon_s: Optional[float] = None,
) -> Tuple[np.ndarray, ...]:
    """Seal one model queue's batches in a few vectorised passes.

    Returns formation-order arrays ``(member_start, member_count,
    sealed_s, by_size, tie_arrival, tie_id, consumed)`` where
    ``member_start`` / ``member_count`` slice the model's sorted
    request rows and ``consumed`` counts the leading rows covered by
    the returned batches.  The seal rules mirror the reference batcher
    exactly:

    * **size**: the ``max_batch_size``-th member seals at its own
      arrival instant;
    * **timeout**: otherwise the batch seals at ``oldest arrival +
      max_wait_s``, including any request arriving exactly at that
      deadline (arrivals outrank timeout flushes at equal timestamps);
    * **end of stream**: once the globally last request has arrived,
      the pending tail seals immediately at ``last_arrival_s``;
    * **zero wait** degenerates to one singleton batch per request.

    Exactly one of ``last_arrival_s`` / ``horizon_s`` must be given.
    ``last_arrival_s`` is whole-stream mode: every row is consumed.
    ``horizon_s`` is the chunked drivers' incremental mode: only
    batches whose seal no future arrival could change are emitted --
    size seals, plus timeout seals whose deadline falls strictly
    before the horizon (the largest arrival seen so far; a request
    arriving *exactly* at a deadline still joins that batch, so a
    deadline equal to the horizon stays open).  Unconsumed rows are
    the queue's pending tail, provably shorter than
    ``max_batch_size``.

    ``tie_arrival``/``tie_id`` reproduce the reference event loop's
    FIFO order for batches sealed at the same instant: size-sealed
    batches order by their triggering (final) member's event position,
    timeout/end flushes by their oldest member's queue-creation
    position.

    A batch opened at row ``i`` ends at ``min(due[i], i +
    max_batch_size)``, where ``due[i]`` counts the rows arriving no
    later than ``arrival[i] + max_wait_s``.  Both bounds are computed
    for every row at once; the batch starts are then the chain ``0 ->
    end[0] -> ...``, enumerated by pointer doubling in O(log batches)
    array passes, and the seal times, triggers and tie anchors follow
    by gathers at those starts.
    """
    if (last_arrival_s is None) == (horizon_s is None):
        raise ValueError("give exactly one of last_arrival_s / horizon_s")
    n = arrival.size
    if max_wait_s == 0.0:
        # The reference loop flushes after every add: singleton batches
        # sealed at their own arrival.  They count as size-triggered
        # only when max_batch_size == 1 (the add() itself seals).
        return (
            np.arange(n, dtype=np.int64),
            np.ones(n, dtype=np.int64),
            arrival.copy(),
            np.full(n, max_batch_size == 1, dtype=bool),
            arrival.copy(),
            request_id.copy(),
            n,
        )
    deadline = arrival + max_wait_s
    due = np.searchsorted(arrival, deadline, side="right")
    end = np.minimum(due, np.arange(max_batch_size, n + max_batch_size))
    # Pointer doubling: after step t, ``starts`` holds the first 2**t
    # members of the chain 0 -> end[0] -> ... and ``jump`` maps a row
    # 2**t batches ahead (row n absorbs the queue's end).
    jump = np.append(end, n)
    starts = np.zeros(1, dtype=np.int64)
    while starts[-1] < n:
        starts = np.concatenate((starts, jump[starts]))
        jump = jump[jump]
    starts = starts[: np.searchsorted(starts, n)]
    counts = end[starts] - starts
    by_size = counts == max_batch_size
    open_deadline = deadline[starts]
    consumed = n
    if last_arrival_s is not None:
        timeout_seal = np.where(
            open_deadline <= last_arrival_s, open_deadline, last_arrival_s
        )
    else:
        # Incremental mode: a timeout seal is final only when every
        # arrival that could still join (<= deadline) has been seen, and
        # the deadline precedes the stream's end (the horizon is itself
        # an arrival), so no end-of-stream clamp applies.  Formation
        # stops at the first batch that is not yet final.
        open_rows = np.flatnonzero(~(by_size | (open_deadline < horizon_s)))
        if open_rows.size:
            cut = int(open_rows[0])
            consumed = int(starts[cut])
            starts, counts = starts[:cut], counts[:cut]
            by_size, open_deadline = by_size[:cut], open_deadline[:cut]
        timeout_seal = open_deadline
    # Size seals anchor on their final member, timeout seals on their
    # oldest.
    anchor = np.where(by_size, starts + counts - 1, starts)
    tie_arrival = arrival[anchor]
    return (
        starts,
        counts,
        np.where(by_size, tie_arrival, timeout_seal),
        by_size,
        tie_arrival,
        request_id[anchor],
        consumed,
    )


def _queue_map(specs) -> Tuple[List, np.ndarray]:
    """Map spec indices onto batching queues (one queue per model name).

    Returns ``(queue_specs, queue_of_spec)``: the representative spec
    per queue in first-appearance order (the reference batcher's queue
    creation order) and an int64 lookup from spec index to queue id.
    The table validated that same-name specs are identical.
    """
    queue_ids: dict = {}
    queue_specs: List = []
    queue_of_spec = np.empty(len(specs), dtype=np.int64)
    for idx, spec in enumerate(specs):
        qid = queue_ids.setdefault(spec.name, len(queue_specs))
        if qid == len(queue_specs):
            queue_specs.append(spec)
        queue_of_spec[idx] = qid
    return queue_specs, queue_of_spec


def _group_rows(
    spec_idx: np.ndarray, queue_of_spec: np.ndarray, num_queues: int
) -> List[np.ndarray]:
    """Row indices per queue, each ascending (stream order preserved).

    One O(n) lookup plus one stable argsort replaces the historical
    per-queue ``np.isin`` scan (O(n * queues)); the stable sort keeps
    rows of equal queue id in their original ascending order, so the
    selection is identical to ``np.flatnonzero(np.isin(...))``.
    """
    if num_queues == 1:
        return [np.arange(spec_idx.size, dtype=np.int64)]
    qcol = queue_of_spec[spec_idx]
    counts = np.bincount(qcol, minlength=num_queues)
    offsets = np.concatenate(([0], np.cumsum(counts)))
    order = np.argsort(qcol, kind="stable")
    return [order[offsets[q] : offsets[q + 1]] for q in range(num_queues)]


def _form_queue(
    arrival: np.ndarray,
    request_id: np.ndarray,
    valid_len: np.ndarray,
    spec,
    cost_model: ServiceCostModel,
    max_batch_size: int,
    max_wait_s: float,
    setup_cycles: int,
    frequency_hz: float,
    last_arrival_s: Optional[float] = None,
    horizon_s: Optional[float] = None,
) -> Tuple[Tuple[np.ndarray, ...], np.ndarray, np.ndarray, int]:
    """Phase 1 for one queue: seal batches and price them.

    Returns ``(formed, service_s, energy_pj, consumed)`` where
    ``formed`` is :func:`_form_batches` output (sans consumed count),
    ``service_s``/``energy_pj`` are per-batch cost columns, and
    ``consumed`` counts the leading rows covered.
    """
    f = _form_batches(
        arrival,
        request_id,
        max_batch_size,
        max_wait_s,
        last_arrival_s=last_arrival_s,
        horizon_s=horizon_s,
    )
    starts, counts, consumed = f[0], f[1], f[6]
    if starts.size == 0:
        empty = np.empty(0, dtype=np.float64)
        return f[:6], empty, empty.copy(), consumed
    # Dynamic batching pads members to the batch's longest input; cost
    # lookup is one array-indexing pass over the primed cache.
    padded_len = np.maximum.reduceat(valid_len[:consumed], starts)
    cycles, energy = cost_model.cost_arrays(spec, padded_len)
    service_s = (setup_cycles + cycles * counts) / frequency_hz
    return f[:6], service_s, energy * counts, consumed


#: Batches converted to Python scalars per dispatch block: whole-column
#: ``tolist()`` copies would hold ~3 Python floats per batch at once.
_DISPATCH_BLOCK = 8192


def _dispatch(
    sealed_s: np.ndarray,
    service_s: np.ndarray,
    energy_pj: np.ndarray,
    size_sealed: np.ndarray,
    tie_arrival: np.ndarray,
    tie_id: np.ndarray,
    free_at: List[float],
    busy_s: List[float],
    energy_by_device: List[float],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """K-server FIFO dispatch of one globally ordered batch set.

    Sorts the batches into the reference event loop's dispatch order
    (size seals happen inside an arrival event, which outranks a
    timeout flush at the same instant, hence the ``~size_sealed``
    rank), runs them over the device pool, and mutates the carried
    ``free_at`` / ``busy_s`` / ``energy_by_device`` state in place --
    the chunked driver calls this once per flush and the carried state
    makes the flush sequence bitwise equal to one whole-stream pass.
    Returns per-batch ``(start, finish, device)`` in input order.

    Each batch takes the lowest-index device idle at its seal (the
    device the reference's index-order scan picks); when every device
    is busy it waits for the earliest free time and takes the first
    device freeing then -- together, ``max(sealed, earliest free)``.
    The loop runs over Python scalars, one block of sorted batches at
    a time, and ``finish = start + service`` is one vector add per
    block.
    """
    num_batches = sealed_s.size
    batch_start = np.empty(num_batches, dtype=np.float64)
    batch_finish = np.empty(num_batches, dtype=np.float64)
    batch_device = np.empty(num_batches, dtype=np.int64)
    if num_batches == 0:
        return batch_start, batch_finish, batch_device
    order = np.lexsort((tie_id, tie_arrival, ~size_sealed, sealed_s))
    sealed_sorted = sealed_s[order]
    service_sorted = service_s[order]
    energy_sorted = energy_pj[order]
    for lo in range(0, num_batches, _DISPATCH_BLOCK):
        hi = min(lo + _DISPATCH_BLOCK, num_batches)
        starts: List[float] = []
        devices: List[int] = []
        for start, service, energy in zip(
            sealed_sorted[lo:hi].tolist(),
            service_sorted[lo:hi].tolist(),
            energy_sorted[lo:hi].tolist(),
        ):
            earliest = min(free_at)
            if earliest > start:
                start = earliest
                device = free_at.index(earliest)
            else:
                for device, free in enumerate(free_at):
                    if free <= start:
                        break
            free_at[device] = start + service
            busy_s[device] += service
            energy_by_device[device] += energy
            starts.append(start)
            devices.append(device)
        rows = order[lo:hi]
        block_start = np.asarray(starts, dtype=np.float64)
        batch_start[rows] = block_start
        batch_finish[rows] = block_start + service_sorted[lo:hi]
        batch_device[rows] = devices
    return batch_start, batch_finish, batch_device


# Reference event priorities (:class:`~repro.serving.events.EventKind`)
# of the events that seal batches; seal keys order on them.
_ARRIVAL = 1
_TIMEOUT = 2
_RETRY = 5


class _Reform:
    """One queue's scalar batcher while retries re-form its batches:
    the first chain batch it replaces, the next arrival to admit (an
    index into the queue's rows), the open batch's rows in admission
    order, its oldest member's ready instant, the key of the event that
    opened it (the reference batcher's queue order), and the retries
    scheduled into the queue but not yet admitted."""

    __slots__ = ("first", "pos", "members", "ready", "created", "retries")

    def __init__(self, first: int, pos: int):
        self.first = first
        self.pos = pos
        self.members: List[int] = []
        self.ready = 0.0
        self.created: tuple = ()
        self.retries = 0


class _FaultDispatch:
    """Phase 2 under a fault schedule: outage-aware dispatch with retries.

    Dispatches phase 1's arrival-only batch chains in the global seal
    order, like :func:`_dispatch`, under two more rules:

    * **Availability.**  A batch sealed at ``s`` starts at the earliest
      instant at or after ``max(s, free_at[d])`` at which device ``d``
      is up, over all devices, ties to the lowest index.  Each such
      instant is a seal, completion or recovery event of the reference
      loop, so this is its event-time dispatch.  ``free_at`` holds
      *effective* free times, with the outages that start while a
      device idles or that kill its batch folded in, so the hot loop
      reads one more value: ``nda``, the earliest outage start not
      folded in.  A fault-free choice that starts and finishes before
      it is exact; the rest are placed exactly.
    * **Loss.**  A batch whose device's next outage starts before it
      finishes is lost at that instant, with the decode core's float
      expressions; each member then retries or drops under the policy.

    A retry re-joins its queue, so from the queue's first undispatched
    chain batch on a scalar batcher (:class:`_Reform`) applies the
    reference rules to the merged arrivals and retries, until the queue
    sits on a chain batch start again with no retry pending.  While any
    retry is pending the next batch is the one with the smallest seal
    key -- (instant, event priority, event key, phase within the event,
    opening event) -- over the chains and the re-formed queues, which
    is the reference's seal order.  This is causal: a retry lands after
    its lost batch started, so a loss is known before any batch it can
    change is next, and so is the pending-retry count that decides the
    end-of-stream flush.  Per-request fault state is kept only for the
    rows that were lost.
    """

    def __init__(self, faults, retry, num_devices, max_batch_size, max_wait_s):
        self.traces = faults.traces
        self.retry = retry
        self.num_devices = num_devices
        self.max_batch_size = max_batch_size
        self.max_wait_s = max_wait_s
        self.free_at = [0.0] * num_devices
        self.busy_s = [0.0] * num_devices
        self.energy_by_device = [0.0] * num_devices
        self.ptr = [0] * num_devices
        self._absorb(0.0)
        self.dispatched = self.extra_batches = self.extra_size_triggered = 0
        self.retries = self.failed_batches = 0
        self.wasted_energy_pj = 0.0
        self.failures: Dict[int, int] = {}
        #: ((failure instant, dispatch index, member), row, reason, instant)
        self.drops: list = []
        self.retry_events: list = []
        #: (retry instant, priority, (failure instant, dispatch index,
        #: member), row): the reference's RETRY order.
        self.heap: list = []
        self.reform: Dict[int, _Reform] = {}
        #: (rows, sealed, start, finish, device) of re-formed batches run.
        self.reformed: list = []

    def run(self, request, queues, batches, price, queue_of_row):
        """Dispatch every batch; returns chain ``(start, finish, device)``.

        ``request`` holds the sorted request columns, ``queues`` one
        ``(spec, rows, chain starts)`` per active queue, ``batches`` the
        chain columns in queue order, ``price(spec, rows)`` a re-formed
        batch's (service, energy) and ``queue_of_row`` a row's queue.
        """
        self.arrival_s, self.request_id, self.deadline_s = request
        if self.deadline_s is None:
            self.deadline_s = np.broadcast_to(np.inf, self.arrival_s.shape)
        self.specs, self.rows, self.chain_start = (list(c) for c in zip(*queues))
        self.offsets = np.cumsum([0] + [starts.size for starts in self.chain_start])
        self.member_start = np.concatenate(self.chain_start)
        self.price = price
        self.queue_of_row = queue_of_row
        sealed, by_size, counts, service, energy, tie_arrival, tie_id = batches
        self.sealed_s, self.size_sealed, self.member_count = sealed, by_size, counts
        self.service_s, self.energy_pj = service, energy
        nb = sealed.size
        self.order = np.lexsort((tie_id, tie_arrival, ~by_size, sealed))
        self.rank = np.empty(nb, dtype=np.int64)
        self.rank[self.order] = np.arange(nb)
        self.superseded = np.zeros(nb, dtype=bool)
        self.batch_start = np.empty(nb, dtype=np.float64)
        self.batch_finish = np.empty(nb, dtype=np.float64)
        self.batch_device = np.empty(nb, dtype=np.int64)
        n = self.arrival_s.size
        self.t_last = float(self.arrival_s[n - 1])
        #: The end-of-stream flush at the last arrival (a seal key less
        #: its opening event), and whether it happens: None until a
        #: batch it would seal is next.
        self.eos_key = (self.t_last, _ARRIVAL, n - 1, 2)
        self.eos: Optional[bool] = None
        p = 0
        while p < nb or self.heap or self.reform:
            p = self._merge(self._hot(p))
        return self.batch_start, self.batch_finish, self.batch_device

    def _hot(self, p: int) -> int:
        """Chain batches in global order from position ``p``, block-wise,
        until a retry is pending; returns the next position."""
        order = self.order
        nb = order.size
        free_at = self.free_at
        busy_s = self.busy_s
        energy_by_device = self.energy_by_device
        # The next loss may be a few batches away: blocks grow from
        # small, so a resumed run converts little that it abandons.
        block = 256
        while p < nb and not self.heap:
            hi = min(p + block, nb)
            block = min(2 * block, _DISPATCH_BLOCK)
            kept = np.flatnonzero(~self.superseded[order[p:hi]])
            idx = order[p:hi][kept]
            service_block = self.service_s[idx]
            starts: List[float] = []
            devices: List[int] = []
            base = self.dispatched
            nda = self.nda
            for s, service, energy in zip(
                self.sealed_s[idx].tolist(),
                service_block.tolist(),
                self.energy_pj[idx].tolist(),
            ):
                earliest = min(free_at)
                if earliest > s:
                    start = earliest
                    device = free_at.index(earliest)
                else:
                    start = s
                    for device, free in enumerate(free_at):
                        if free <= s:
                            break
                finish = start + service
                if finish > nda or start >= nda:
                    # Near an outage: place exactly, maybe lose it.
                    j = len(starts)
                    self.dispatched = base + j
                    out = self._run_batch(
                        s,
                        service,
                        energy,
                        self._chain_rows(int(idx[j])),
                        p + int(kept[j]) + 1,
                    )
                    nda = self.nda
                    start, _, device = out or (np.nan, 0.0, -1)
                    starts.append(start)
                    devices.append(device)
                    if self.heap:
                        break
                    continue
                free_at[device] = finish
                busy_s[device] += service
                energy_by_device[device] += energy
                starts.append(start)
                devices.append(device)
            m = len(starts)
            done = idx[:m]
            block_start = np.asarray(starts, dtype=np.float64)
            self.batch_start[done] = block_start
            self.batch_finish[done] = block_start + service_block[:m]
            self.batch_device[done] = devices
            self.dispatched = base + m
            p = hi if m == idx.size else p + int(kept[m - 1]) + 1
        return p

    def _merge(self, p: int) -> int:
        """Dispatch in seal-key order while any retry is pending."""
        order = self.order
        nb = order.size
        w = self.max_wait_s
        chain = -1
        chain_key: tuple = ()
        while self.heap or self.reform:
            while p < nb and self.superseded[order[p]]:
                p += 1
            events = []
            if p < nb:
                b = int(order[p])
                if b != chain:
                    chain, chain_key = b, self._chain_key(b)
                events.append((chain_key, "chain", -1))
            for qid, st in self.reform.items():
                if st.pos < self.rows[qid].size:
                    r = int(self.rows[qid][st.pos])
                    key = (float(self.arrival_s[r]), _ARRIVAL, r)
                    events.append((key, "arrival", qid))
                if st.members and w > 0:
                    key = (st.ready + w, _TIMEOUT, 0, 0, st.created)
                    events.append((key, "timeout", qid))
                if st.members and self.eos is not False and st.created < self.eos_key:
                    events.append((self.eos_key + (st.created,), "eos", qid))
            if self.heap:
                events.append((self.heap[0][:3], "retry", -1))
            best, kind, q = min(events, key=lambda event: event[0])
            if kind == "chain":
                qid = int(np.searchsorted(self.offsets, chain, side="right")) - 1
                if qid in self.reform:
                    # Re-formation covers this queue's rows from here on.
                    self.superseded[chain] = True
                elif chain_key[:4] == self.eos_key and not self._eos_allowed():
                    # A retry was pending at the last arrival, so this
                    # tail batch stays open past it: re-form it.
                    self._reform_queue(qid, p)
                else:
                    p += 1
                    out = self._run_batch(
                        float(self.sealed_s[chain]),
                        float(self.service_s[chain]),
                        float(self.energy_pj[chain]),
                        self._chain_rows(chain),
                        p,
                    )
                    if out is not None:
                        self.batch_start[chain] = out[0]
                        self.batch_finish[chain] = out[1]
                        self.batch_device[chain] = out[2]
            elif kind == "arrival":
                st = self.reform[q]
                st.pos += 1
                self._admit(q, st, best[2], best[0], best, p)
            elif kind == "timeout":
                self._seal(q, self.reform[q], best[0], False, p)
            elif kind == "eos":
                if self._eos_allowed():
                    self._seal(q, self.reform[q], self.t_last, False, p)
            else:
                at, _, key, row = heappop(self.heap)
                q = self.queue_of_row(row)
                st = self.reform[q]
                st.retries -= 1
                self._admit(q, st, row, at, (at, _RETRY, key), p)
                if at >= self.t_last and all(e[2][0] > at for e in self.heap):
                    # No retry pending after the last arrival: every open
                    # queue flushes, in creation order.
                    open_queues = sorted(
                        (st.created, qid)
                        for qid, st in self.reform.items()
                        if st.members
                    )
                    for _, qid in open_queues:
                        self._seal(qid, self.reform[qid], at, False, p)
        return p

    # ------------------------------------------------------------------
    def _chain_rows(self, b: int) -> List[int]:
        q = int(np.searchsorted(self.offsets, b, side="right")) - 1
        lo = int(self.member_start[b])
        return self.rows[q][lo : lo + int(self.member_count[b])].tolist()

    def _chain_key(self, b: int) -> tuple:
        """Seal key of chain batch ``b`` (see the class docstring)."""
        q = int(np.searchsorted(self.offsets, b, side="right")) - 1
        rows = self.rows[q]
        lo = int(self.member_start[b])
        sealed = float(self.sealed_s[b])
        if self.size_sealed[b]:
            return (sealed, _ARRIVAL, int(rows[lo + int(self.member_count[b]) - 1]), 0)
        r = int(rows[lo])
        if self.max_wait_s == 0:
            return (sealed, _ARRIVAL, r, 1)
        created = (float(self.arrival_s[r]), _ARRIVAL, r)
        if sealed == self.t_last:
            return self.eos_key + (created,)
        return (sealed, _TIMEOUT, 0, 0, created)

    def _eos_allowed(self) -> bool:
        """Whether the last arrival flushes: no retry pending across it."""
        if self.eos is None:
            self.eos = all(e[2][0] >= self.t_last for e in self.heap)
        return self.eos

    def _absorb(self, x: float) -> None:
        """Raise each device's free time to its first up instant at or
        after ``x``, the start of the batch just placed, then refresh
        ``nda``.

        Later batches start at or after ``x`` (dispatch is FIFO), so the
        earlier instants can no longer matter.
        """
        nda = float("inf")
        for d, trace in enumerate(self.traces):
            downs, ups = trace.down_s, trace.up_s
            k = self.ptr[d]
            t = self.free_at[d] = max(self.free_at[d], x)
            while k < len(downs) and ups[k] <= t:
                k += 1
            if k < len(downs) and downs[k] <= t:
                self.free_at[d] = ups[k]
                k += 1
            self.ptr[d] = k
            if k < len(downs) and downs[k] < nda:
                nda = downs[k]
        self.nda = nda

    def _place(self, sealed: float) -> Tuple[float, int]:
        """Exact start and device of the next batch; device -1 when the
        fleet never comes back."""
        best = float("inf")
        device = -1
        for d, free in enumerate(self.free_at):
            t = free if free > sealed else sealed
            trace = self.traces[d]
            k = bisect_right(trace.down_s, t) - 1
            if k >= 0 and t < trace.up_s[k]:
                t = trace.up_s[k]
            if t < best:
                best, device = t, d
        if device >= 0:
            self._absorb(best)
        return best, device

    def _run_batch(self, sealed, service, energy, rows, cursor):
        """Place one batch exactly; ``(start, finish, device)`` or None
        when it is lost or stranded."""
        start, device = self._place(sealed)
        dispatched = self.dispatched
        self.dispatched += 1
        if device < 0:
            # Stranded: dropped after every loss, in seal order.
            for m, row in enumerate(rows):
                key = (np.inf, dispatched, m)
                self.drops.append((key, row, DROP_STRANDED, sealed))
            return None
        finish = start + service
        fail = self.traces[device].next_down_after(start)
        if fail < finish:
            self._lose(rows, start, device, fail, service, energy, dispatched, cursor)
            return None
        self.free_at[device] = finish
        self.busy_s[device] += service
        self.energy_by_device[device] += energy
        return start, finish, device

    def _lose(self, rows, start, device, fail, service, energy, dispatched, cursor):
        """The device dies mid-batch: account the loss (the decode core's
        float expressions), then retry or drop each member."""
        lost = fail - start
        trace = self.traces[device]
        k = bisect_right(trace.down_s, start)
        self.free_at[device] = trace.up_s[k]
        self.ptr[device] = k + 1
        self._absorb(start)
        self.busy_s[device] += lost
        self.wasted_energy_pj += energy * (lost / service)
        self.failed_batches += 1
        retry = self.retry
        for m, row in enumerate(rows):
            f = self.failures.get(row, 0) + 1
            self.failures[row] = f
            key = (fail, dispatched, m)
            if f >= retry.max_attempts:
                self.drops.append((key, row, DROP_RETRIES, fail))
                continue
            retry_at = fail + retry.backoff_s(f)
            if retry_at > float(self.arrival_s[row]) + float(self.deadline_s[row]):
                self.drops.append((key, row, DROP_DEADLINE, fail))
                continue
            q = self.queue_of_row(row)
            self.retries += 1
            self.retry_events.append(
                (key, (int(self.request_id[row]), retry_at, f + 1, self.specs[q].name))
            )
            heappush(self.heap, (retry_at, _RETRY, key, row))
            self._reform_queue(q, cursor).retries += 1

    def _reform_queue(self, q: int, cursor: int) -> _Reform:
        """The queue's scalar batcher, started at its first chain batch
        at or after global position ``cursor`` if it has none yet."""
        st = self.reform.get(q)
        if st is None:
            lo, hi = int(self.offsets[q]), int(self.offsets[q + 1])
            first = int(np.searchsorted(self.rank[lo:hi], cursor))
            while lo + first < hi and self.superseded[lo + first]:
                first += 1
            starts = self.chain_start[q]
            pos = int(starts[first]) if first < starts.size else self.rows[q].size
            st = self.reform[q] = _Reform(first, pos)
        return st

    def _admit(self, q, st: _Reform, row: int, now: float, created, cursor) -> None:
        if not st.members:
            st.ready = now
            st.created = created
        st.members.append(row)
        if len(st.members) >= self.max_batch_size:
            self._seal(q, st, now, True, cursor)
        elif self.max_wait_s == 0:
            self._seal(q, st, now, False, cursor)

    def _seal(self, q, st: _Reform, now: float, by_size: bool, cursor) -> None:
        rows = st.members
        st.members = []
        self.extra_batches += 1
        self.extra_size_triggered += by_size
        service, energy = self.price(self.specs[q], rows)
        out = self._run_batch(now, service, energy, rows, cursor)
        if out is not None:
            self.reformed.append((rows, now) + out)
        if st.members or st.retries:
            return
        # Hand back to the chain once the queue sits on a chain batch
        # start (one the end-of-stream rule still seals as formed).
        starts = self.chain_start[q]
        j = int(np.searchsorted(starts, st.pos))
        lo = int(self.offsets[q])
        if st.pos < self.rows[q].size:
            if j == starts.size or starts[j] != st.pos:
                return
            if self.eos is False and self._chain_key(lo + j)[:4] == self.eos_key:
                return
        self.superseded[lo + st.first : lo + j] = True
        del self.reform[q]

    # ------------------------------------------------------------------
    def fault_columns(self, outcome: dict, faults, start_s: float):
        """Overlay the re-formed batches and the drops on the scattered
        outcome columns; returns the fault columns and the end instant."""
        for rows, sealed, start, finish, device in self.reformed:
            outcome["batched_s"][rows] = sealed
            outcome["service_start_s"][rows] = start
            outcome["finish_s"][rows] = finish
            outcome["batch_size"][rows] = len(rows)
            outcome["device_id"][rows] = device
        attempts = np.ones(self.arrival_s.size, dtype=np.int64)
        for row, failures in self.failures.items():
            attempts[row] += failures
        drops = [(row, reason, at) for _, row, reason, at in sorted(self.drops)]
        dropped = [row for row, _, _ in drops]
        attempts[dropped] -= 1
        for name in ("batched_s", "service_start_s", "finish_s"):
            outcome[name][dropped] = np.nan
        outcome["batch_size"][dropped] = 0
        outcome["device_id"][dropped] = -1
        retry_events = [event for _, event in sorted(self.retry_events)]
        return _fault_columns(
            self, faults, drops, attempts, outcome["finish_s"], start_s, retry_events
        )


def simulate_table(
    table: RequestTable,
    cost_model: ServiceCostModel,
    num_devices: int = 1,
    max_batch_size: int = 8,
    max_wait_s: float = 2e-3,
    setup_cycles: int = DEFAULT_SETUP_CYCLES,
    recorder: Optional[TraceRecorder] = None,
    threads: int = 1,
    faults=None,
    retry=None,
    _formed: Optional[dict] = None,
) -> ColumnarServingResult:
    """Run one deployment over a columnar stream; the fast path.

    Identical knobs and semantics to building ``num_devices``
    :class:`~repro.serving.devices.SprintDevice` plus a
    :class:`~repro.serving.batching.DynamicBatcher` and calling
    :meth:`~repro.serving.scheduler.ServingSimulator.run`, but
    batch-granular: O(requests / mean batch size) light Python
    iterations instead of O(requests) heap events.  Unlike the
    single-use reference simulator, this function carries no run state
    and may be called repeatedly.

    Generative tables (an ``output_len`` column present) route to the
    event-driven decode engine, :func:`~repro.serving.decode.
    simulate_decode_table` -- same knobs, same bitwise-vs-reference
    contract, and the same result type with the generative columns
    filled.  Prefill tables run the batch-granular engine below, with
    or without a ``faults`` schedule (a :class:`~repro.serving.faults.
    FaultSchedule`; ``retry`` customizes its :class:`~repro.serving.
    faults.RetryPolicy`, default ``RetryPolicy()``).  Under a schedule
    phase 2 is :class:`_FaultDispatch`: the same chains dispatched only
    to devices that are up, lost batches' members retried or dropped,
    and only the batches a retry touches re-formed; the result then
    covers every offered request with the fault columns filled.

    ``recorder`` opts into sim-time tracing: the sampled requests'
    lifecycle spans are emitted from the finished columns after the
    simulation proper, so tracing cannot perturb a single computed
    value -- results are bitwise identical with tracing on or off (and
    the emitted spans bitwise match the reference loop's).

    ``threads`` parallelises only the decode engine's per-queue
    cost-vector prebuild, so it matters for generative runs alone; a
    prefill run forms its batches serially in a few vectorised passes
    per queue, and its results are the same at every thread count.
    ``_formed`` is the process-shard injection point
    (:func:`repro.runtime.pool.simulate_table_sharded`): a dict of
    queue id -> precomputed phase-1 parts for the canonically sorted
    table.
    """
    from repro.serving.decode import (
        _fault_hook,
        _validate_knobs,
        simulate_decode_table,
    )

    if _formed is not None and (faults is not None or table.output_len is not None):
        raise ValueError(
            "sharded batch formation applies to fault-free prefill tables only"
        )
    if table.output_len is not None:
        # Generative decode-step readiness depends on device timing, so
        # batch formation cannot be precomputed: the event-driven core
        # runs.
        return simulate_decode_table(
            table,
            cost_model,
            num_devices=num_devices,
            max_batch_size=max_batch_size,
            max_wait_s=max_wait_s,
            setup_cycles=setup_cycles,
            recorder=recorder,
            threads=threads,
            faults=faults,
            retry=retry,
        )
    if faults is None and retry is not None:
        raise ValueError("a retry policy requires a fault schedule")
    if len(table) == 0:
        raise ValueError("request stream must not be empty")
    _validate_knobs(num_devices, max_batch_size, max_wait_s, threads)
    retry = _fault_hook(faults, retry, num_devices)
    if has_duplicate_ids(table.request_id):
        raise ValueError("duplicate request id in stream")

    order = np.lexsort((table.request_id, table.arrival_s))
    request_id = table.request_id[order]
    arrival_s = table.arrival_s[order]
    spec_idx = table.spec_idx[order]
    valid_len = table.valid_len[order]
    n = len(table)
    last_arrival_s = float(arrival_s[n - 1])
    frequency_hz = cost_model.config.frequency_ghz * 1e9

    # ------------------------------------------------------------------
    # Phase 1: per-model batch formation (device-independent).  One
    # queue per model *name*, like the reference batcher: a spec list
    # may carry the same model under several indices (a mix that
    # repeats a model), and those requests share one queue.
    # ------------------------------------------------------------------
    queue_specs, queue_of_spec = _queue_map(table.specs)
    rows_list = _group_rows(spec_idx, queue_of_spec, len(queue_specs))
    active = [qid for qid in range(len(queue_specs)) if rows_list[qid].size]

    def _one_queue(qid: int):
        rows = rows_list[qid]
        return _form_queue(
            arrival_s[rows],
            request_id[rows],
            valid_len[rows],
            queue_specs[qid],
            cost_model,
            max_batch_size,
            max_wait_s,
            setup_cycles,
            frequency_hz,
            last_arrival_s=last_arrival_s,
        )

    if _formed is not None:
        per_queue = [_formed[qid] for qid in active]
    else:
        per_queue = [_one_queue(qid) for qid in active]

    model_rows: List[np.ndarray] = []
    model_slices: List[Tuple[int, int]] = []
    form_columns: List[Tuple[np.ndarray, ...]] = []
    service_parts: List[np.ndarray] = []
    energy_parts: List[np.ndarray] = []
    total = 0
    for qid, (formed, service, energy, _consumed) in zip(active, per_queue):
        model_rows.append(rows_list[qid])
        model_slices.append((total, total + formed[0].size))
        form_columns.append(formed)
        service_parts.append(service)
        energy_parts.append(energy)
        total += formed[0].size

    member_count = np.concatenate([f[1] for f in form_columns])
    sealed_s = np.concatenate([f[2] for f in form_columns])
    size_sealed = np.concatenate([f[3] for f in form_columns])
    tie_arrival = np.concatenate([f[4] for f in form_columns])
    tie_id = np.concatenate([f[5] for f in form_columns])
    service_s = np.concatenate(service_parts)
    energy_pj = np.concatenate(energy_parts)
    num_batches = member_count.size

    # ------------------------------------------------------------------
    # Phase 2: k-server FIFO dispatch over batches in global seal order.
    # ------------------------------------------------------------------
    deadline_s = None if table.deadline_s is None else table.deadline_s[order]
    if faults is None:
        busy_s = [0.0] * num_devices
        energy_by_device = [0.0] * num_devices
        batch_start, batch_finish, batch_device = _dispatch(
            sealed_s,
            service_s,
            energy_pj,
            size_sealed,
            tie_arrival,
            tie_id,
            [0.0] * num_devices,
            busy_s,
            energy_by_device,
        )
    else:
        queue_pos = np.full(len(queue_specs), -1, dtype=np.int64)
        queue_pos[active] = np.arange(len(active))
        spec_queue = queue_pos[queue_of_spec]

        def price(spec, rows: List[int]) -> Tuple[float, float]:
            # _form_queue's expressions, for one re-formed batch.
            cost = cost_model.sample_cost(spec, int(valid_len[rows].max()))
            size = len(rows)
            service = (setup_cycles + cost.cycles * size) / frequency_hz
            return service, cost.energy_pj * size

        fault = _FaultDispatch(faults, retry, num_devices, max_batch_size, max_wait_s)
        batches = (sealed_s, size_sealed, member_count, service_s, energy_pj)
        batch_start, batch_finish, batch_device = fault.run(
            (arrival_s, request_id, deadline_s),
            [
                (queue_specs[qid], rows, f[0])
                for qid, rows, f in zip(active, model_rows, form_columns)
            ],
            batches + (tie_arrival, tie_id),
            price,
            lambda row: int(spec_queue[spec_idx[row]]),
        )
        busy_s = fault.busy_s
        energy_by_device = fault.energy_by_device

    # ------------------------------------------------------------------
    # Phase 3: scatter per-batch outcomes back to per-request columns.
    # A model's batches tile its sorted rows in formation order, so one
    # repeat() per model covers every member.
    # ------------------------------------------------------------------
    outcome = dict(
        batched_s=np.empty(n, dtype=np.float64),
        service_start_s=np.empty(n, dtype=np.float64),
        finish_s=np.empty(n, dtype=np.float64),
        batch_size=np.empty(n, dtype=np.int64),
        device_id=np.empty(n, dtype=np.int64),
    )
    for rows, (lo, hi) in zip(model_rows, model_slices):
        counts = member_count[lo:hi]
        outcome["batched_s"][rows] = np.repeat(sealed_s[lo:hi], counts)
        outcome["service_start_s"][rows] = np.repeat(batch_start[lo:hi], counts)
        outcome["finish_s"][rows] = np.repeat(batch_finish[lo:hi], counts)
        outcome["batch_size"][rows] = np.repeat(member_count[lo:hi], counts)
        outcome["device_id"][rows] = np.repeat(batch_device[lo:hi], counts)

    start_s = float(arrival_s[0])
    size_triggered = int(np.count_nonzero(size_sealed))
    fault_columns: dict = {}
    if faults is None:
        end_s = float(np.max(batch_finish))
    else:
        fault_columns, end_s = fault.fault_columns(outcome, faults, start_s)
        # Re-formed batches replace the chain batches they supersede.
        kept = ~fault.superseded
        num_batches = int(np.count_nonzero(kept)) + fault.extra_batches
        size_triggered = (
            int(np.count_nonzero(size_sealed & kept)) + fault.extra_size_triggered
        )
    completed = n - fault_columns.get("dropped", 0)
    result = ColumnarServingResult(
        specs=table.specs,
        request_id=request_id,
        arrival_s=arrival_s,
        spec_idx=spec_idx,
        valid_len=valid_len,
        deadline_s=deadline_s,
        **outcome,
        **fault_columns,
        completed=completed,
        start_s=start_s,
        end_s=end_s,
        device_busy_s=busy_s,
        device_energy_pj=energy_by_device,
        batches=int(num_batches),
        prefill_batches=int(num_batches),
        decode_batches=0,
        size_triggered_batches=size_triggered,
        timeout_triggered_batches=int(num_batches) - size_triggered,
        total_tokens=completed,
    )
    if recorder is not None:
        _record_spans(recorder, result)
        if faults is not None:
            _emit_fault_trace(
                recorder, faults, num_devices, start_s, end_s, result.retry_events
            )
    return result


# ----------------------------------------------------------------------
# Out-of-core chunked driver.
# ----------------------------------------------------------------------


#: Column layout of a per-queue batch "part": batch-level arrays first
#: (sealed, by_size, tie_arrival, tie_id, service, energy, counts),
#: then member-level arrays (arrival, request_id, valid_len, spec_idx)
#: aligned with ``counts``.
_BATCH_COLS = 7


@dataclass
class _QueueState:
    """One model queue's frontier between chunks.

    ``pend`` is the unsealed tail (provably shorter than the batch
    size bound); ``carry`` holds batches already sealed but not yet
    dispatchable (sealed exactly at the current horizon -- a later
    flush retires them).  Both are O(open batch), not O(stream).
    """

    spec: object
    pend: Tuple[np.ndarray, ...] = field(
        default_factory=lambda: (
            np.empty(0, dtype=np.float64),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
        )
    )
    carry: Optional[Tuple[np.ndarray, ...]] = None


def _advance_queue(
    q: _QueueState,
    cost_model: ServiceCostModel,
    max_batch_size: int,
    max_wait_s: float,
    setup_cycles: int,
    frequency_hz: float,
    horizon_s: Optional[float],
    last_arrival_s: Optional[float],
) -> Optional[Tuple[np.ndarray, ...]]:
    """Seal and price whatever is certain in one queue's pending tail."""
    arr, rid, vlen, sidx = q.pend
    if arr.size == 0:
        return None
    formed, service, energy, consumed = _form_queue(
        arr,
        rid,
        vlen,
        q.spec,
        cost_model,
        max_batch_size,
        max_wait_s,
        setup_cycles,
        frequency_hz,
        last_arrival_s=last_arrival_s,
        horizon_s=horizon_s,
    )
    if consumed == 0:
        return None
    part = (
        formed[2],
        formed[3],
        formed[4],
        formed[5],
        service,
        energy,
        formed[1],
        arr[:consumed],
        rid[:consumed],
        vlen[:consumed],
        sidx[:consumed],
    )
    q.pend = (
        arr[consumed:].copy(),
        rid[consumed:].copy(),
        vlen[consumed:].copy(),
        sidx[consumed:].copy(),
    )
    return part


def _split_carry(
    q: _QueueState,
    part: Optional[Tuple[np.ndarray, ...]],
    horizon_s: Optional[float],
) -> Optional[Tuple[np.ndarray, ...]]:
    """Merge carried batches with newly sealed ones and split on the horizon.

    Only batches sealed *strictly before* the horizon may dispatch: a
    future chunk can still seal batches exactly at the horizon instant
    (size seals anchored on a boundary arrival), and the global
    dispatch order breaks same-instant ties across queues.  Batches at
    the horizon stay carried; ``horizon_s=None`` (end of stream)
    flushes everything.
    """
    if q.carry is not None and part is not None:
        combined = tuple(np.concatenate((c, p)) for c, p in zip(q.carry, part))
    elif q.carry is not None:
        combined = q.carry
    elif part is not None:
        combined = part
    else:
        return None
    if horizon_s is None:
        q.carry = None
        return combined
    sealed = combined[0]
    batch_mask = sealed < horizon_s
    if batch_mask.all():
        q.carry = None
        return combined
    member_mask = np.repeat(batch_mask, combined[_BATCH_COLS - 1])
    held = tuple(a[~batch_mask] for a in combined[:_BATCH_COLS]) + tuple(
        a[~member_mask] for a in combined[_BATCH_COLS:]
    )
    q.carry = held
    if not batch_mask.any():
        return None
    return tuple(a[batch_mask] for a in combined[:_BATCH_COLS]) + tuple(
        a[member_mask] for a in combined[_BATCH_COLS:]
    )


def simulate_stream(
    chunks: Iterable[RequestTable],
    cost_model: ServiceCostModel,
    num_devices: int = 1,
    max_batch_size: int = 8,
    max_wait_s: float = 2e-3,
    setup_cycles: int = DEFAULT_SETUP_CYCLES,
    threads: int = 1,
    sink: Optional[Callable[[CompletedChunk], None]] = None,
    faults=None,
    retry=None,
) -> StreamedServingResult:
    """Out-of-core serving simulation over a chunked request stream.

    Consumes ``RequestTable`` chunks in arrival order (e.g. from
    :class:`repro.serving.stream.RequestStream`), carrying only the
    O(devices + open batches) frontier between chunks: per-queue
    unsealed tails, sealed-at-horizon batches, device free times, and
    running busy/energy folds.  Completed requests leave immediately
    as :class:`CompletedChunk` columns through ``sink`` -- peak memory
    is one chunk plus the frontier, independent of stream length.

    Generative streams (the first non-empty chunk carries an
    ``output_len`` column) and runs with a ``faults`` schedule route to
    the decode engine's chunked driver,
    :func:`~repro.serving.decode.simulate_decode_stream`, whose chunks
    and totals fill the generative or fault columns of the same types.
    Prefill chunks under a schedule run there too, as one-token
    requests, while :func:`simulate_table` runs a prefill table under a
    schedule on the batch engine; the fault tests diff the two.

    The equivalence contract matches :func:`simulate_table`: for the
    same concatenated stream and knobs, every per-request column value,
    device busy/energy total, and batch counter is **bitwise equal**
    to the whole-table run (and hence to the reference event loop),
    at every chunk size.  As in :func:`simulate_table`, ``threads``
    reaches only the decode engine's cost-vector prebuild.

    Chunks must be non-overlapping and ordered: each chunk's earliest
    (arrival, id) must lexicographically follow the previous chunk's
    latest, all chunks must share one spec list, and either every
    chunk has an ``output_len`` column or none has.  Request-id
    uniqueness is enforced within a chunk; across chunks it is the
    caller's contract (checking it globally would break the O(1)
    memory bound).
    """
    from repro.serving.decode import _validate_knobs, simulate_decode_stream

    # Peek the first non-empty chunk to route generative streams.
    iterator = iter(chunks)
    first = next(iterator, None)
    while first is not None and len(first) == 0:
        first = next(iterator, None)
    chunks = iter(()) if first is None else chain([first], iterator)
    if faults is not None or (first is not None and first.output_len is not None):
        return simulate_decode_stream(
            chunks,
            cost_model,
            num_devices=num_devices,
            max_batch_size=max_batch_size,
            max_wait_s=max_wait_s,
            setup_cycles=setup_cycles,
            sink=sink,
            threads=threads,
            faults=faults,
            retry=retry,
        )
    if retry is not None:
        raise ValueError("a retry policy requires a fault schedule")
    _validate_knobs(num_devices, max_batch_size, max_wait_s, threads)
    frequency_hz = cost_model.config.frequency_ghz * 1e9

    specs: Optional[List] = None
    queue_specs: List = []
    queue_of_spec = np.empty(0, dtype=np.int64)
    queues: List[_QueueState] = []
    free_at = [0.0] * num_devices
    busy_s = [0.0] * num_devices
    energy_by_device = [0.0] * num_devices
    completed_total = 0
    batches_total = 0
    size_triggered_total = 0
    start_s = 0.0
    end_s = -np.inf
    prev_arrival = -np.inf
    prev_id = -1

    def _advance_and_split(qid: int, horizon, last_arrival):
        part = _advance_queue(
            queues[qid],
            cost_model,
            max_batch_size,
            max_wait_s,
            setup_cycles,
            frequency_hz,
            horizon,
            last_arrival,
        )
        return _split_carry(queues[qid], part, horizon)

    def _flush(parts) -> None:
        nonlocal completed_total, batches_total, size_triggered_total, end_s
        if not parts:
            return
        cols = [np.concatenate([p[k] for p in parts]) for k in range(len(parts[0]))]
        sealed, by_size, tie_a, tie_i, service, energy, counts = cols[:_BATCH_COLS]
        b_start, b_finish, b_device = _dispatch(
            sealed,
            service,
            energy,
            by_size,
            tie_a,
            tie_i,
            free_at,
            busy_s,
            energy_by_device,
        )
        batches_total += int(sealed.size)
        size_triggered_total += int(np.count_nonzero(by_size))
        flush_end = float(np.max(b_finish))
        if flush_end > end_s:
            end_s = flush_end
        completed = CompletedChunk(
            specs=specs,
            arrival_s=cols[_BATCH_COLS],
            request_id=cols[_BATCH_COLS + 1],
            valid_len=cols[_BATCH_COLS + 2],
            spec_idx=cols[_BATCH_COLS + 3],
            batched_s=np.repeat(sealed, counts),
            service_start_s=np.repeat(b_start, counts),
            finish_s=np.repeat(b_finish, counts),
            batch_size=np.repeat(counts, counts),
            device_id=np.repeat(b_device, counts),
        )
        completed_total += len(completed)
        if sink is not None:
            sink(completed)

    for chunk in chunks:
        if len(chunk) == 0:
            continue
        if chunk.output_len is not None:
            raise ValueError(_MIXED_CHUNKS)
        order = np.lexsort((chunk.request_id, chunk.arrival_s))
        arrival = chunk.arrival_s[order]
        request_id = chunk.request_id[order]
        spec_idx = chunk.spec_idx[order]
        valid_len = chunk.valid_len[order]
        if has_duplicate_ids(request_id):
            raise ValueError("duplicate request id in chunk")
        if specs is None:
            specs = list(chunk.specs)
            queue_specs, queue_of_spec = _queue_map(specs)
            queues = [_QueueState(spec) for spec in queue_specs]
            start_s = float(arrival[0])
        elif list(chunk.specs) != specs:
            raise ValueError("chunks disagree on the spec list")
        first_a, first_i = float(arrival[0]), int(request_id[0])
        if first_a < prev_arrival or (first_a == prev_arrival and first_i <= prev_id):
            raise ValueError(
                "chunks out of order: a chunk must start strictly "
                "after the previous chunk's last (arrival, id)"
            )
        prev_arrival = float(arrival[-1])
        prev_id = int(request_id[-1])
        horizon = prev_arrival

        rows_list = _group_rows(spec_idx, queue_of_spec, len(queues))
        for qid, rows in enumerate(rows_list):
            if rows.size:
                q = queues[qid]
                q.pend = (
                    np.concatenate((q.pend[0], arrival[rows])),
                    np.concatenate((q.pend[1], request_id[rows])),
                    np.concatenate((q.pend[2], valid_len[rows])),
                    np.concatenate((q.pend[3], spec_idx[rows])),
                )
        parts = [
            _advance_and_split(qid, horizon, None)
            for qid in range(len(queues))
            if queues[qid].pend[0].size or queues[qid].carry is not None
        ]
        _flush([p for p in parts if p is not None])

    if specs is None:
        raise ValueError("request stream must not be empty")
    # End of stream: the pending tails seal at the global last
    # arrival and every carried batch dispatches.
    parts = [_advance_and_split(qid, None, prev_arrival) for qid in range(len(queues))]
    _flush([p for p in parts if p is not None])

    return StreamedServingResult(
        completed=completed_total,
        start_s=start_s,
        end_s=end_s,
        device_busy_s=busy_s,
        device_energy_pj=energy_by_device,
        batches=batches_total,
        prefill_batches=batches_total,
        decode_batches=0,
        size_triggered_batches=size_triggered_total,
        timeout_triggered_batches=batches_total - size_triggered_total,
        total_tokens=completed_total,
    )
