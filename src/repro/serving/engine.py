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
   the mean batch size.  One scalar kernel over a float min-heap of
   the free times, :func:`_place_batches`, serves every fleet size,
   including a single device, and the fault dispatcher's hot loop.
3. **Costs and metrics stay columnar.**  Per-batch cycles/energy come
   from :meth:`~repro.serving.devices.ServiceCostModel.cost_arrays`
   (array indexing into the primed bucket cache) and
   :func:`~repro.serving.metrics.summarize` consumes the result's
   columns directly.

Prefill traffic, with or without a fault schedule, runs all three
steps in one chunked core, :class:`_PrefillCore`, over slices of
(arrival, id)-sorted rows: a slice's rows join their queues, every
batch no later arrival can change seals and dispatches, and its
requests leave.  Generative traffic runs the decode engine's event
core, which has the same interface (:func:`_core`).  The one table
driver, :func:`simulate_table`, feeds a core row slices of the table's
sorted columns and scatters each flush into the result's outcome
columns, so besides its result a table run holds about one slice's
working set; a table already in (arrival, id) order is neither sorted
nor copied, and its result shares the table's request columns.
The one stream driver, :func:`simulate_stream`, checks each chunk
(:func:`_checked_chunks`), feeds it to a core and hands each flush to
its sink.

Faults hook into step 2.  Under a fault schedule a flush's batch
chains are still the arrival-only ones, and :class:`_FaultDispatch`
dispatches them in the reference's seal order, re-forms only the few
batches a retry touches, and holds back what a later row could still
change: a retry, or a re-formed batch, due past the next arrival.
Where a batch may start, what a lost batch costs and whether each
member retries or drops is the fleet model's
(:class:`~repro.serving.faults.Fleet`), which the decode core shares.

The equivalence contract: for any stream, knobs, and device count,
:func:`simulate_table` produces per-request records **exactly equal**
(bitwise, not approximately) to the reference loop's -- the same
floating-point expressions are evaluated in the same order, only
batched.  ``tests/test_serving_engine.py`` pins this across arrival
patterns, execution modes, seeds, device counts, and wait bounds,
``tests/test_serving_stream.py`` at every slice and chunk size, and
``tests/test_serving_faults.py`` under fault schedules, at every slice
and chunk size too.

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
from heapq import heapify, heappop, heappush, heapreplace
from itertools import chain
from typing import Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.obs.trace import TraceRecorder
from repro.serving.devices import DEFAULT_SETUP_CYCLES, ServiceCostModel
from repro.serving.faults import (
    DROP_REASON_NAMES,
    DROP_STRANDED,
    DroppedRecord,
    Fleet,
    _check_knobs,
    _drop_columns,
    _emit_fault_trace,
)
from repro.serving.requests import (
    _COLUMN_DTYPES,
    Request,
    RequestRecord,
    RequestTable,
    has_duplicate_ids,
)
from repro.serving.scheduler import DecodeRecord, GenerativeResult, ServingResult


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
    The request columns (``request_id``, ``arrival_s``, ``spec_idx``,
    ``valid_len`` and the optional ``output_len`` and ``deadline_s``)
    are read-only; for an input table already in that order they are
    views of the table's own arrays, so a later write to the table
    shows through the result (``RequestTable.slice`` copies when
    isolation is wanted).  Under a fault schedule the rows cover every
    offered request:
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
                dropped_by_reason=dict(self.dropped_by_reason),
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
    selection is identical to ``np.flatnonzero(np.isin(...))``.  Keys
    take the smallest unsigned type that holds every queue id, so numpy
    radix-sorts them (8- and 16-bit keys); the permutation is the same.
    """
    if num_queues == 1:
        return [np.arange(spec_idx.size, dtype=np.int64)]
    qcol = queue_of_spec.astype(np.min_scalar_type(num_queues - 1))[spec_idx]
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
    """Step 1 for one queue: seal batches and price them.

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


#: Batches placed per dispatch block.  The kernel reads Python floats
#: off ``memoryview`` slices as it goes, and only one block's start and
#: device lists are held at once, so peak memory does not grow with the
#: column.
_DISPATCH_BLOCK = 8192


def _place_batches(
    batches: Iterable[Tuple[float, float]],
    free_at: List[float],
    horizon: float,
    starts: List[float],
    devices: List[int],
) -> None:
    """The k-server FIFO rule: place ``(sealed, service)`` batches in order.

    Each batch takes the lowest-index device idle at its seal (the
    device the reference's index-order scan picks); when every device
    is busy it waits for the earliest free time and takes the first
    device freeing then -- together, ``max(sealed, earliest free)``.
    A float min-heap of the free times answers "earliest free" in
    O(1): when every device is busy, ``free_at.index`` of the heap top
    is the lowest-index device freeing then and one ``heapreplace``
    books it; an idle batch scans for the lowest-index idle device and
    rebuilds the heap.

    Appends each placed batch's start and device and updates
    ``free_at`` in place.  Stops before the first batch that would
    start at or finish after ``horizon`` (an outage the caller places
    exactly), leaving it consumed from ``batches`` and unplaced.
    Busy and energy totals are the caller's (:func:`_fold`).
    """
    heap = free_at.copy()
    heapify(heap)
    for sealed, service in batches:
        top = heap[0]
        if top > sealed:
            finish = top + service
            if finish > horizon or top >= horizon:
                return
            device = free_at.index(top)
            heapreplace(heap, finish)
            free_at[device] = finish
            starts.append(top)
        else:
            finish = sealed + service
            if finish > horizon or sealed >= horizon:
                return
            for device, free in enumerate(free_at):
                if free <= sealed:
                    break
            free_at[device] = finish
            heap = free_at.copy()
            heapify(heap)
            starts.append(sealed)
        devices.append(device)


def _fold(totals: List[float], devices, values: np.ndarray) -> None:
    """Add ``values`` into per-device ``totals`` in place, in order.

    ``np.bincount`` sums its weights sequentially, so folding the
    carried totals first and then the values in placement order makes
    the same float additions as one ``totals[device] += value`` per
    batch.
    """
    k = len(totals)
    totals[:] = np.bincount(
        np.concatenate((np.arange(k), np.asarray(devices, dtype=np.int64))),
        weights=np.concatenate((totals, values)),
        minlength=k,
    ).tolist()


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
    rank), places them with :func:`_place_batches`, and mutates the
    carried ``free_at`` / ``busy_s`` / ``energy_by_device`` state in
    place -- the chunked driver calls this once per flush and the
    carried state makes the flush sequence bitwise equal to one
    whole-stream pass.
    Returns per-batch ``(start, finish, device)`` in input order.

    The placement loop runs over Python scalars, one block of sorted
    batches at a time; per block, ``finish = start + service`` is one
    vector add and the busy and energy totals are one :func:`_fold`
    each.
    """
    num_batches = sealed_s.size
    batch_start = np.empty(num_batches, dtype=np.float64)
    batch_finish = np.empty(num_batches, dtype=np.float64)
    batch_device = np.empty(num_batches, dtype=np.int64)
    if num_batches == 0:
        return batch_start, batch_finish, batch_device
    order = np.lexsort((tie_id, tie_arrival, ~size_sealed, sealed_s))
    service_sorted = service_s[order]
    energy_sorted = energy_pj[order]
    sealed = memoryview(sealed_s[order])
    service = memoryview(service_sorted)
    for lo in range(0, num_batches, _DISPATCH_BLOCK):
        hi = min(lo + _DISPATCH_BLOCK, num_batches)
        starts: List[float] = []
        devices: List[int] = []
        batches = zip(sealed[lo:hi], service[lo:hi])
        _place_batches(batches, free_at, np.inf, starts, devices)
        block_device = np.asarray(devices, dtype=np.int64)
        _fold(busy_s, block_device, service_sorted[lo:hi])
        _fold(energy_by_device, block_device, energy_sorted[lo:hi])
        rows = order[lo:hi]
        block_start = np.asarray(starts, dtype=np.float64)
        batch_start[rows] = block_start
        batch_finish[rows] = block_start + service_sorted[lo:hi]
        batch_device[rows] = block_device
    return batch_start, batch_finish, batch_device


# Reference event priorities (:class:`~repro.serving.events.EventKind`)
# of the events that seal batches; seal keys order on them.
_ARRIVAL = 1
_TIMEOUT = 2
_RETRY = 5


class _Row(NamedTuple):
    """A request on the fault dispatcher's scalar paths (lost, or
    admitted by a re-formed queue): the members
    :meth:`_PrefillCore.admit` holds under a schedule, then its queue."""

    row: int
    arrival_s: float
    valid_len: int
    request_id: int
    spec_idx: int
    #: Absolute deadline: arrival plus the request's deadline (inf if none).
    deadline_s: float
    queue: int


#: The chain part of a flush that seals from no queue, under a schedule:
#: the batch columns of :data:`_BATCH_COLS`, then :class:`_Row`'s members.
_EMPTY_PART = tuple(
    np.empty(0, dtype) for dtype in "f8 ? f8 i8 f8 f8 i8 i8 f8 i8 i8 i8 f8".split()
)


def _extend(col: np.ndarray, values) -> np.ndarray:
    """``col`` followed by the scalars ``values``, in ``col``'s dtype."""
    return np.concatenate((col, np.array(values, dtype=col.dtype)))


class _Reform:
    """One queue's scalar batcher while retries re-form its batches:
    the first chain batch of the flush it replaces, the next row to
    admit (an index into the queue's rows of the flush), the open
    batch's rows in admission order, its oldest member's ready instant,
    the key of the event that opened it (the reference batcher's queue
    order), and the retries scheduled into the queue but not yet
    admitted."""

    __slots__ = ("first", "pos", "members", "ready", "created", "retries")

    def __init__(self, first: int, pos: int):
        self.first = first
        self.pos = pos
        self.members: List[_Row] = []
        self.ready = 0.0
        self.created: tuple = ()
        self.retries = 0


class _FaultDispatch:
    """Dispatch under a fault schedule, one flush at a time: chain order
    and re-formation.

    Each flush hands over the arrival-only batch chains it sealed, which
    are the fault-free core's, and this dispatches them in the global
    seal order, like :func:`_dispatch`, through a
    :class:`~repro.serving.faults.Fleet`, which places each batch only
    on a device that is up, books it or its loss, and retries or drops
    a lost batch's members.  The fleet's free times are *effective*
    ones, with the outages that start while a device idles or that
    kill its batch folded in, so the hot loop is :func:`_place_batches`
    over them with one more value as its horizon: the fleet's ``nda``,
    the earliest outage start not folded in.  A fault-free choice that
    starts and finishes before it is exact; the batch that reaches it
    goes through the fleet (:meth:`_run_batch`).

    A retry re-joins its queue, so from the queue's first undispatched
    chain batch on a scalar batcher (:class:`_Reform`) applies the
    reference rules to the merged arrivals and retries, until the queue
    sits on a chain batch start, or on its unsealed tail, again with no
    retry pending.  While any queue re-forms the next batch is the one
    with the smallest seal key -- (instant, event priority, event key,
    phase within the event, opening event) -- over the chains and the
    re-formed queues, which is the reference's seal order.  This is
    causal: a retry lands after its lost batch started, so a loss is
    known before any batch it can change is next, and so is the
    pending-retry count that decides the end-of-stream flush.

    A flush dispatches only what ranks before its bound, the key of the
    next row's arrival: every chain batch it sealed does, and a later
    row's batches and arrivals do not.  A retry or re-formed timeout at
    or past the bound waits, with the re-formed queues and the
    per-request state of the rows that were lost, for the next flush;
    the final flush applies both end-of-stream rules and dispatches
    everything.
    """

    def __init__(self, fleet: Fleet, specs, knobs: tuple, rows: bool):
        self.fleet = fleet
        self.specs = specs
        #: :class:`_PrefillCore`'s knobs: cost model, batch size and wait
        #: bounds, set-up cycles, clock frequency.
        self.knobs = knobs
        _, self.max_batch_size, self.max_wait_s, _, _ = knobs
        #: The member columns a flush returns: the stream index, then the
        #: request columns unless the core emits rows.
        self.width = 1 if rows else 5
        self.dispatched = self.batches = self.size_triggered = 0
        self.failures: Dict[int, int] = {}
        #: (retry instant, priority, (failure instant, dispatch index,
        #: member), row): the reference's RETRY order.
        self.heap: list = []
        self.reform: Dict[int, _Reform] = {}
        #: (sealed, start, finish, size, device) per re-formed batch the
        #: flush ran to completion, and their rows in order.
        self.reformed: list = []
        self.reformed_rows: List[_Row] = []
        #: The last arrival and the end-of-stream flush at it (a seal key
        #: less its opening event; empty, so no queue opens before it,
        #: until the final flush), and whether that flush happens: None
        #: until a batch it would seal is next.
        self.t_last = np.inf
        self.eos_key: tuple = ()
        self.eos: Optional[bool] = None

    def flush(self, pends, parts, last_arrival_s: float, admitted: int, final):
        """Dispatch one flush's chain batches, merged with the re-formed
        queues and the retries in seal-key order, up to the next row's
        arrival: row ``admitted`` at or after ``last_arrival_s``, or the
        end of the stream when ``final``.

        ``pends`` holds each queue's rows the flush sealed from (its
        member columns, or None), and ``parts`` each queue's sealed
        chain part (:meth:`_PrefillCore._seal`, or None).  Returns the
        completed batches' outcome values, their members' leading
        ``width`` columns and each member's attempts.
        """
        bound = None if final else (last_arrival_s, _ARRIVAL, admitted)
        if final:
            self.t_last = last_arrival_s
            self.eos_key = (last_arrival_s, _ARRIVAL, admitted - 1, 2)
        self.pends = pends
        self.consumed = [0 if p is None else p[_BATCH_COLS].size for p in parts]
        self.offsets = np.cumsum([0] + [0 if p is None else p[0].size for p in parts])
        parts = [p for p in parts if p is not None] or [_EMPTY_PART]
        cols = [c[0] if len(c) == 1 else np.concatenate(c) for c in zip(*parts)]
        sealed, by_size, tie_a, tie_i, service, energy, counts = cols[:_BATCH_COLS]
        self.sealed_s, self.size_sealed, self.member_count = sealed, by_size, counts
        self.service_s, self.energy_pj = service, energy
        #: Each chain batch's first row, an index into its queue's pend.
        self.member_start = np.concatenate([np.cumsum(p[6]) - p[6] for p in parts])
        nb = sealed.size
        self.order = np.lexsort((tie_i, tie_a, ~by_size, sealed))
        self.rank = np.empty(nb, dtype=np.int64)
        self.rank[self.order] = np.arange(nb)
        self.superseded = np.zeros(nb, dtype=bool)
        self.batch_start = np.empty(nb, dtype=np.float64)
        self.batch_finish = np.empty(nb, dtype=np.float64)
        self.batch_device = np.full(nb, -1, dtype=np.int64)
        for q, st in list(self.reform.items()):
            if not (st.members or st.retries):
                self._hand_back(q, st)
        p = 0
        while p < nb or self.heap or self.reform:
            p = self._merge(self._hot(p), bound)
            if self.heap or self.reform:
                break  # the rest waits for a later flush
        kept = ~self.superseded
        self.batches += int(np.count_nonzero(kept))
        self.size_triggered += int(np.count_nonzero(by_size & kept))
        for q, st in self.reform.items():
            st.first = 0
            st.pos -= self.consumed[q]
        # Completed chain batches (lost and superseded ones have no
        # device), then the re-formed ones; a chain batch's members
        # never failed.
        start, finish, device = self.batch_start, self.batch_finish, self.batch_device
        done = device >= 0
        keep = np.repeat(done, counts)
        reformed = list(zip(*self.reformed)) or [()] * 5
        values = [
            _extend(v[done], e)
            for v, e in zip((sealed, start, finish, counts, device), reformed)
        ]
        rows = self.reformed_rows
        fields = list(zip(*rows)) or [()] * self.width
        member_cols = cols[_BATCH_COLS : _BATCH_COLS + self.width]
        members = [_extend(m[keep], e) for m, e in zip(member_cols, fields)]
        attempts = _extend(
            np.ones(np.count_nonzero(keep), dtype=np.int64),
            [1 + self.failures.pop(row.row, 0) for row in rows],
        )
        self.reformed, self.reformed_rows = [], []
        self.pends = self.sealed_s = self.service_s = self.energy_pj = None
        return values, members, attempts

    def drops(self, horizon_s: Optional[float]) -> list:
        """The logged drops no later flush can precede, in the reference's
        order, as (row, reason code, instant, lost attempts): those at or
        before ``horizon_s`` -- a later flush's batch seals at or after
        it, so it fails after it -- or all at the final flush (None)."""
        drops = sorted(self.fleet.drops)
        cut = len(drops)
        if horizon_s is not None:
            cut = bisect_right([drop[0][0] for drop in drops], horizon_s)
        self.fleet.drops = drops[cut:]
        return [drop[1:] for drop in drops[:cut]]

    def _hot(self, p: int) -> int:
        """Chain batches in global order from position ``p``, block-wise,
        while no queue re-forms; returns the next position."""
        order = self.order
        nb = order.size
        fleet = self.fleet
        # The next loss may be a few batches away: blocks grow from
        # small, so a resumed run converts little that it abandons.
        block = 256
        while p < nb and not (self.heap or self.reform):
            hi = min(p + block, nb)
            block = min(2 * block, _DISPATCH_BLOCK)
            kept = np.flatnonzero(~self.superseded[order[p:hi]])
            idx = order[p:hi][kept]
            service_block = self.service_s[idx]
            sealed = memoryview(self.sealed_s[idx])
            service = memoryview(service_block)
            batches = zip(sealed, service)
            starts: List[float] = []
            devices: List[int] = []
            base = self.dispatched
            while True:
                lo = len(starts)
                _place_batches(batches, fleet.free_at, fleet.nda, starts, devices)
                j = len(starts)
                placed = np.asarray(devices[lo:], dtype=np.int64)
                _fold(fleet.busy_s, placed, service_block[lo:j])
                _fold(fleet.energy_pj, placed, self.energy_pj[idx[lo:j]])
                if j == idx.size:
                    break
                # Batch j reaches the next outage: place it exactly,
                # maybe lose it.
                self.dispatched = base + j
                out = self._run_batch(
                    sealed[j],
                    service[j],
                    float(self.energy_pj[idx[j]]),
                    int(idx[j]),
                    p + int(kept[j]) + 1,
                )
                start, _, device = out or (np.nan, 0.0, -1)
                starts.append(start)
                devices.append(device)
                if self.heap:
                    break
            m = len(starts)
            done = idx[:m]
            block_start = np.asarray(starts, dtype=np.float64)
            self.batch_start[done] = block_start
            self.batch_finish[done] = block_start + service_block[:m]
            self.batch_device[done] = devices
            self.dispatched = base + m
            p = hi if m == idx.size else p + int(kept[m - 1]) + 1
        return p

    def _merge(self, p: int, bound) -> int:
        """Dispatch in seal-key order while any queue re-forms, up to
        ``bound``; returns the next chain position."""
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
                pend = self.pends[qid]
                if pend is not None and st.pos < pend[0].size:
                    key = (float(pend[1][st.pos]), _ARRIVAL, int(pend[0][st.pos]))
                    events.append((key, "arrival", qid))
                if st.members and w > 0:
                    key = (st.ready + w, _TIMEOUT, 0, 0, st.created)
                    events.append((key, "timeout", qid))
                if st.members and self.eos is not False and st.created < self.eos_key:
                    events.append((self.eos_key + (st.created,), "eos", qid))
            if self.heap:
                events.append((self.heap[0][:3], "retry", -1))
            if not events:
                return p
            best, kind, q = min(events, key=lambda event: event[0])
            if bound is not None and best >= bound:
                return p
            if kind == "chain":
                qid = self._queue_of(chain)
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
                        chain,
                        p,
                    )
                    if out is not None:
                        self.batch_start[chain] = out[0]
                        self.batch_finish[chain] = out[1]
                        self.batch_device[chain] = out[2]
            elif kind == "arrival":
                st = self.reform[q]
                row = self._row(q, st.pos)
                st.pos += 1
                self._admit(q, st, row, best[0], best, p)
            elif kind == "timeout":
                self._seal(q, self.reform[q], best[0], False, p)
            elif kind == "eos":
                if self._eos_allowed():
                    self._seal(q, self.reform[q], self.t_last, False, p)
            else:
                at, _, key, row = heappop(self.heap)
                st = self.reform[row.queue]
                st.retries -= 1
                self._admit(row.queue, st, row, at, (at, _RETRY, key), p)
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
    def _queue_of(self, b: int) -> int:
        return int(np.searchsorted(self.offsets, b, side="right")) - 1

    def _row(self, q: int, i: int) -> _Row:
        return _Row(*(col[i].item() for col in self.pends[q]), q)

    def _chain_rows(self, b: int) -> List[_Row]:
        q = self._queue_of(b)
        lo = int(self.member_start[b])
        return [self._row(q, i) for i in range(lo, lo + int(self.member_count[b]))]

    def _chain_key(self, b: int) -> tuple:
        """Seal key of chain batch ``b`` (see the class docstring)."""
        index, arrival = self.pends[self._queue_of(b)][:2]
        lo = int(self.member_start[b])
        sealed = float(self.sealed_s[b])
        if self.size_sealed[b]:
            return (sealed, _ARRIVAL, int(index[lo + int(self.member_count[b]) - 1]), 0)
        r = int(index[lo])
        if self.max_wait_s == 0:
            return (sealed, _ARRIVAL, r, 1)
        created = (float(arrival[lo]), _ARRIVAL, r)
        if sealed == self.t_last:
            return self.eos_key + (created,)
        return (sealed, _TIMEOUT, 0, 0, created)

    def _eos_allowed(self) -> bool:
        """Whether the last arrival flushes: no retry pending across it."""
        if self.eos is None:
            self.eos = all(e[2][0] >= self.t_last for e in self.heap)
        return self.eos

    def _run_batch(self, sealed, service, energy, rows, cursor):
        """Place one batch through the fleet; ``(start, finish, device)``,
        or None when it is lost (each member then retries or drops) or
        stranded.  ``rows`` lists its members, or is the index of the
        chain batch it is, whose members are read only then."""
        fleet = self.fleet
        start, device = fleet.place(sealed)
        dispatched = self.dispatched
        self.dispatched += 1
        fail = None if device < 0 else fleet.run(device, start, service, energy)
        if device >= 0 and fail is None:
            return start, start + service, device
        if isinstance(rows, int):
            rows = self._chain_rows(rows)
        if device < 0:
            # Stranded: dropped after every loss, in seal order.
            for m, row in enumerate(rows):
                key = (np.inf, dispatched, m)
                failures = self.failures.pop(row.row, 0)
                fleet.drop(key, row.row, DROP_STRANDED, sealed, failures)
            return None
        for m, row in enumerate(rows):
            f = self.failures[row.row] = self.failures.get(row.row, 0) + 1
            key = (fail, dispatched, m)
            retry_at = fleet.retry_or_drop(
                key,
                row.row,
                f,
                row.deadline_s,
                row.request_id,
                self.specs[row.queue].name,
            )
            if retry_at is None:
                del self.failures[row.row]
            else:
                heappush(self.heap, (retry_at, _RETRY, key, row))
                self._reform_queue(row.queue, cursor).retries += 1
        return None

    def _reform_queue(self, q: int, cursor: int) -> _Reform:
        """The queue's scalar batcher, started at its first chain batch
        at or after global position ``cursor`` -- or at its unsealed
        tail -- if it has none yet."""
        st = self.reform.get(q)
        if st is None:
            lo, hi = int(self.offsets[q]), int(self.offsets[q + 1])
            first = int(np.searchsorted(self.rank[lo:hi], cursor))
            while lo + first < hi and self.superseded[lo + first]:
                first += 1
            if lo + first < hi:
                pos = int(self.member_start[lo + first])
            else:
                pos = self.consumed[q]
            st = self.reform[q] = _Reform(first, pos)
        return st

    def _admit(self, q, st: _Reform, row: _Row, now: float, created, cursor) -> None:
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
        self.batches += 1
        self.size_triggered += by_size
        service, energy = self._price(self.specs[q], rows)
        out = self._run_batch(now, service, energy, rows, cursor)
        if out is not None:
            self.reformed.append((now, out[0], out[1], len(rows), out[2]))
            self.reformed_rows.extend(rows)
        if not (st.members or st.retries):
            self._hand_back(q, st)

    def _price(self, spec, rows: List[_Row]) -> Tuple[float, float]:
        """A re-formed batch's (service, energy), with :func:`_form_queue`'s
        expressions."""
        cost_model, _, _, setup_cycles, frequency_hz = self.knobs
        cost = cost_model.sample_cost(spec, max(row.valid_len for row in rows))
        size = len(rows)
        return (setup_cycles + cost.cycles * size) / frequency_hz, cost.energy_pj * size

    def _hand_back(self, q: int, st: _Reform) -> None:
        """Hand an idle queue back to its chain once it sits on a chain
        batch start (one the end-of-stream rule still seals as formed)
        or on its unsealed tail, where the chain resumes."""
        lo, hi = int(self.offsets[q]), int(self.offsets[q + 1])
        starts = self.member_start[lo:hi]
        j = int(np.searchsorted(starts, st.pos))
        if st.pos != self.consumed[q]:
            if j == starts.size or starts[j] != st.pos:
                return
            if self.eos is False and self._chain_key(lo + j)[:4] == self.eos_key:
                return
        self.superseded[lo + st.first : lo + j] = True
        del self.reform[q]


# ----------------------------------------------------------------------
# The chunked prefill core.
# ----------------------------------------------------------------------


#: Column layout of a per-queue batch "part": batch-level arrays first
#: (sealed, by_size, tie_arrival, tie_id, service, energy, counts),
#: then the member-level arrays :meth:`_PrefillCore.admit` took
#: (:class:`_Row`'s leading fields), aligned with ``counts``.
_BATCH_COLS = 7

#: Per-request outcome columns, in the order :meth:`_PrefillCore.flush`
#: holds their per-batch values.
_OUTCOMES = ("batched_s", "service_start_s", "finish_s", "batch_size", "device_id")

#: The request columns a core that emits them reads off the members
#: after the stream index.
_MEMBERS = ("arrival_s", "valid_len", "request_id", "spec_idx")


@dataclass
class _QueueState:
    """One model queue's frontier between slices.

    ``pend`` holds the admitted rows not yet sealed; after a flush, the
    unsealed tail, provably shorter than the batch size bound, so
    O(open batch), not O(stream).
    """

    spec: object
    pend: Optional[Tuple[np.ndarray, ...]] = None


class _PrefillCore:
    """The prefill engine over slices of (arrival, id)-sorted rows.

    Carries only the O(devices + open batches) frontier between
    slices: one :class:`_QueueState` per model queue, the device free
    times, the running busy/energy folds and the counters.
    :meth:`admit` appends a slice's rows to their queues' pending
    tails; :meth:`flush` seals and prices whatever the slice made
    certain, dispatches it, and emits the dispatched batches' requests
    batch by batch.  Formation holds back every batch a later slice
    could still change, and dispatch carries its state across flushes,
    so the flush sequence is bitwise equal to one whole-stream pass at
    any slicing.  Slices must follow each other in (arrival, id)
    order.  The interface is every core's (:func:`_core`).

    Under a ``faults`` schedule (``retry`` is its policy) a
    :class:`_FaultDispatch` dispatches each flush's batches through one
    :class:`~repro.serving.faults.Fleet`, and also carries the retry
    heap, the re-formed queues and the lost rows' failure counts; the
    flush then emits each completed request's ``attempts`` and the
    drops no later flush can precede.
    """

    def __init__(
        self,
        specs,
        cost_model: ServiceCostModel,
        num_devices: int,
        max_batch_size: int,
        max_wait_s: float,
        setup_cycles: int,
        emit: Callable[..., None],
        rows: bool = False,
        faults=None,
        retry=None,
    ):
        queue_specs, self.queue_of_spec = _queue_map(specs)
        self.queues = [_QueueState(spec) for spec in queue_specs]
        self.knobs = (
            cost_model,
            max_batch_size,
            max_wait_s,
            setup_cycles,
            cost_model.config.frequency_ghz * 1e9,
        )
        self.free_at = [0.0] * num_devices
        self.busy_s = [0.0] * num_devices
        self.energy_by_device = [0.0] * num_devices
        self.completed = self.batches = self.size_triggered = 0
        self.start_s: Optional[float] = None
        self.end_s = -np.inf
        self.last_arrival_s = -np.inf
        #: Rows admitted so far: the next row's stream index.
        self.admitted = 0
        self.emit = emit
        self.rows = rows
        self.fault: Optional[_FaultDispatch] = None
        if faults is not None:
            self.fleet = Fleet(faults, retry)
            self.busy_s = self.fleet.busy_s
            self.energy_by_device = self.fleet.energy_pj
            self.fault = _FaultDispatch(self.fleet, queue_specs, self.knobs, rows)

    def admit(self, request: Dict[str, np.ndarray], base: int) -> None:
        """Append one sorted slice's rows to their queues' pending tails.

        A row's members are :class:`_Row`'s fields: its stream index,
        arrival and valid length, which formation reads, then its
        request id and spec index unless the core emits rows, and under
        a schedule both of those and its absolute deadline.  The stream
        index is the tie key that breaks same-instant seal ties (see
        :func:`_form_batches`): among equal arrivals it rises as the
        request id does.
        """
        arrival = request["arrival_s"]
        if self.start_s is None:
            self.start_s = float(arrival[0])
        members = (np.arange(base, base + arrival.size), arrival, request["valid_len"])
        if self.fault is not None or not self.rows:
            members += (request["request_id"], request["spec_idx"])
        if self.fault is not None:
            deadline = request.get("deadline_s")
            members += (arrival + (np.inf if deadline is None else deadline),)
        rows_list = _group_rows(
            request["spec_idx"], self.queue_of_spec, len(self.queues)
        )
        for q, rows in zip(self.queues, rows_list):
            if not rows.size:
                continue
            new = members
            if rows.size < arrival.size:
                new = tuple(col[rows] for col in members)
            if q.pend is not None:
                new = tuple(map(np.concatenate, zip(q.pend, new)))
            q.pend = new
        self.last_arrival_s = float(arrival[-1])
        self.admitted = base + arrival.size

    def _seal(self, q: _QueueState, horizon_s, last_arrival_s):
        """Seal and price what is certain in one queue: its part, or None."""
        if q.pend is None:
            return None
        key, arr, vlen = q.pend[:3]
        formed, service, energy, consumed = _form_queue(
            arr,
            key,
            vlen,
            q.spec,
            *self.knobs,
            last_arrival_s=last_arrival_s,
            horizon_s=horizon_s,
        )
        if consumed == 0:
            return None
        batch = (formed[2], formed[3], formed[4], formed[5], service, energy, formed[1])
        rest = tuple(a[consumed:].copy() for a in q.pend)
        part = batch + tuple(a[:consumed] for a in q.pend)
        q.pend = rest if consumed < arr.size else None
        return part

    def flush(self, final: bool = False) -> None:
        """Seal, dispatch and emit every batch that is certain.

        The horizon is the last arrival admitted: formation seals the
        batches no later arrival can change (:func:`_form_batches`),
        and ``final`` ends the stream, sealing every pending tail at
        that arrival.  Each sealed batch dispatches at once, because it
        ranks before every batch a later flush seals, in the dispatch
        order (seal instant, size seals first, tie arrival, tie key).
        Later rows follow in (arrival, tie key) order.  Under a zero
        wait bound every batch is one row, ranked by that row;
        otherwise a timeout sealed here precedes the horizon, and a
        later batch seals at or after it -- at it only as a timeout,
        ranked after this flush's size seals, or as a size seal
        anchored on a later row.

        Under a schedule :meth:`_FaultDispatch.flush` dispatches what
        ranks before the next row's arrival, its bound, and the
        completed requests leave with their attempts, together with the
        drops no later flush can precede.  Nothing is emitted when
        nothing completes or drops.  Each outcome column is repeated
        out of its per-batch values only as the emit callback reaches
        it.
        """
        horizon_s = None if final else self.last_arrival_s
        last_arrival_s = self.last_arrival_s if final else None
        pends = [q.pend for q in self.queues]
        parts = [self._seal(q, horizon_s, last_arrival_s) for q in self.queues]
        fault = self.fault
        if fault is None:
            parts = [part for part in parts if part is not None]
            if not parts:
                return
            cols = [c[0] if len(c) == 1 else np.concatenate(c) for c in zip(*parts)]
            del parts, pends  # the pieces, before dispatch and emit
            sealed, by_size, tie_a, tie_i, service, energy, counts = cols[:_BATCH_COLS]
            start, finish, device = _dispatch(
                sealed,
                service,
                energy,
                by_size,
                tie_a,
                tie_i,
                self.free_at,
                self.busy_s,
                self.energy_by_device,
            )
            values = (sealed, start, finish, counts, device)
            self.batches += int(sealed.size)
            self.size_triggered += int(np.count_nonzero(by_size))
            members, extra, drops = cols[_BATCH_COLS:], [], []
        else:
            values, members, attempts = fault.flush(
                pends, parts, self.last_arrival_s, self.admitted, final
            )
            del parts, pends
            self.batches, self.size_triggered = fault.batches, fault.size_triggered
            drops = fault.drops(horizon_s)
            if not (attempts.size or drops):
                return
            extra = [("attempts", attempts)]
        done = int(members[0].size)
        self.completed += done
        ends = [float(np.max(values[2]))] if done else []
        self.end_s = max([self.end_s, *ends, *(drop[2] for drop in drops)])
        batch = np.repeat(np.arange(values[3].size), values[3])
        outcome = chain(((name, v[batch]) for name, v in zip(_OUTCOMES, values)), extra)
        if self.rows:
            self.emit(members[0], outcome, drops)
        else:
            self.emit(None, chain(zip(_MEMBERS, members[1:]), outcome), drops)

    def totals(self) -> dict:
        """The run totals, as :class:`StreamedServingResult` fields."""
        totals = dict(
            completed=self.completed,
            start_s=self.start_s,
            end_s=self.end_s,
            device_busy_s=self.busy_s,
            device_energy_pj=self.energy_by_device,
            batches=self.batches,
            prefill_batches=self.batches,
            decode_batches=0,
            size_triggered_batches=self.size_triggered,
            timeout_triggered_batches=self.batches - self.size_triggered,
            total_tokens=self.completed,
        )
        if self.fault is not None:
            totals.update(self.fleet.totals(self.start_s, self.end_s))
        return totals


# ----------------------------------------------------------------------
# The table driver and the stream driver, over both cores.
# ----------------------------------------------------------------------


#: Rows per slice that :func:`simulate_table` feeds a core.  The run's
#: working set beyond its result is about one slice's, and a slice
#: amortises the per-flush Python work over its rows.  Measured on the
#: 300k-request ``prefill_bursty`` table (2-CPU VM): 65,536-row slices
#: held 8.5 MB beyond the result, against 40.4 MB for the whole-table
#: engine, at its pass time; 16,384- and 8,192-row slices passed 6% and
#: 16% slower, 131,072-row ones no faster.
_SLICE_ROWS = 65_536

#: An integer outcome column's value on a dropped row; times are NaN
#: and ``attempts`` counts the lost ones.
_DROPPED_FILL = {"batch_size": 0, "device_id": -1, "decode_slots": 0}


def _in_order(arrival: np.ndarray, request_id: np.ndarray) -> bool:
    """Whether rows already run in (arrival, id) order: arrivals never
    fall, and ids rise among equal arrivals.  One O(n) comparison pass."""
    if not np.all(arrival[1:] >= arrival[:-1]):
        return False
    ties = np.flatnonzero(arrival[1:] == arrival[:-1])
    return bool(np.all(request_id[ties + 1] > request_id[ties]))


def _read_only(col: np.ndarray) -> np.ndarray:
    """A read-only view of ``col``; ``col`` itself stays writable."""
    view = col.view()
    view.flags.writeable = False
    return view


def _sorted_columns(table: RequestTable) -> Dict[str, np.ndarray]:
    """A table's request columns in (arrival, id) order, the reference
    loop's record order, under their result field names; an absent
    optional column is left out.

    Generated tables and stream chunks already run in that order
    (:func:`_in_order`), and then the columns are read-only views of
    the table's own arrays: no sort, no gather, and a result built on
    them shares its request columns with the table, so a later write
    to the table shows through the result (``RequestTable.slice``
    copies when isolation is wanted).  Any other table is sorted
    into read-only copies, so the request columns a run hands back are
    read-only whatever the input order.
    """
    columns = {name: getattr(table, name) for name in _COLUMN_DTYPES}
    columns = {name: col for name, col in columns.items() if col is not None}
    if not _in_order(table.arrival_s, table.request_id):
        order = np.lexsort((table.request_id, table.arrival_s))
        columns = {name: col[order] for name, col in columns.items()}
    return {name: _read_only(col) for name, col in columns.items()}


def _core(decode: bool):
    """The chunked core a driver feeds: :class:`_PrefillCore` for
    prefill traffic, or the decode module's ``_DecodeCore`` for
    generative traffic, with or without a fault schedule.  The decode
    core is looked up there at each call, so that a prefill run never
    imports it.

    Both are built as ``core(specs, *knobs, emit, rows=False,
    faults=None, retry=None)``.  ``admit(request, base)`` feeds one
    sorted slice (:func:`_sorted_columns`) whose first row has stream
    index ``base``; ``flush(final=False)`` hands what completed or
    dropped since the last flush to ``emit(rows, columns, drops)``,
    ``final`` ending the stream first; ``totals()`` gives the
    :class:`StreamedServingResult` fields.  ``columns`` yields (name,
    array) pairs, a value per completed request: the outcome columns,
    plus the request columns unless the core was built with ``rows``,
    which then gives their stream indices (else None).  ``drops``
    lists (row, reason code, instant, lost attempts), in the
    reference's drop order across flushes.
    """
    if not decode:
        return _PrefillCore
    from repro.serving.decode import _DecodeCore

    return _DecodeCore


def simulate_table(
    table: RequestTable,
    cost_model: ServiceCostModel,
    num_devices: int = 1,
    max_batch_size: int = 8,
    max_wait_s: float = 2e-3,
    setup_cycles: int = DEFAULT_SETUP_CYCLES,
    recorder: Optional[TraceRecorder] = None,
    faults=None,
    retry=None,
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

    The table runs through a chunked core as consecutive row slices of
    its sorted columns, each flush scattered into the result's
    columns, so besides its result the run holds one slice's working
    set.  A table already in (arrival, id) order, as generated tables
    are, is not copied: the result's request columns are read-only
    views of the table's own arrays (:func:`_sorted_columns`), so the
    result allocates only its outcome and fault columns, and a later
    write to the table shows through it (``RequestTable.slice`` copies
    when isolation is wanted).  Any other order is sorted into
    read-only copies.  A prefill table runs the prefill core
    (:class:`_PrefillCore`).
    A generative table (an ``output_len`` column present) runs the
    decode engine's event core, since decode-step readiness depends on
    device timing -- same knobs, same bitwise-vs-reference contract,
    and the same result type with the generative columns filled.

    Under a ``faults`` schedule (a :class:`~repro.serving.faults.
    FaultSchedule`; ``retry`` customizes its :class:`~repro.serving.
    faults.RetryPolicy`, default ``RetryPolicy()``) the same core takes
    the schedule as its fault hook: the prefill core dispatches each
    slice's batches through :class:`_FaultDispatch`, which re-forms
    only the batches a retry touches, and the decode core steps
    through it; both place, lose, retry and drop through one
    :class:`~repro.serving.faults.Fleet`.  The result then covers every
    offered request with the fault columns filled.

    ``recorder`` opts into sim-time tracing: the sampled requests'
    lifecycle spans are emitted from the finished columns after the
    simulation proper, so tracing cannot perturb a single computed
    value -- results are bitwise identical with tracing on or off (and
    the emitted spans bitwise match the reference loop's).
    """
    knobs = (cost_model, num_devices, max_batch_size, max_wait_s, setup_cycles)
    return _drive_table(table, knobs, recorder, faults, retry, decode=False)


def _drive_table(
    table: RequestTable, knobs: tuple, recorder, faults, retry, decode: bool
) -> ColumnarServingResult:
    """The table driver: :func:`simulate_table` with its ``knobs``
    (cost model, devices, batch size and wait bounds, set-up cycles),
    and with ``decode`` the decode core for a prefill table too, with
    or without a schedule.

    The result takes its request columns from :func:`_sorted_columns`
    as they are, so it allocates only its outcome and fault columns
    when the table is ordered.  The last slice goes straight to the
    end-of-stream flush, so a table of one slice is sealed by that
    flush alone.
    """
    if len(table) == 0:
        raise ValueError("request stream must not be empty")
    retry = _check_knobs(knobs, faults, retry)
    if has_duplicate_ids(table.request_id):
        raise ValueError("duplicate request id in stream")
    columns = _sorted_columns(table)
    n = len(table)
    # The outcome columns are allocated at the first flush, after its
    # formation temporaries are gone, so a table of one slice peaks no
    # higher than a whole-table pass would.
    outcome: Dict[str, np.ndarray] = {}
    drops: list = []

    def scatter(rows, done, dropped) -> None:
        for name, value in done:
            col = outcome.get(name)
            if col is None:
                col = outcome[name] = np.empty(n, dtype=value.dtype)
            col[rows] = value
        drops.extend(dropped)

    core = _core(decode or table.output_len is not None)(
        table.specs, *knobs, scatter, rows=True, faults=faults, retry=retry
    )
    for lo in range(0, n, _SLICE_ROWS):
        hi = min(lo + _SLICE_ROWS, n)
        core.admit({name: col[lo:hi] for name, col in columns.items()}, lo)
        core.flush(final=hi == n)
    if faults is not None:
        # Every other row completed, so only the dropped ones are filled.
        dropped = [drop[0] for drop in drops]
        fill = dict(_DROPPED_FILL, attempts=[drop[3] for drop in drops])
        for name, col in outcome.items():
            col[dropped] = fill.get(name, np.nan)
        outcome.update(_drop_columns(drops, n, core.fleet.retry_events()))
    result = ColumnarServingResult(
        specs=table.specs, **columns, **outcome, **core.totals()
    )
    if recorder is not None:
        _record_spans(recorder, result)
        if faults is not None:
            _emit_fault_trace(
                recorder,
                faults,
                len(faults),
                result.start_s,
                result.end_s,
                result.retry_events,
            )
    return result


class _IdRuns:
    """The ids a stream has seen, as sorted, disjoint runs of
    consecutive ids: the first and last id of each run, two int64
    arrays.  A generated stream is one run, so the check across chunks
    holds O(id runs), not O(stream), and stays exact for any ids."""

    def __init__(self):
        self.first = self.last = np.empty(0, dtype=np.int64)

    def add(self, ids: np.ndarray) -> bool:
        """Add one chunk's distinct ids; False if any was seen before."""
        if not np.all(ids[1:] > ids[:-1]):
            ids = np.sort(ids)
        breaks = np.flatnonzero(ids[1:] - 1 != ids[:-1]) + 1
        first = ids[np.r_[0, breaks]]
        last = ids[np.r_[breaks - 1, ids.size - 1]]
        # The first seen run ending at or after a new run's first id is
        # the only one it can overlap, and otherwise where it goes.
        at = np.searchsorted(self.last, first)
        inside = at < self.first.size
        if np.any(self.first[at[inside]] <= last[inside]):
            return False
        first = np.insert(self.first, at, first)
        last = np.insert(self.last, at, last)
        starts = np.r_[True, first[1:] - 1 != last[:-1]]
        self.first = first[starts]
        self.last = last[np.r_[starts[1:], True]]
        return True


def _checked_chunks(
    chunks: Iterable[RequestTable], unique_ids: bool
) -> Iterator[Tuple[List, int, Dict[str, np.ndarray]]]:
    """The one chunk check of every stream run: yields ``(specs, base,
    request)`` per non-empty chunk -- the spec list, the stream index
    of its first row, its columns in (arrival, id) order
    (:func:`_sorted_columns`: an ordered chunk's own arrays, read-only).

    The stream must hold at least one request, under one spec list and
    one shape (a ``RequestTable`` has an ``output_len`` column or not,
    so a mixed stream has no whole-table run to equal).  Each chunk's
    first (arrival, id) must follow the previous chunk's last, and no
    id may repeat within a chunk -- nor, with ``unique_ids`` (a fault
    schedule), across chunks, which keeps the ids seen as runs of
    consecutive ids (:class:`_IdRuns`); otherwise that is the caller's
    contract.  Either way memory stays O(chunk) for a generated stream.
    """
    specs: Optional[List] = None
    generative = False
    seen = _IdRuns() if unique_ids else None
    base = 0
    last = (-np.inf, -1)
    for chunk in chunks:
        if len(chunk) == 0:
            continue
        if specs is None:
            specs = list(chunk.specs)
            generative = chunk.output_len is not None
        elif list(chunk.specs) != specs:
            raise ValueError("chunks must share one spec list")
        if (chunk.output_len is not None) != generative:
            raise ValueError(
                "chunks must all carry an output_len column, or all lack one"
            )
        request = _sorted_columns(chunk)
        arrival, request_id = request["arrival_s"], request["request_id"]
        if (float(arrival[0]), int(request_id[0])) <= last:
            raise ValueError(
                "chunks must be ordered: each chunk's first (arrival_s, "
                "request_id) must follow the previous chunk's last"
            )
        if has_duplicate_ids(request_id):
            raise ValueError("duplicate request id in chunk")
        if seen is not None and not seen.add(request_id):
            raise ValueError("duplicate request id across chunks")
        last = (float(arrival[-1]), int(request_id[-1]))
        yield specs, base, request
        base += len(chunk)
    if specs is None:
        raise ValueError("request stream must not be empty")


def simulate_stream(
    chunks: Iterable[RequestTable],
    cost_model: ServiceCostModel,
    num_devices: int = 1,
    max_batch_size: int = 8,
    max_wait_s: float = 2e-3,
    setup_cycles: int = DEFAULT_SETUP_CYCLES,
    sink: Optional[Callable[[CompletedChunk], None]] = None,
    faults=None,
    retry=None,
) -> StreamedServingResult:
    """Out-of-core serving simulation over a chunked request stream.

    Consumes ``RequestTable`` chunks in arrival order (e.g. from
    :class:`repro.serving.stream.RequestStream`), checks and sorts each
    one (:func:`_checked_chunks`), and feeds it to the chunked core
    :func:`simulate_table` would run, which carries only the
    O(devices + open batches) frontier between chunks.  Completed
    requests leave after every chunk as :class:`CompletedChunk`
    columns through ``sink`` -- peak memory is one chunk plus the
    frontier, independent of stream length.

    A generative stream (its chunks carry an ``output_len`` column)
    fills the generative columns and totals of the same types, and a
    ``faults`` schedule the fault ones.  A stream runs the core its
    concatenated table would, with or without a schedule: prefill
    chunks the prefill core, generative ones the decode core.

    The equivalence contract matches :func:`simulate_table`: for the
    same concatenated stream and knobs, every per-request column value,
    device busy/energy total, and batch counter is **bitwise equal**
    to the whole-table run (and hence to the reference event loop),
    at every chunk size.  :func:`_checked_chunks` states what a stream
    of chunks must satisfy.
    """
    knobs = (cost_model, num_devices, max_batch_size, max_wait_s, setup_cycles)
    return _drive_stream(chunks, knobs, sink, faults, retry, decode=False)


def _drive_stream(
    chunks: Iterable[RequestTable], knobs: tuple, sink, faults, retry, decode: bool
) -> StreamedServingResult:
    """The stream driver: :func:`simulate_stream` with its ``knobs`` (as
    :func:`_drive_table` takes them), and with ``decode`` the decode core
    for a prefill stream too."""
    retry = _check_knobs(knobs, faults, retry)
    core = None
    specs: List = []

    def emit(rows, done, drops) -> None:
        if sink is not None:
            chunk = CompletedChunk(specs=specs, **dict(done))
            if len(chunk):
                sink(chunk)

    for specs, base, request in _checked_chunks(chunks, faults is not None):
        if core is None:
            on_decode = decode or "output_len" in request
            core = _core(on_decode)(specs, *knobs, emit, faults=faults, retry=retry)
        core.admit(request, base)
        core.flush()
    # End of stream: the pending tails seal at the global last arrival.
    core.flush(final=True)
    return StreamedServingResult(**core.totals())
