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

The equivalence contract: for any stream, knobs, and device count,
:func:`simulate_table` produces per-request records **exactly equal**
(bitwise, not approximately) to the reference loop's -- the same
floating-point expressions are evaluated in the same order, only
batched.  ``tests/test_serving_engine.py`` pins this across arrival
patterns, execution modes, seeds, device counts, and wait bounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, List, Optional, Tuple

import numpy as np

from repro.obs.trace import TraceRecorder
from repro.serving.devices import DEFAULT_SETUP_CYCLES, ServiceCostModel
from repro.serving.requests import RequestRecord, RequestTable, has_duplicate_ids
from repro.serving.scheduler import ServingResult


@dataclass
class ColumnarServingResult:
    """Everything one fast-path run produced, as per-request columns.

    Row ``i`` of every column describes request ``i`` of ``table``
    (sorted by arrival, ties by request id -- the reference loop's
    record order).  :meth:`to_result` materializes the object-based
    :class:`~repro.serving.scheduler.ServingResult` for equivalence
    tests; analysis paths should stay columnar via
    :func:`~repro.serving.metrics.summarize`.
    """

    table: RequestTable
    batched_s: np.ndarray
    service_start_s: np.ndarray
    finish_s: np.ndarray
    batch_size: np.ndarray
    device_id: np.ndarray
    start_s: float
    end_s: float
    device_busy_s: List[float]
    device_energy_pj: List[float]
    batches: int
    size_triggered_batches: int
    timeout_triggered_batches: int

    @property
    def duration_s(self) -> float:
        return max(self.end_s - self.start_s, 0.0)

    @property
    def completed(self) -> int:
        return len(self.table)

    @property
    def latency_s(self) -> np.ndarray:
        """End-to-end latency column: arrival to completion."""
        return self.finish_s - self.table.arrival_s

    @property
    def queue_wait_s(self) -> np.ndarray:
        """Arrival to service start (batching + dispatch queueing)."""
        return self.service_start_s - self.table.arrival_s

    def to_result(self) -> ServingResult:
        """Materialize per-request records (the reference loop's shape)."""
        records = [
            RequestRecord(
                request=request,
                batched_s=float(self.batched_s[i]),
                service_start_s=float(self.service_start_s[i]),
                finish_s=float(self.finish_s[i]),
                batch_size=int(self.batch_size[i]),
                device_id=int(self.device_id[i]),
            )
            for i, request in enumerate(self.table.to_requests())
        ]
        return ServingResult(
            records=records,
            start_s=self.start_s,
            end_s=self.end_s,
            device_busy_s=list(self.device_busy_s),
            device_energy_pj=list(self.device_energy_pj),
            batches=self.batches,
            size_triggered_batches=self.size_triggered_batches,
            timeout_triggered_batches=self.timeout_triggered_batches,
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
) -> "ColumnarServingResult | DecodeColumnarResult":
    """Run one deployment over a columnar stream; the fast path.

    Generative tables (an ``output_len`` column present) route to the
    event-driven decode engine and return a
    :class:`~repro.serving.decode.DecodeColumnarResult` instead --
    same knobs, same bitwise-vs-reference contract, per-token
    lifecycle columns.

    Identical knobs and semantics to building ``num_devices``
    :class:`~repro.serving.devices.SprintDevice` plus a
    :class:`~repro.serving.batching.DynamicBatcher` and calling
    :meth:`~repro.serving.scheduler.ServingSimulator.run`, but
    batch-granular: O(requests / mean batch size) light Python
    iterations instead of O(requests) heap events.  Unlike the
    single-use reference simulator, this function carries no run state
    and may be called repeatedly.

    ``recorder`` opts into sim-time tracing: the sampled requests'
    lifecycle spans are emitted from the finished columns after the
    simulation proper, so tracing cannot perturb a single computed
    value -- results are bitwise identical with tracing on or off (and
    the emitted spans bitwise match the reference loop's).

    ``threads`` parallelises only the decode engine's per-queue
    cost-vector prebuild, so it matters for generative tables alone; a
    prefill run forms its batches serially in a few vectorised passes
    per queue, and its results are the same at every thread count.
    ``_formed`` is the process-shard injection point
    (:func:`repro.runtime.pool.simulate_table_sharded`): a dict of
    queue id -> precomputed phase-1 parts for the canonically sorted
    table.

    ``faults`` (a :class:`~repro.serving.faults.FaultSchedule`) routes
    to fault mode on the decode engine's event core
    (:func:`~repro.serving.faults.simulate_faulty_table`) and returns a
    :class:`~repro.serving.faults.FaultColumnarResult`; ``retry``
    customizes its :class:`~repro.serving.faults.RetryPolicy`.  With
    ``faults=None`` the no-fault fast path below runs untouched.
    """
    if faults is not None:
        from repro.serving.faults import simulate_faulty_table

        if _formed is not None:
            raise ValueError(
                "sharded batch formation does not apply under fault injection"
            )
        return simulate_faulty_table(
            table,
            cost_model,
            faults,
            retry=retry,
            num_devices=num_devices,
            max_batch_size=max_batch_size,
            max_wait_s=max_wait_s,
            setup_cycles=setup_cycles,
            recorder=recorder,
        )
    if retry is not None:
        raise ValueError("a retry policy requires a fault schedule")
    if table.output_len is not None:
        # Generative traffic: decode-step readiness depends on device
        # timing, so batch formation cannot be precomputed -- route to
        # the event-driven columnar decode engine.  ``threads``
        # parallelizes its phase 1 (per-queue cost-vector
        # construction); the event loop itself stays sequential.
        from repro.serving.decode import simulate_decode_table

        if _formed is not None:
            raise ValueError(
                "sharded batch formation does not apply to generative tables"
            )
        return simulate_decode_table(
            table,
            cost_model,
            num_devices=num_devices,
            max_batch_size=max_batch_size,
            max_wait_s=max_wait_s,
            setup_cycles=setup_cycles,
            recorder=recorder,
            threads=threads,
        )
    if len(table) == 0:
        raise ValueError("request stream must not be empty")
    if num_devices < 1:
        raise ValueError("at least one device required")
    if max_batch_size < 1:
        raise ValueError("max_batch_size must be positive")
    if max_wait_s < 0:
        raise ValueError("max_wait_s must be non-negative")
    if threads < 1:
        raise ValueError("threads must be positive")
    if has_duplicate_ids(table.request_id):
        raise ValueError("duplicate request id in stream")

    order = np.lexsort((table.request_id, table.arrival_s))
    table = RequestTable(
        specs=table.specs,
        request_id=table.request_id[order],
        arrival_s=table.arrival_s[order],
        spec_idx=table.spec_idx[order],
        valid_len=table.valid_len[order],
        deadline_s=(
            None if table.deadline_s is None else table.deadline_s[order]
        ),
    )
    n = len(table)
    last_arrival_s = float(table.arrival_s[n - 1])
    frequency_hz = cost_model.config.frequency_ghz * 1e9

    # ------------------------------------------------------------------
    # Phase 1: per-model batch formation (device-independent).  One
    # queue per model *name*, like the reference batcher: a spec list
    # may carry the same model under several indices (a mix that
    # repeats a model), and those requests share one queue.
    # ------------------------------------------------------------------
    queue_specs, queue_of_spec = _queue_map(table.specs)
    rows_list = _group_rows(table.spec_idx, queue_of_spec, len(queue_specs))
    active = [qid for qid in range(len(queue_specs)) if rows_list[qid].size]

    def _one_queue(qid: int):
        rows = rows_list[qid]
        return _form_queue(
            table.arrival_s[rows],
            table.request_id[rows],
            table.valid_len[rows],
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
    free_at = [0.0] * num_devices
    busy_s = [0.0] * num_devices
    energy_by_device = [0.0] * num_devices
    batch_start, batch_finish, batch_device = _dispatch(
        sealed_s,
        service_s,
        energy_pj,
        size_sealed,
        tie_arrival,
        tie_id,
        free_at,
        busy_s,
        energy_by_device,
    )

    # ------------------------------------------------------------------
    # Phase 3: scatter per-batch outcomes back to per-request columns.
    # A model's batches tile its sorted rows in formation order, so one
    # repeat() per model covers every member.
    # ------------------------------------------------------------------
    batched_col = np.empty(n, dtype=np.float64)
    start_col = np.empty(n, dtype=np.float64)
    finish_col = np.empty(n, dtype=np.float64)
    size_col = np.empty(n, dtype=np.int64)
    device_col = np.empty(n, dtype=np.int64)
    for rows, (lo, hi) in zip(model_rows, model_slices):
        counts = member_count[lo:hi]
        batched_col[rows] = np.repeat(sealed_s[lo:hi], counts)
        start_col[rows] = np.repeat(batch_start[lo:hi], counts)
        finish_col[rows] = np.repeat(batch_finish[lo:hi], counts)
        size_col[rows] = np.repeat(member_count[lo:hi], counts)
        device_col[rows] = np.repeat(batch_device[lo:hi], counts)

    size_triggered = int(np.count_nonzero(size_sealed))
    if recorder is not None:
        # Post-hoc span emission over the finished columns: the sampled
        # set keys on request id only, so it matches the reference
        # loop's (and any other run of this stream) exactly.
        for i in np.flatnonzero(recorder.config.mask(table.request_id)):
            i = int(i)
            recorder.add_request(
                request_id=int(table.request_id[i]),
                model=table.specs[int(table.spec_idx[i])].name,
                arrival_s=float(table.arrival_s[i]),
                batched_s=float(batched_col[i]),
                service_start_s=float(start_col[i]),
                finish_s=float(finish_col[i]),
                device_id=int(device_col[i]),
                batch_size=int(size_col[i]),
            )
    return ColumnarServingResult(
        table=table,
        batched_s=batched_col,
        service_start_s=start_col,
        finish_s=finish_col,
        batch_size=size_col,
        device_id=device_col,
        start_s=float(table.arrival_s[0]),
        end_s=float(np.max(batch_finish)),
        device_busy_s=busy_s,
        device_energy_pj=energy_by_device,
        batches=int(num_batches),
        size_triggered_batches=size_triggered,
        timeout_triggered_batches=int(num_batches) - size_triggered,
    )


# ----------------------------------------------------------------------
# Out-of-core chunked driver.
# ----------------------------------------------------------------------


@dataclass
class CompletedChunk:
    """Outcome columns for the requests retired by one stream flush.

    Same per-request columns a :class:`ColumnarServingResult` carries,
    but only for the requests whose batches dispatched in this flush,
    in batch-grouped order (row order within a chunk is free; the
    values are bitwise equal to the whole-table run's).  The chunked
    driver hands these forward and drops them -- downstream consumers
    (:func:`repro.serving.metrics.summarize_stream`) fold them into
    fixed-size sketches.
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

    def __len__(self) -> int:
        return int(self.request_id.size)

    @property
    def latency_s(self) -> np.ndarray:
        """End-to-end latency column: arrival to completion."""
        return self.finish_s - self.arrival_s

    @property
    def queue_wait_s(self) -> np.ndarray:
        """Arrival to service start (batching + dispatch queueing)."""
        return self.service_start_s - self.arrival_s


@dataclass
class StreamedServingResult:
    """Run-level aggregates of a chunked out-of-core simulation.

    Everything a whole-table :class:`ColumnarServingResult` reports
    except the per-request columns themselves, which streamed through
    the ``sink`` as :class:`CompletedChunk` batches.  Every field is
    bitwise equal to the whole-table run's.
    """

    completed: int
    start_s: float
    end_s: float
    device_busy_s: List[float]
    device_energy_pj: List[float]
    batches: int
    size_triggered_batches: int
    timeout_triggered_batches: int

    @property
    def duration_s(self) -> float:
        return max(self.end_s - self.start_s, 0.0)


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
) -> "StreamedServingResult | DecodeStreamedResult":
    """Out-of-core serving simulation over a chunked request stream.

    Generative streams (first non-empty chunk carries an
    ``output_len`` column) route to the event-driven decode engine:
    ``sink`` then receives :class:`~repro.serving.decode.
    DecodeCompletedChunk` columns and the call returns a
    :class:`~repro.serving.decode.DecodeStreamedResult`.

    With a ``faults`` schedule the run routes to the fault-injection
    engine (:func:`repro.serving.faults.simulate_faulty_stream`):
    ``sink`` then receives :class:`~repro.serving.faults.
    FaultCompletedChunk` columns and the call returns a
    :class:`~repro.serving.faults.FaultStreamedResult`.

    Consumes ``RequestTable`` chunks in arrival order (e.g. from
    :class:`repro.serving.stream.RequestStream`), carrying only the
    O(devices + open batches) frontier between chunks: per-queue
    unsealed tails, sealed-at-horizon batches, device free times, and
    running busy/energy folds.  Completed requests leave immediately
    as :class:`CompletedChunk` columns through ``sink`` -- peak memory
    is one chunk plus the frontier, independent of stream length.

    The equivalence contract matches :func:`simulate_table`: for the
    same concatenated stream and knobs, every per-request column value,
    device busy/energy total, and batch counter is **bitwise equal**
    to the whole-table run (and hence to the reference event loop),
    at every chunk size.  As in :func:`simulate_table`, ``threads``
    reaches only the decode engine's cost-vector prebuild.

    Chunks must be non-overlapping and ordered: each chunk's earliest
    (arrival, id) must lexicographically follow the previous chunk's
    latest, and all chunks must share one spec list.  Request-id
    uniqueness is enforced within a chunk; across chunks it is the
    caller's contract (checking it globally would break the O(1)
    memory bound).
    """
    if num_devices < 1:
        raise ValueError("at least one device required")
    if max_batch_size < 1:
        raise ValueError("max_batch_size must be positive")
    if max_wait_s < 0:
        raise ValueError("max_wait_s must be non-negative")
    if threads < 1:
        raise ValueError("threads must be positive")
    if faults is not None:
        from repro.serving.faults import simulate_faulty_stream

        return simulate_faulty_stream(
            chunks,
            cost_model,
            faults,
            retry=retry,
            num_devices=num_devices,
            max_batch_size=max_batch_size,
            max_wait_s=max_wait_s,
            setup_cycles=setup_cycles,
            sink=sink,
        )
    if retry is not None:
        raise ValueError("a retry policy requires a fault schedule")

    # Peek the first non-empty chunk to route generative streams.
    iterator = iter(chunks)
    first = next(iterator, None)
    while first is not None and len(first) == 0:
        first = next(iterator, None)
    if first is not None and first.output_len is not None:
        from itertools import chain as _chain

        from repro.serving.decode import simulate_decode_stream

        return simulate_decode_stream(
            _chain([first], iterator),
            cost_model,
            num_devices=num_devices,
            max_batch_size=max_batch_size,
            max_wait_s=max_wait_s,
            setup_cycles=setup_cycles,
            sink=sink,
            threads=threads,
        )
    if first is not None:
        from itertools import chain as _chain

        chunks = _chain([first], iterator)
    else:
        chunks = iter(())
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
        size_triggered_batches=size_triggered_total,
        timeout_triggered_batches=batches_total - size_triggered_total,
    )
