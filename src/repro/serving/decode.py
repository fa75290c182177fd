"""Columnar fast path for generative (continuous-batching) serving.

The decode twin of :mod:`repro.serving.engine`: where prefill-only
batch formation is device-independent (so the fast engine can form
every batch in one vectorized pass), a decode step only becomes
schedulable when its previous step *finishes* -- batch formation and
dispatch are coupled through device timing.  This engine therefore
stays event-driven, but works at **batch granularity over columnar
state**: one heap entry per sealed step batch (not per request-step),
plain-tuple queue frontiers instead of per-step objects, and a
memoized (model, phase, bucket) cost table -- the same design that
makes the prefill engine fast, applied to the generative lifecycle.

The core, :class:`_DecodeCore`, has the prefill core's interface
(:func:`repro.serving.engine._core`), so the serving layer's one table
driver and one stream driver (:func:`~repro.serving.engine.
simulate_table`, :func:`~repro.serving.engine.simulate_stream`) feed
it sorted slices and collect its flushes.  The contract matches the
prefill engine's: for the same stream and knobs, per-request
timestamps, device busy/energy folds, and batch counters are **bitwise
equal** to the reference :class:`~repro.serving.scheduler.
GenerativeServingSimulator` (same float expressions evaluated in the
same order), at any slice or chunk size; a stream retires completed
requests through a ``sink``, so peak memory is O(chunk + in-flight).

Request lifecycle (continuous batching)::

    arrival --> [prefill queue] --seal--> prefill step ----> first token
                                              (batch)            |
              +---------------------------------<----------------+
              |  re-admit at finish, context += 1
              v
            [decode queue] --seal--> decode step --> ... --> last token

Seal rules are the reference batcher's, at step granularity: a queue
seals on ``max_batch_size`` members or when its oldest step has waited
``max_wait_s``; prefill and decode steps never share a batch; when no
future step can ever join, pending queues flush immediately.

The core takes the fault hook (:mod:`repro.serving.faults`): given a
:class:`~repro.serving.faults.FaultSchedule` (``faults=``) and a
:class:`~repro.serving.faults.RetryPolicy` (``retry=``), it dispatches
through the fleet model it shares with the prefill core
(:class:`~repro.serving.faults.Fleet`), which starts batches only on
devices that are up, loses those whose device fails mid-service, and
retries or drops their members -- one step at a time, with
macro-stepping off.  Generative traffic runs here with or without a
schedule; prefill traffic, table or stream, runs on the prefill core,
whose batch formation depends on arrivals and retries only.

:func:`simulate_decode_table` and :func:`simulate_decode_stream` are
kept for their names: the two drivers on this core, for prefill
traffic too, with or without a schedule, which then runs as the
``output_len == 1`` degenerate case and gives a prefill-shaped
result.  That makes this core the second engine the fault tests diff
the prefill core against on prefill draws.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from itertools import chain
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.obs.trace import TraceRecorder
from repro.serving.devices import DEFAULT_SETUP_CYCLES, ServiceCostModel
from repro.serving.engine import (
    ColumnarServingResult,
    CompletedChunk,
    StreamedServingResult,
    _drive_stream,
    _drive_table,
    _queue_map,
)
from repro.serving.faults import DROP_STRANDED, Fleet
from repro.serving.requests import RequestTable


# Per-request record layout (plain lists: the hot loop touches these
# per token step, so attribute access is out).
_RID = 0      # request id
_ARR = 1      # arrival_s
_SPEC = 2     # spec index
_VLEN = 3     # prompt length
_OLEN = 4     # output length
_LCTX = 5     # final context: vlen + olen - 1
_PFB = 6      # prefill batched (sealed) time
_PFS = 7      # prefill service start
_PFD = 8      # prefill device id
_PFSZ = 9     # prefill batch size
_FT = 10      # first token (prefill finish)
_FIN = 11     # finish (last token)
_DSLOT = 12   # summed decode batch occupancy
_ROW = 13     # global row index (sorted order)
_QID = 14     # name-keyed queue id (duplicate-name specs share one)
_FLS = 15     # lost dispatches so far (fault mode)
_ADL = 16     # absolute deadline: arrival + deadline_s (inf if none)

#: Columns read off finished records, as (name, dtype, record slot).
#: A core built with ``rows`` emits no request columns (its table driver
#: holds them), and the generative ones apply only to traffic with an
#: ``output_len`` column.
_REQUEST_COLUMNS = (
    ("request_id", np.int64, _RID),
    ("arrival_s", np.float64, _ARR),
    ("spec_idx", np.int64, _SPEC),
    ("valid_len", np.int64, _VLEN),
)
_OUTCOME_COLUMNS = (
    ("batched_s", np.float64, _PFB),
    ("service_start_s", np.float64, _PFS),
    ("finish_s", np.float64, _FIN),
    ("batch_size", np.int64, _PFSZ),
    ("device_id", np.int64, _PFD),
)
_GENERATIVE_COLUMNS = (
    ("first_token_s", np.float64, _FT),
    ("decode_slots", np.int64, _DSLOT),
)


class _DecodeCore:
    """The event loop over columnar generative state.

    The prefill core's interface (:func:`repro.serving.engine._core`),
    fault-free and fault mode alike: :meth:`admit` feeds one slice of
    sorted arrivals through the loop, the heap carries one entry per
    in-flight step batch plus queue-creation timeouts, retired
    per-request records accumulate in ``self.retired`` until
    :meth:`flush` emits them, and :meth:`totals` gives the run totals.
    Event ordering -- (time, priority, push order) with DEVICE_DONE <
    ARRIVAL < BATCH_TIMEOUT < BATCH_FAILED < RECOVERY < RETRY at equal
    instants -- matches the reference :class:`~repro.serving.events.
    EventQueue` exactly.

    ``faults`` (a :class:`~repro.serving.faults.FaultSchedule`) and
    ``retry`` (the :class:`~repro.serving.faults.RetryPolicy` it
    requires) switch on fault mode, run by a
    :class:`~repro.serving.faults.Fleet`: a batch starts only on a
    device that is up, one whose device fails mid-service is lost, and
    its members retry or drop into the fleet's drop log, which
    :meth:`flush` drains.  Macro-stepping stays off under a schedule,
    because a macro-run dispatches implicitly and cannot see an outage.
    """

    def __init__(
        self,
        specs: List,
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
        self.emit = emit
        self.rows = rows
        #: The (name, dtype, slot) columns :meth:`flush` emits; set by
        #: the first :meth:`admit`, which shows the traffic's shape.
        self.columns: tuple = ()
        self.queue_specs, queue_of_spec = _queue_map(specs)
        self.queue_of_spec = queue_of_spec.tolist()
        self.cost_model = cost_model
        self.max_batch_size = max_batch_size
        self.max_wait_s = max_wait_s
        self.zero_wait = max_wait_s == 0
        self.setup_cycles = setup_cycles
        self.frequency_hz = cost_model.config.frequency_ghz * 1e9

        # (time, priority, seq, payload); priority 0 = DEVICE_DONE and
        # 3 = BATCH_FAILED (payload: sealed batch), 5 = RETRY (payload:
        # (record, context)), 2 = BATCH_TIMEOUT and 4 = RECOVERY
        # (payload: None).
        self.heap: list = []
        self.seq = 0
        # (queue id, decode?) -> [ready times, records, contexts,
        # rejoiner count]; insertion-ordered like the reference
        # batcher's dict (flush order at shared instants depends on
        # it).  The rejoiner count -- members whose step is not their
        # last -- accumulates at admission so sealing is O(1) in it.
        self.queues: dict = {}
        # Sealed batches awaiting a device, FIFO.  Entries are mutable
        # lists [decode?, records, contexts, service_s, energy_pj,
        # macro_steps, min_left, max_ctx, sealed_s, rejoiners]:
        # ``macro_steps`` counts decode steps advanced without touching
        # the per-member records (stamped lazily at the next scalar
        # event), ``min_left`` is the fewest steps any member still has
        # from the materialized contexts minus ``macro_steps``, and
        # ``max_ctx`` tracks the batch's current max context.  A lost
        # batch releases its ``rejoiners``; a batch the dead fleet can
        # never run strands its members at ``sealed_s``.
        self.ready: deque = deque()
        self.free_at = [0.0] * num_devices
        #: min(free_at), maintained on every assignment: the dispatch
        #: loop's "every device is busy" exit is one comparison.
        self.min_free_at = 0.0
        self.busy_s = [0.0] * num_devices
        self.energy_pj = [0.0] * num_devices
        #: Fault mode: the fleet that places, books and loses every
        #: batch, and retries or drops the members of a lost one (None
        #: = fault-free).  Its free-time, busy and energy lists stand
        #: in for the core's own.
        self.fleet = None
        if faults is not None:
            self.fleet = Fleet(faults, retry)
            self.free_at = self.fleet.free_at
            self.busy_s = self.fleet.busy_s
            self.energy_pj = self.fleet.energy_pj
            # A recovery only re-triggers dispatch (up/down is a pure
            # function of time), so every one is known up front.
            for _device, up in faults.recovery_events():
                heappush(self.heap, (up, 4, self.seq, None))
                self.seq += 1
        # (queue id, decode?) -> context-indexed per-sample cost
        # vectors (see :meth:`_vectors`), stored as plain Python lists:
        # sealing and macro-stepping price by one list index (cheaper
        # than numpy scalar indexing in the hot loop) instead of
        # memo-dict chains.  Built lazily per queue, extended on bucket
        # boundaries.
        self.vecs: Dict[tuple, Tuple[list, list]] = {}
        # Queue-creation timeouts not yet pushed: (deadline, key),
        # nondecreasing in deadline (appended in event order).  A
        # timeout only needs to reach the heap before the event loop
        # advances past its deadline; deferring the push lets queues
        # that seal by size first drop theirs entirely (the reference
        # pushes *more* timeout events than this -- one per non-sealing
        # admission -- so the contract is over outcomes, not pushes).
        self.deferred_to: deque = deque()
        #: Completed records not yet emitted.
        self.retired: list = []
        self.in_flight_rejoiners = 0
        self.arrivals_done = False
        self.last_now = 0.0
        self.batches = 0
        self.prefill_batches = 0
        self.decode_batches = 0
        self.size_triggered = 0
        self.timeout_triggered = 0
        # Run totals of the emitted records.
        self.start_s: Optional[float] = None
        self.end_s = -np.inf
        self.completed = 0
        self.total_tokens = 0
        self.pending_retries = 0

    # ------------------------------------------------------------------
    def _vectors(self, qid: int, decode: bool, max_ctx: int):
        """Per-sample (cycles, energy_pj) lists of a queue, by raw context.

        Index ``c`` answers a seal at max context ``c`` for ``c`` in
        ``1 .. hi``, where ``hi`` rounds ``max_ctx`` up to a bucket
        boundary so repeated extensions amortize (index 0 pads).  Values
        come from the vectorized bucket caches
        (:meth:`~repro.serving.devices.ServiceCostModel.cost_arrays` /
        :meth:`~repro.serving.devices.ServiceCostModel.decode_cost_arrays`)
        and are bitwise equal to the scalar lookups the reference devices
        make, so sealing and macro-stepping can price by one list index.
        A cold cost model prices its buckets here, mid-run.
        """
        key = (qid, decode)
        vecs = self.vecs.get(key)
        if vecs is None or max_ctx >= len(vecs[0]):
            lb = self.cost_model.len_bucket
            hi = max(2, -(-max(max_ctx, 1) // lb) * lb)
            ctx_range = np.arange(1, hi + 1, dtype=np.int64)
            spec = self.queue_specs[qid]
            if decode:
                cyc, en = self.cost_model.decode_cost_arrays(spec, ctx_range)
            else:
                cyc, en = self.cost_model.cost_arrays(spec, ctx_range)
            vecs = self.vecs[key] = ([np.nan] + cyc.tolist(), [np.nan] + en.tolist())
        return vecs

    def _seal(self, key, now: float, by_size: bool) -> None:
        readys, recs, ctxs, rejoiners = self.queues.pop(key)
        qid, decode = key
        size = len(recs)
        if decode:
            # One pass for the pricing context (max) and the macro
            # window (fewest steps any member has before its last).
            mx = 0
            left = 1 << 60
            for k in range(size):
                c = ctxs[k]
                if c > mx:
                    mx = c
                r = recs[k][_LCTX] - c
                if r < left:
                    left = r
        else:
            mx = max(ctxs)
            left = 0
        vecs = self._vectors(qid, decode, mx)
        # Same float expressions as SprintDevice.start_step_batch.
        service = (self.setup_cycles + vecs[0][mx] * size) / self.frequency_hz
        energy = vecs[1][mx]
        self.batches += 1
        if by_size:
            self.size_triggered += 1
        else:
            self.timeout_triggered += 1
        if decode:
            self.decode_batches += 1
        else:
            self.prefill_batches += 1
            for rec in recs:
                rec[_PFB] = now
                rec[_PFSZ] = size
        self.in_flight_rejoiners += rejoiners
        self.ready.append(
            [decode, recs, ctxs, service, energy, 0, left, mx, now, rejoiners]
        )

    def _admit(self, rec, ctx: int, decode: bool, now: float, limit: float) -> None:
        key = (rec[_QID], decode)
        queues = self.queues
        q = queues.get(key)
        rejoin = 1 if ctx != rec[_LCTX] else 0
        if q is None:
            q = queues[key] = [[now], [rec], [ctx], rejoin]
            if self.max_batch_size <= 1:
                self._seal(key, now, by_size=True)
            elif self.max_wait_s > 0:
                due = now + self.max_wait_s
                if due < limit:
                    # The event loop drains up to ``limit`` before the
                    # deferred list is next read: push it now.
                    heappush(self.heap, (due, 2, self.seq, None))
                    self.seq += 1
                else:
                    self.deferred_to.append((due, key))
        else:
            q[0].append(now)
            q[1].append(rec)
            q[2].append(ctx)
            q[3] += rejoin
            if len(q[1]) >= self.max_batch_size:
                self._seal(key, now, by_size=True)

    def _flush_due(self, now: float) -> None:
        # Same float comparison as the reference batcher's flush_due.
        w = self.max_wait_s
        queues = self.queues
        if len(queues) == 1:
            key = next(iter(queues))
            if now >= queues[key][0][0] + w:
                self._seal(key, now, by_size=False)
            return
        due = [key for key, q in queues.items() if now >= q[0][0] + w]
        for key in due:
            self._seal(key, now, by_size=False)

    def _dispatch(self, now: float) -> None:
        """Start ready batches at ``now`` on the lowest-index free
        device, in FIFO order, until none is free.

        Under a schedule the fleet decides: a batch starts only when
        :meth:`~repro.serving.faults.Fleet.place` gives ``now``, and one
        whose device dies mid-batch is lost at the failure instant.
        Dispatch instants never decrease, which the fleet requires.
        """
        ready = self.ready
        fleet = self.fleet
        free_at = self.free_at
        while ready:
            if fleet is None:
                if self.min_free_at > now:
                    return
                dev = 0
                while free_at[dev] > now:
                    dev += 1
            else:
                start, dev = fleet.place(now)
                if start != now:
                    return
            batch = ready.popleft()
            service = batch[3]
            energy = batch[4] * len(batch[1])
            finish = now + service
            if fleet is None:
                free_at[dev] = finish
                self.min_free_at = min(free_at)
                self.busy_s[dev] += service
                self.energy_pj[dev] += energy
            else:
                fail = fleet.run(dev, now, service, energy)
                if fail is not None:
                    heappush(self.heap, (fail, 3, self.seq, batch))
                    self.seq += 1
                    continue
            if not batch[0]:
                for rec in batch[1]:
                    rec[_PFS] = now
                    rec[_PFD] = dev
            heappush(self.heap, (finish, 0, self.seq, batch))
            self.seq += 1

    def _macro_run(self, batch, now: float, limit: float) -> bool:
        """Advance a decode batch through a run of membership-fixed steps.

        Preconditions (checked by the caller): this batch's DEVICE_DONE
        just popped with the ready FIFO empty -- any other pending
        queue seals only at its deadline or on an arrival, both of
        which bound the run, so until the next arrival
        (``limit``), the next foreign heap event, or a member's last
        token, every event is this batch's own reseal cycle and its
        membership is fixed.  The run advances as one plain-float
        chain: each iteration is the exact arithmetic of one scalar
        reseal cycle (rejoin, seal, dispatch) priced off the queue's
        context-indexed cost lists, so every finish instant and the
        busy/energy folds are bitwise the reference loop's
        one-event-at-a-time accumulation -- without touching the heap,
        the queue dict, or the per-member records.  Returns False (the
        caller falls back to the scalar handler) when no full reseal
        fits before the bounds, and also when:

        - every device is busy at ``now``: a DONE sharing this instant
          popped first and dispatched onto this batch's device;
        - this DONE fires the end-of-stream flush while other queues
          are pending: the flush seals them too, oldest first, so they
          take the lower devices.
        """
        if self.min_free_at > now:
            return False
        recs = batch[1]
        size = len(recs)
        left, mx = batch[6], batch[7]
        qid = recs[0][_QID]
        queues = self.queues
        # A pending queue at this batch's own rejoin key means the
        # reseal would have to merge into it: membership changes, so
        # the step runs scalar.
        if queues and (qid, True) in queues:
            return False
        # After arrivals end, the end-of-stream flush fires at this
        # DONE when no OTHER batch still has rejoiners in flight (our
        # own ``size`` members rejoin at each step and do not block
        # it).  It seals every pending queue, oldest first, so with
        # other queues pending the step runs scalar.
        flush = self.arrivals_done and self.in_flight_rejoiners == size
        if flush and queues:
            return False
        by_size = size >= self.max_batch_size
        instant = by_size or self.zero_wait or flush
        heap = self.heap
        # The next foreign heap event bounds the run strictly: at equal
        # instants it was pushed earlier, so it pops first and may
        # change membership (a stale timeout merely ends the run
        # early; it pops as a no-op and the next DONE resumes).
        t2 = heap[0][0] if heap else None
        if not instant and (
            now + self.max_wait_s >= limit
            or (t2 is not None and now + self.max_wait_s >= t2)
        ):
            return False
        if queues:
            # Other pending queues are safe spectators -- they only
            # seal at their own deadline or on an arrival, both of
            # which bound the run.  Any alive queue's deadline is
            # either already in the heap (the foreign-event bound
            # above) or still deferred: the earliest alive deferred
            # deadline joins the bound.  Dead-key heads would pop as
            # no-ops anyway (their queue sealed first), so drop them.
            deferred = self.deferred_to
            while deferred:
                deadline, key = deferred[0]
                if key in queues:
                    if t2 is None or deadline < t2:
                        t2 = deadline
                    break
                deferred.popleft()
        # Stop one step short of the earliest member's last token: the
        # completion step changes membership, so it runs scalar.
        last = left - 1
        cyc_vec, en_vec = self._vectors(qid, True, mx + last)
        setup = self.setup_cycles
        freq = self.frequency_hz
        # Every reseal dispatches to the same device: the lowest-index
        # one free at ``now`` (ours, or an idle lower index -- exactly
        # the scalar _dispatch scan), and no other device frees before
        # the run's bound.
        free_at = self.free_at
        dev = 0
        while free_at[dev] > now:
            dev += 1
        busy = self.busy_s[dev]
        energy = self.energy_pj[dev]
        m = 0
        fin = now  # the pending (in-flight) DONE instant
        s = 0.0
        if instant:
            # Full batch, zero wait, or end-of-stream flush: each DONE
            # reseals and redispatches at the same instant, so finish
            # times chain directly.  A finish at exactly ``limit``
            # still runs (DEVICE_DONE outranks the arrival) but one at
            # the foreign event's instant does not (it was pushed
            # earlier), hence the strict bound when ``t2`` is closer.
            hi = limit
            strict = False
            if t2 is not None and t2 <= limit:
                hi = t2
                strict = True
            prev = now
            while True:
                idx = mx + m + 1
                s = (setup + cyc_vec[idx] * size) / freq
                busy += s
                energy += en_vec[idx] * size
                prev = fin
                fin += s
                m += 1
                if m == last or fin > hi or (strict and fin == hi):
                    break
            self.last_now = prev
        else:
            # Timeout cadence: DONE at fin_j -> members re-queue ->
            # timeout seals at fin_j + w -> dispatch -> next finish.
            # A seal at exactly ``limit`` belongs to the caller
            # (arrivals outrank timeouts at equal instants), so both
            # bounds are strict.
            w = self.max_wait_s
            hi = limit if t2 is None or limit <= t2 else t2
            t_seal = now
            while True:
                ts = fin + w
                if ts >= hi:
                    break
                idx = mx + m + 1
                s = (setup + cyc_vec[idx] * size) / freq
                busy += s
                energy += en_vec[idx] * size
                t_seal = ts
                fin = ts + s
                m += 1
                if m == last:
                    break
            if m < 1:
                return False
            self.last_now = t_seal
        self.busy_s[dev] = busy
        self.energy_pj[dev] = energy
        free_at[dev] = fin
        self.min_free_at = min(free_at)
        self.batches += m
        self.decode_batches += m
        if by_size:
            self.size_triggered += m
        else:
            self.timeout_triggered += m
        batch[3] = s
        batch[4] = en_vec[mx + m]
        batch[5] += m
        batch[6] = left - m
        batch[7] = mx + m
        heappush(self.heap, (fin, 0, self.seq, batch))
        self.seq += 1
        return True

    def _handle_heap_event(self, limit: float) -> None:
        now, priority, seq, batch = heappop(self.heap)
        if priority == 0:  # DEVICE_DONE
            if (
                batch[0]
                and batch[6] >= 2
                and not self.ready
                and self.fleet is None
                and self._macro_run(batch, now, limit)
            ):
                return
            decode, recs, ctxs = batch[0], batch[1], batch[2]
            size = len(recs)
            steps = batch[5]
            if steps:
                # Materialize macro-advanced state before per-member
                # processing: each deferred step occupied ``size``
                # decode slots and grew every context by one.
                add = size * steps
                for k in range(size):
                    ctxs[k] += steps
                    recs[k][_DSLOT] += add
            # The rejoin admission (self._admit with decode=True) is
            # inlined: this loop runs once per token-step and dominates
            # the engine's wall-clock.
            queues = self.queues
            retired = self.retired
            max_bs = self.max_batch_size
            w = self.max_wait_s
            rejoined = 0
            created = None
            for k in range(size):
                rec = recs[k]
                ctx = ctxs[k]
                last = rec[_LCTX]
                if decode:
                    rec[_DSLOT] += size
                else:
                    rec[_FT] = now
                if ctx == last:
                    rec[_FIN] = now
                    retired.append(rec)
                    continue
                rejoined += 1
                ctx += 1
                key = (rec[_QID], True)
                q = queues.get(key)
                if q is None:
                    q = queues[key] = [[now], [rec], [ctx], 0 if ctx == last else 1]
                    if max_bs <= 1:
                        self._seal(key, now, by_size=True)
                    elif w > 0:
                        if now + w < limit:
                            if created is None:
                                created = [key]
                            else:
                                created.append(key)
                        else:
                            self.deferred_to.append((now + w, key))
                else:
                    q[0].append(now)
                    q[1].append(rec)
                    q[2].append(ctx)
                    if ctx != last:
                        q[3] += 1
                    if len(q[1]) >= max_bs:
                        self._seal(key, now, by_size=True)
            if created is not None:
                # Push deadlines only for queues that survived the
                # handler: a queue sealed by size above never needs its
                # timeout event at all.
                for key in created:
                    if key in queues:
                        heappush(self.heap, (now + w, 2, self.seq, None))
                        self.seq += 1
            self.in_flight_rejoiners -= rejoined
        elif priority == 2:  # BATCH_TIMEOUT
            if self.queues:
                self._flush_due(now)
        elif priority == 3:  # BATCH_FAILED: each member retries or drops
            self.in_flight_rejoiners -= batch[9]
            for m, (rec, ctx) in enumerate(zip(batch[1], batch[2])):
                f = rec[_FLS] = rec[_FLS] + 1
                retry_at = self.fleet.retry_or_drop(
                    (now, seq, m),
                    rec[_ROW],
                    f,
                    rec[_ADL],
                    rec[_RID],
                    self.queue_specs[rec[_QID]].name,
                )
                if retry_at is not None:
                    self.pending_retries += 1
                    heappush(self.heap, (retry_at, 5, self.seq, (rec, ctx)))
                    self.seq += 1
        elif priority == 5:  # RETRY: re-admit at the stored context
            self.pending_retries -= 1
            rec, ctx = batch
            self._admit(rec, ctx, ctx > rec[_VLEN], now, limit)
        # RECOVERY (4) changes no state: it only re-triggers dispatch.
        # _after_event, inlined (this handler is the hot loop).
        self.last_now = now
        if self.zero_wait and self.queues:
            self._flush_due(now)
        if (
            self.arrivals_done
            and self.in_flight_rejoiners == 0
            and self.queues
            and self.pending_retries == 0
        ):
            for key in list(self.queues):
                self._seal(key, now, by_size=False)
        if self.ready:
            self._dispatch(now)

    # ------------------------------------------------------------------
    def admit(self, request: Dict[str, np.ndarray], base: int) -> None:
        """Feed one slice of sorted arrivals through the event loop.

        ``request`` holds the slice's columns (:func:`~repro.serving.
        engine._sorted_columns`) and ``base`` the stream index of its
        first row.  A slice without an ``output_len`` column runs as
        one-token requests.  Heap events strictly preceding each
        arrival (in the reference (time, priority) order) are processed
        first; events at or beyond the slice's last arrival stay queued
        for the next slice or the final :meth:`flush`.  Deferred
        queue-creation timeouts whose deadline the loop is about to
        reach are pushed first -- only for queues still alive, which is
        what lets size-sealed queues skip their timeout events
        entirely.  Only fault mode reads the optional ``deadline_s``
        column (relative to arrival), to gate retries.
        """
        rid = request["request_id"]
        arr = request["arrival_s"]
        spec_i = request["spec_idx"]
        vlen = request["valid_len"]
        olen = request.get("output_len")
        deadline_s = request.get("deadline_s")
        if self.start_s is None:
            self.start_s = float(arr[0])
            columns = _OUTCOME_COLUMNS
            if olen is not None:
                columns += _GENERATIVE_COLUMNS
            if not self.rows:
                columns += _REQUEST_COLUMNS
                if olen is not None:
                    columns += (("output_len", np.int64, _OLEN),)
            self.columns = columns
        if olen is None:
            olen = np.ones(rid.size, dtype=np.int64)
        heap = self.heap
        queues = self.queues
        deferred = self.deferred_to
        qmap = self.queue_of_spec
        inf = float("inf")
        n = rid.size
        for i in range(n):
            t = float(arr[i])
            while deferred and deferred[0][0] <= t:
                due, key = deferred.popleft()
                if key in queues:
                    heappush(heap, (due, 2, self.seq, None))
                    self.seq += 1
            while heap and (heap[0][0] < t or (heap[0][0] == t and heap[0][1] == 0)):
                self._handle_heap_event(t)
            v = int(vlen[i])
            o = int(olen[i])
            s = int(spec_i[i])
            rec = [
                int(rid[i]),
                t,
                s,
                v,
                o,
                v + o - 1,
                0.0,
                0.0,
                -1,
                1,
                0.0,
                0.0,
                0,
                base + i,
                qmap[s],
                0,
                inf if deadline_s is None else t + float(deadline_s[i]),
            ]
            self._admit(rec, v, False, t, t)
            # _after_event, inlined (arrivals_done is False here, so
            # the end-of-stream flush can never apply).
            self.last_now = t
            if self.zero_wait and self.queues:
                self._flush_due(t)
            if self.ready:
                self._dispatch(t)

    def flush(self, final: bool = False) -> None:
        """Emit the requests that completed or dropped since the last flush.

        ``final`` first ends the stream: no further arrivals, so the
        tail flush applies, the heap drains, and a sealed batch that a
        fleet down for good can never run strands its members.  Nothing
        is emitted when nothing retired.
        """
        if final:
            self._end_of_stream()
        fleet = self.fleet
        recs = self.retired
        drops = () if fleet is None else fleet.drops
        if not (recs or drops):
            return
        self.retired = []
        if recs:
            self.completed += len(recs)
            self.total_tokens += sum(rec[_OLEN] for rec in recs)
            self.end_s = max(self.end_s, max(rec[_FIN] for rec in recs))
        if drops:
            fleet.drops = []
            self.end_s = max(self.end_s, max(drop[3] for drop in drops))
        # Each column is built only as the emit callback reaches it.
        columns = (
            (name, np.array([rec[slot] for rec in recs], dtype=dtype))
            for name, dtype, slot in self.columns
        )
        if fleet is not None:
            attempts = np.array([rec[_FLS] + 1 for rec in recs], dtype=np.int64)
            columns = chain(columns, [("attempts", attempts)])
        rows = None
        if self.rows:
            rows = np.array([rec[_ROW] for rec in recs], dtype=np.int64)
        self.emit(rows, columns, [drop[1:] for drop in drops])

    def _end_of_stream(self) -> None:
        self.arrivals_done = True
        if self.in_flight_rejoiners == 0 and self.pending_retries == 0 and self.queues:
            # The end-of-stream flush the monolithic loop would have
            # applied at the last processed event.
            now = self.last_now
            for key in list(self.queues):
                self._seal(key, now, by_size=False)
            self._dispatch(now)
        deferred = self.deferred_to
        while deferred:
            due, key = deferred.popleft()
            if key in self.queues:
                heappush(self.heap, (due, 2, self.seq, None))
                self.seq += 1
        inf = float("inf")
        while self.heap:
            self._handle_heap_event(inf)
        # Fleet down for good with sealed work still queued: those
        # batches can never run, so their members strand.
        stranded = 0
        while self.ready:
            batch = self.ready.popleft()
            self.in_flight_rejoiners -= batch[9]
            for rec in batch[1]:
                key = (inf, stranded)
                self.fleet.drop(key, rec[_ROW], DROP_STRANDED, batch[8], rec[_FLS])
                stranded += 1
        assert not self.queues
        assert self.in_flight_rejoiners == 0 and self.pending_retries == 0

    def totals(self) -> dict:
        """The run totals, as :class:`~repro.serving.engine.
        StreamedServingResult` fields."""
        totals = dict(
            completed=self.completed,
            start_s=self.start_s,
            end_s=self.end_s,
            device_busy_s=list(self.busy_s),
            device_energy_pj=list(self.energy_pj),
            batches=self.batches,
            prefill_batches=self.prefill_batches,
            decode_batches=self.decode_batches,
            size_triggered_batches=self.size_triggered,
            timeout_triggered_batches=self.timeout_triggered,
            total_tokens=self.total_tokens,
        )
        if self.fleet is not None:
            totals.update(self.fleet.totals(self.start_s, self.end_s))
        return totals


def simulate_decode_table(
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
    """:func:`~repro.serving.engine.simulate_table` on the decode core.

    Kept for its name; bitwise equal to :meth:`~repro.serving.
    scheduler.GenerativeServingSimulator.run` over a
    :class:`~repro.serving.batching.ContinuousBatcher`.  A table
    without an ``output_len`` column runs here as one-token requests,
    with or without a ``faults`` schedule, and gives a prefill-shaped
    result.
    """
    knobs = (cost_model, num_devices, max_batch_size, max_wait_s, setup_cycles)
    return _drive_table(table, knobs, recorder, faults, retry, decode=True)


def simulate_decode_stream(
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
    """:func:`~repro.serving.engine.simulate_stream` on the decode core.

    Kept for its name.  Prefill chunks run here as one-token requests;
    completed requests leave through ``sink`` in completion order, and
    every value and total is bitwise equal to the whole-table run of
    the concatenated stream at any chunk size.
    """
    knobs = (cost_model, num_devices, max_batch_size, max_wait_s, setup_cycles)
    return _drive_stream(chunks, knobs, sink, faults, retry, decode=True)
