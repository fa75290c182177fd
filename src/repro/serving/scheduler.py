"""The serving reference event loop: arrivals -> batcher -> devices -> records.

:class:`GenerativeServingSimulator` is a discrete-event simulation of
continuous batching: request arrivals enter the batcher as prefill
steps; sealed batches enter a FIFO dispatch queue; idle devices pull
from it; a completion frees the device, stamps its members' records
and re-admits each unfinished request as its next decode step.  The
loop is fully deterministic -- same requests, same knobs, same result.
:class:`ServingSimulator` is a thin constructor over it for prefill
traffic, where every request is one forward pass.

This per-request event loop is the serving layer's one ``slow_exact``
**reference**: the columnar fast paths -- the prefill engine
(:mod:`repro.serving.engine`) and the decode core
(:mod:`repro.serving.decode`), with or without a fault schedule --
must produce per-request records exactly equal to it, and the
equivalence suites pin that contract across patterns, modes, device
counts, wait bounds and fault schedules.  Production-size streams
should run through the fast paths; this loop exists to define the
semantics and to keep the fast paths honest.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Sequence

from repro.obs.trace import TraceRecorder
from repro.serving.batching import (
    ContinuousBatcher,
    DynamicBatcher,
    StepBatch,
    StepItem,
)
from repro.serving.devices import SprintDevice
from repro.serving.events import EventKind, EventQueue
from repro.serving.requests import Request, RequestRecord


@dataclass
class ServingResult:
    """Everything one simulation run produced.

    The fault-layer fields keep their zero defaults on fault-free runs,
    so legacy construction sites and equality checks are untouched.
    """

    records: List[RequestRecord] = field(default_factory=list)
    #: Wall-clock span of the run: first arrival to last completion.
    start_s: float = 0.0
    end_s: float = 0.0
    #: Per-device busy seconds (index = device position).
    device_busy_s: List[float] = field(default_factory=list)
    device_energy_pj: List[float] = field(default_factory=list)
    batches: int = 0
    size_triggered_batches: int = 0
    timeout_triggered_batches: int = 0
    #: Retry dispatches the fault layer scheduled.
    retries: int = 0
    #: Batches lost to mid-execution device failures.
    failed_batches: int = 0
    #: Energy spent on lost (never-delivered) batch work.
    wasted_energy_pj: float = 0.0
    #: :class:`~repro.serving.faults.DroppedRecord` per given-up
    #: request, in drop order.
    dropped: list = field(default_factory=list)
    #: Dropped requests per reason name (empty on fault-free runs).
    dropped_by_reason: Dict[str, int] = field(default_factory=dict)
    #: Per-device outage seconds within [start_s, end_s] (empty on
    #: fault-free runs).
    device_downtime_s: List[float] = field(default_factory=list)
    #: (request id, retry instant, attempt number, model name) per
    #: scheduled retry.
    retry_events: list = field(default_factory=list)

    @property
    def duration_s(self) -> float:
        return max(self.end_s - self.start_s, 0.0)

    @property
    def completed(self) -> int:
        return len(self.records)

    @property
    def offered(self) -> int:
        return len(self.records) + len(self.dropped)


class ServingSimulator:
    """Simulate one (devices, batcher) deployment over a prefill stream.

    A thin constructor over :class:`GenerativeServingSimulator`: every
    request runs as one forward pass, so only prefill batches form, and
    the loop's records come back as :class:`RequestRecord` objects in a
    :class:`ServingResult`.

    Parameters
    ----------
    devices:
        One or more :class:`SprintDevice` (multi-chip deployments load-
        balance over them; the first idle device takes the next batch).
    batcher:
        The dynamic batcher; its knobs set the batching/latency trade.
    recorder:
        Optional sim-time :class:`~repro.obs.trace.TraceRecorder`;
        sampled lifecycle spans are emitted from the completed records
        after the event loop finishes, so tracing never perturbs the
        simulation itself.
    faults:
        Optional :class:`~repro.serving.faults.FaultSchedule` (one
        outage trace per device position).  With it in force, a device
        that dies mid-batch loses the batch; members retry under
        ``retry`` or drop (see :mod:`repro.serving.faults`).
    retry:
        :class:`~repro.serving.faults.RetryPolicy` for lost requests;
        defaults to ``RetryPolicy()`` when ``faults`` is given.
    """

    def __init__(
        self,
        devices: Sequence[SprintDevice],
        batcher: DynamicBatcher,
        recorder: Optional[TraceRecorder] = None,
        faults=None,
        retry=None,
    ):
        self._loop = GenerativeServingSimulator(
            devices, batcher, recorder, faults=faults, retry=retry
        )

    # ------------------------------------------------------------------
    def run(self, requests: Sequence[Request]) -> ServingResult:
        """Process every request to completion; returns the records.

        Every request is one forward pass: ``output_len`` is not read.
        Records and drops hold the caller's :class:`Request` objects.

        Single-use: devices and the batcher accumulate wall-clock and
        counter state during a run, so reusing them would corrupt the
        next run's timing.  Build a fresh simulator per stream.
        """
        by_id = {r.request_id: r for r in requests}
        result = self._loop.run(
            [
                r if r.output_len == 1 else dataclasses.replace(r, output_len=1)
                for r in requests
            ]
        )
        return ServingResult(
            records=[
                RequestRecord(
                    request=by_id[rec.request.request_id],
                    batched_s=rec.prefill_batched_s,
                    service_start_s=rec.prefill_start_s,
                    finish_s=rec.finish_s,
                    batch_size=rec.prefill_batch_size,
                    device_id=rec.prefill_device_id,
                    attempts=rec.attempts,
                )
                for rec in result.records
            ],
            start_s=result.start_s,
            end_s=result.end_s,
            device_busy_s=result.device_busy_s,
            device_energy_pj=result.device_energy_pj,
            batches=result.batches,
            size_triggered_batches=result.size_triggered_batches,
            timeout_triggered_batches=result.timeout_triggered_batches,
            retries=result.retries,
            failed_batches=result.failed_batches,
            wasted_energy_pj=result.wasted_energy_pj,
            dropped=[
                dataclasses.replace(d, request=by_id[d.request.request_id])
                for d in result.dropped
            ],
            dropped_by_reason=result.dropped_by_reason,
            device_downtime_s=result.device_downtime_s,
            retry_events=result.retry_events,
        )


@dataclass
class DecodeRecord:
    """Per-token lifecycle timestamps for one generative request."""

    request: Request
    #: When the batcher sealed this request's prefill batch.
    prefill_batched_s: float = 0.0
    #: When a device started the prefill batch.
    prefill_start_s: float = 0.0
    #: When the prefill batch finished -- the first output token.
    first_token_s: float = 0.0
    #: When the request's final token step finished.
    finish_s: float = 0.0
    #: Size of the prefill batch the request rode in.
    prefill_batch_size: int = 1
    #: Device that executed the prefill batch.
    prefill_device_id: int = -1
    #: Sum of batch sizes over this request's decode steps (total
    #: batch occupancy its decode tokens experienced; 0 when
    #: ``output_len == 1``).
    decode_slots: int = 0
    #: Dispatch attempts this request needed (1 without faults; the
    #: fault layer counts one per lost step batch plus the success).
    attempts: int = 1

    @property
    def ttft_s(self) -> float:
        """Time to first token: arrival to prefill completion."""
        return self.first_token_s - self.request.arrival_s

    @property
    def latency_s(self) -> float:
        """End-to-end latency: arrival to the last token."""
        return self.finish_s - self.request.arrival_s

    @property
    def queue_wait_s(self) -> float:
        """Arrival to prefill service start."""
        return self.prefill_start_s - self.request.arrival_s

    @property
    def tbt_s(self) -> float:
        """Mean time between tokens over the decode phase.

        NaN for single-token requests (no decode steps to average).
        """
        steps = self.request.output_len - 1
        if steps < 1:
            return float("nan")
        return (self.finish_s - self.first_token_s) / steps


@dataclass
class GenerativeResult:
    """Everything one generative (continuous-batching) run produced."""

    records: List[DecodeRecord] = field(default_factory=list)
    start_s: float = 0.0
    end_s: float = 0.0
    device_busy_s: List[float] = field(default_factory=list)
    device_energy_pj: List[float] = field(default_factory=list)
    #: Token-step batches dispatched (prefill + decode).
    batches: int = 0
    prefill_batches: int = 0
    decode_batches: int = 0
    size_triggered_batches: int = 0
    timeout_triggered_batches: int = 0
    #: Tokens generated across all *completed* requests (= total steps
    #: executed; equals the whole stream's tokens without faults).
    total_tokens: int = 0
    retries: int = 0
    failed_batches: int = 0
    wasted_energy_pj: float = 0.0
    dropped: list = field(default_factory=list)
    dropped_by_reason: Dict[str, int] = field(default_factory=dict)
    device_downtime_s: List[float] = field(default_factory=list)
    retry_events: list = field(default_factory=list)

    @property
    def duration_s(self) -> float:
        return max(self.end_s - self.start_s, 0.0)

    @property
    def completed(self) -> int:
        return len(self.records)

    @property
    def offered(self) -> int:
        return len(self.records) + len(self.dropped)


class GenerativeServingSimulator:
    """The reference event loop, for prefill and generative serving.

    The semantic spec for continuous batching on the SPRINT machine:
    arrivals enter as prefill :class:`~repro.serving.batching.StepItem`
    work; every batch completion re-admits its unfinished members as
    decode steps at the finish instant (device slots free per token);
    the :class:`~repro.serving.batching.ContinuousBatcher` seals
    (model, phase) queues under its size/wait rules; sealed batches
    dispatch FIFO to the lowest-index idle device.  With every
    ``output_len == 1`` only prefill batches form, which is how
    :class:`ServingSimulator` runs prefill traffic.  The columnar fast
    paths (:mod:`repro.serving.engine`, :mod:`repro.serving.decode`)
    are pinned bitwise-equal to this loop.

    End-of-stream rule: when no future steps can ever join (all
    arrivals seen and no unfinished request is in flight), pending
    queues flush immediately instead of waiting out their timeout.
    """

    def __init__(
        self,
        devices: Sequence[SprintDevice],
        batcher: ContinuousBatcher,
        recorder: Optional[TraceRecorder] = None,
        faults=None,
        retry=None,
    ):
        devices = list(devices)
        if not devices:
            raise ValueError("at least one device required")
        if faults is None:
            if retry is not None:
                raise ValueError("a retry policy requires a fault schedule")
        else:
            faults.validate_for(len(devices))
            if retry is None:
                from repro.serving.faults import RetryPolicy

                retry = RetryPolicy()
        self.devices = devices
        self.batcher = batcher
        self.recorder = recorder
        self.faults = faults
        self.retry = retry
        self._consumed = False

    # ------------------------------------------------------------------
    def run(self, requests: Sequence[Request]) -> GenerativeResult:
        """Process every request's every token step to completion."""
        if self._consumed:
            raise RuntimeError(
                "run() is single-use: devices and batcher carry per-run "
                "state; build a new simulator"
            )
        self._consumed = True
        requests = sorted(requests, key=lambda r: (r.arrival_s, r.request_id))
        if not requests:
            raise ValueError("request stream must not be empty")
        seen = set()
        for r in requests:
            if r.request_id in seen:
                raise ValueError(f"duplicate request id {r.request_id}")
            seen.add(r.request_id)

        queue = EventQueue()
        ready: Deque[StepBatch] = deque()
        records: Dict[int, DecodeRecord] = {}
        arrivals_left = len(requests)
        #: Unfinished steps downstream of the batcher (sealed or
        #: executing): while any exist, more work will re-enter.
        in_flight_rejoiners = 0
        prefill_batches = 0
        decode_batches = 0
        faults = self.faults
        retry = self.retry
        failures: Dict[int, int] = {}
        dropped: list = []
        retry_events: list = []
        pending_retries = 0
        retries = 0
        failed_batches = 0
        wasted_energy_pj = 0.0
        if faults is not None:
            from repro.serving.faults import DROP_REASON_NAMES, DroppedRecord

        for r in requests:
            queue.push(r.arrival_s, EventKind.ARRIVAL, r)
        if faults is not None:
            for device_index, up_s in faults.recovery_events():
                queue.push(up_s, EventKind.RECOVERY, device_index)

        def seal(batch: StepBatch) -> None:
            nonlocal in_flight_rejoiners, prefill_batches, decode_batches
            if batch.decode:
                decode_batches += 1
            else:
                prefill_batches += 1
                for item in batch.items:
                    rec = records[item.request.request_id]
                    rec.prefill_batched_s = batch.sealed_s
                    rec.prefill_batch_size = batch.size
            in_flight_rejoiners += sum(1 for item in batch.items if not item.is_last)
            ready.append(batch)

        def admit(item: StepItem, now_s: float) -> None:
            sealed = self.batcher.add(item, now_s)
            if sealed is not None:
                seal(sealed)
            elif self.batcher.max_wait_s > 0:
                queue.push(
                    self.batcher.deadline_for(item),
                    EventKind.BATCH_TIMEOUT,
                )

        def dispatch(now_s: float) -> None:
            nonlocal failed_batches, wasted_energy_pj
            while ready:
                at = -1
                for i, d in enumerate(self.devices):
                    if d.is_idle(now_s) and (
                        faults is None or faults.is_up(i, now_s)
                    ):
                        at = i
                        break
                if at < 0:
                    return
                device = self.devices[at]
                batch = ready.popleft()
                if faults is not None:
                    fail_s = faults.next_down_after(at, now_s)
                    service = device.step_service_time_s(
                        batch.spec, batch.max_context_len, batch.size, batch.decode
                    )
                    if fail_s < now_s + service:
                        # Preordained loss: the device dies mid-step.
                        wasted_energy_pj += device.lose_step_batch(
                            batch.spec,
                            batch.max_context_len,
                            batch.size,
                            batch.decode,
                            now_s,
                            fail_s,
                        )
                        failed_batches += 1
                        queue.push(fail_s, EventKind.BATCH_FAILED, batch)
                        continue
                finish = device.start_step_batch(
                    batch.spec,
                    batch.max_context_len,
                    batch.size,
                    batch.decode,
                    now_s,
                )
                if not batch.decode:
                    for item in batch.items:
                        rec = records[item.request.request_id]
                        rec.prefill_start_s = now_s
                        rec.prefill_device_id = device.device_id
                queue.push(finish, EventKind.DEVICE_DONE, batch)

        while queue:
            event = queue.pop()
            now = event.time_s
            if event.kind == EventKind.ARRIVAL:
                arrivals_left -= 1
                r = event.payload
                records[r.request_id] = DecodeRecord(request=r)
                admit(StepItem(request=r, step=0, ready_s=now), now)
            elif event.kind == EventKind.BATCH_TIMEOUT:
                for b in self.batcher.flush_due(now):
                    seal(b)
            elif event.kind == EventKind.DEVICE_DONE:
                batch = event.payload
                size = batch.size
                for item in batch.items:
                    rec = records[item.request.request_id]
                    if batch.decode:
                        rec.decode_slots += size
                    else:
                        rec.first_token_s = now
                    if item.is_last:
                        rec.finish_s = now
                        if faults is not None:
                            rec.attempts = (
                                failures.get(item.request.request_id, 0) + 1
                            )
                    else:
                        in_flight_rejoiners -= 1
                        admit(
                            StepItem(
                                request=item.request,
                                step=item.step + 1,
                                ready_s=now,
                            ),
                            now,
                        )
            elif event.kind == EventKind.BATCH_FAILED:
                batch = event.payload
                for item in batch.items:
                    if not item.is_last:
                        in_flight_rejoiners -= 1
                    rid = item.request.request_id
                    f = failures.get(rid, 0) + 1
                    failures[rid] = f
                    if f >= retry.max_attempts:
                        dropped.append(DroppedRecord(item.request, "retries", now, f))
                        continue
                    retry_at = now + retry.backoff_s(f)
                    if (
                        item.request.deadline_s is not None
                        and retry_at
                        > item.request.arrival_s + item.request.deadline_s
                    ):
                        dropped.append(DroppedRecord(item.request, "deadline", now, f))
                        continue
                    retries += 1
                    pending_retries += 1
                    retry_events.append(
                        (rid, retry_at, f + 1, item.request.spec.name)
                    )
                    queue.push(
                        retry_at,
                        EventKind.RETRY,
                        StepItem(
                            request=item.request,
                            step=item.step,
                            ready_s=retry_at,
                        ),
                    )
            elif event.kind == EventKind.RETRY:
                pending_retries -= 1
                admit(event.payload, now)
            # EventKind.RECOVERY carries no state change: up/down is a
            # pure function of time; the event re-triggers dispatch.
            if self.batcher.max_wait_s == 0 and self.batcher.pending:
                # Zero wait: no step lingers in the batcher; seal the
                # (possibly singleton) queues this event populated.
                for b in self.batcher.flush_due(now):
                    seal(b)
            if (
                arrivals_left == 0
                and in_flight_rejoiners == 0
                and pending_retries == 0
                and self.batcher.pending
            ):
                # No future step can ever join: don't make the tail
                # wait out its timeout for batch-mates that won't come.
                for b in self.batcher.flush_all(now):
                    seal(b)
            dispatch(now)

        if faults is not None:
            # Fleet dead forever with sealed work still queued: those
            # steps can never run; their requests strand.
            while ready:
                batch = ready.popleft()
                for item in batch.items:
                    if not item.is_last:
                        in_flight_rejoiners -= 1
                    rid = item.request.request_id
                    dropped.append(
                        DroppedRecord(
                            item.request,
                            "stranded",
                            batch.sealed_s,
                            failures.get(rid, 0),
                        )
                    )
        assert not ready and self.batcher.pending == 0
        assert in_flight_rejoiners == 0
        dropped_ids = {d.request.request_id for d in dropped}
        result_records = [
            records[r.request_id]
            for r in requests
            if r.request_id not in dropped_ids
        ]
        assert len(result_records) + len(dropped) == len(requests)
        dropped_by_reason: Dict[str, int] = {}
        if faults is None:
            end_s = max(rec.finish_s for rec in result_records)
        else:
            end_s = max(
                [rec.finish_s for rec in result_records]
                + [d.dropped_s for d in dropped]
            )
            dropped_by_reason = dict.fromkeys(DROP_REASON_NAMES.values(), 0)
            for d in dropped:
                dropped_by_reason[d.reason] += 1
        if self.recorder is not None:
            for rec in result_records:
                self.recorder.add_request(
                    request_id=rec.request.request_id,
                    model=rec.request.spec.name,
                    arrival_s=rec.request.arrival_s,
                    batched_s=rec.prefill_batched_s,
                    service_start_s=rec.prefill_start_s,
                    finish_s=rec.finish_s,
                    device_id=rec.prefill_device_id,
                    batch_size=rec.prefill_batch_size,
                )
                self.recorder.add_decode_phase(
                    request_id=rec.request.request_id,
                    model=rec.request.spec.name,
                    first_token_s=rec.first_token_s,
                    finish_s=rec.finish_s,
                    tokens=rec.request.output_len - 1,
                )
            if faults is not None:
                from repro.serving.faults import _emit_fault_trace

                _emit_fault_trace(
                    self.recorder,
                    faults,
                    len(self.devices),
                    requests[0].arrival_s,
                    end_s,
                    retry_events,
                )
        return GenerativeResult(
            records=result_records,
            start_s=requests[0].arrival_s,
            end_s=end_s,
            device_busy_s=[d.busy_s for d in self.devices],
            device_energy_pj=[d.energy_pj for d in self.devices],
            batches=self.batcher.stats.batches_out,
            prefill_batches=prefill_batches,
            decode_batches=decode_batches,
            size_triggered_batches=self.batcher.stats.size_triggered,
            timeout_triggered_batches=self.batcher.stats.timeout_triggered,
            total_tokens=sum(rec.request.output_len for rec in result_records),
            retries=retries,
            failed_batches=failed_batches,
            wasted_energy_pj=wasted_energy_pj,
            dropped=dropped,
            dropped_by_reason=dropped_by_reason,
            device_downtime_s=(
                []
                if faults is None
                else [
                    faults.downtime_within(i, requests[0].arrival_s, end_s)
                    for i in range(len(self.devices))
                ]
            ),
            retry_events=retry_events,
        )
