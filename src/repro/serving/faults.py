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
and the columnar drivers (:func:`repro.serving.engine.simulate_table`
and :func:`repro.serving.engine.simulate_stream`) take the schedule and
retry policy as a fault hook, their ``faults=`` / ``retry=`` knobs.
Prefill traffic, table or stream, runs on the chunked prefill core,
whose outage-aware dispatch re-forms only the batches a retry touches;
generative traffic runs on the decode engine's event core
(:class:`repro.serving.decode._DecodeCore`).  Both fast engines place,
book, lose, retry and drop through one fleet model, :class:`Fleet`,
which holds the only copy of those rules outside the reference loop.
Both are pinned bitwise-equal to the reference under every schedule
(and equal to the no-fault engines when the schedule is empty).  Fault
runs come back as the one set of columnar result types
(:mod:`repro.serving.engine`) with their fault columns and totals
filled.  This module holds the schedule and policy types, the fleet
model, the drop records and reason codes, the drop-column and trace
helpers both engines share, and two thin wrappers kept for their
names.  Conservation holds by construction: ``completed + dropped ==
offered``.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.obs.trace import TraceRecorder
from repro.serving.batching import _require_integer, _validate_batching
from repro.serving.devices import DEFAULT_SETUP_CYCLES, ServiceCostModel
from repro.serving.requests import Request, RequestTable

if TYPE_CHECKING:
    from repro.serving.engine import (
        ColumnarServingResult,
        CompletedChunk,
        StreamedServingResult,
    )

_INF = float("inf")

#: Drop-reason codes (a fault-mode result's ``drop_reason`` column).
DROP_NONE = 0
DROP_RETRIES = 1
DROP_DEADLINE = 2
DROP_STRANDED = 3

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
        # Written so that NaN fails each check: a NaN or infinite
        # backoff would put retries at NaN or infinite instants.
        _require_integer("max_attempts", self.max_attempts)
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be positive")
        if not 0 <= self.backoff_base_s < _INF:
            raise ValueError(
                f"backoff_base_s must be finite and non-negative, "
                f"got {self.backoff_base_s!r}"
            )
        if not 1.0 <= self.backoff_multiplier < _INF:
            raise ValueError(
                f"backoff_multiplier must be finite and >= 1, "
                f"got {self.backoff_multiplier!r}"
            )

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
        _require_integer("num_devices", num_devices)
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
        _require_integer("num_devices", num_devices)
        if num_devices < 1:
            raise ValueError("at least one device required")
        # Written so that NaN fails each check.  An infinite MTBF (no
        # outages) or MTTR (no recovery) is legal; the horizon must be
        # finite, or the draw never ends.
        for name, value in (("mtbf_s", mtbf_s), ("mttr_s", mttr_s)):
            if not value > 0:
                raise ValueError(f"{name} must be positive, got {value!r}")
        if not 0 < horizon_s < _INF:
            raise ValueError(
                f"horizon_s must be positive and finite, got {horizon_s!r}"
            )
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


def _check_knobs(
    knobs: tuple, faults: Optional[FaultSchedule], retry: Optional[RetryPolicy]
) -> Optional[RetryPolicy]:
    """The one knob check behind both columnar drivers; returns the retry
    policy the run uses.

    ``knobs`` is (cost model, device count, batch size bound, wait
    bound, set-up cycles).  ``retry=None`` under a schedule means the
    default :class:`RetryPolicy` (3 attempts, 1 ms base backoff doubled
    each time); a policy without a schedule is an error.
    """
    _, num_devices, max_batch_size, max_wait_s, _ = knobs
    _require_integer("num_devices", num_devices)
    if num_devices < 1:
        raise ValueError("at least one device required")
    _validate_batching(max_batch_size, max_wait_s)
    if faults is None:
        if retry is not None:
            raise ValueError("a retry policy requires a fault schedule")
        return None
    faults.validate_for(num_devices)
    return RetryPolicy() if retry is None else retry


class Fleet:
    """A fleet under a fault schedule: the one copy of its rules that
    both fast engines place, lose, retry and drop through.

    The state is each device's *effective* free time -- the outages that
    begin while it idles, or that kill its batch, are folded in -- a
    pointer to each device's first outage not yet folded, and ``nda``,
    the earliest such outage start over the fleet.  :meth:`place` must
    be called at non-decreasing instants -- the prefill core's seal
    order, the decode core's event times -- so earlier instants can no
    longer matter, which is what makes the folding safe.

    * :meth:`place` gives a batch sealed at ``s`` the earliest instant at
      or after ``max(s, free time)`` at which a device is up, over all
      devices, ties to the lowest index -- the reference loop's
      event-time dispatch.  A placement that starts and finishes before
      ``nda`` touches no outage, so the prefill core places those with
      the fault-free kernel and the free times alone.
    * :meth:`run` books a placed batch, or its loss when the device's
      next outage begins before the batch finishes, with the reference
      device's float expressions
      (:meth:`~repro.serving.devices.SprintDevice.lose_step_batch`).
    * :meth:`retry_or_drop` applies the :class:`RetryPolicy` to one
      member of a lost batch, and :meth:`drop` logs a drop.  Both logs
      are keyed so that sorting them gives the reference's event order.
    """

    def __init__(self, faults: FaultSchedule, retry: RetryPolicy):
        self.traces = faults.traces
        self.retry = retry
        num_devices = len(faults)
        self.free_at = [0.0] * num_devices
        self.busy_s = [0.0] * num_devices
        self.energy_pj = [0.0] * num_devices
        self.ptr = [0] * num_devices
        self._absorb(0.0)
        self.retries = self.failed_batches = 0
        self.wasted_energy_pj = 0.0
        #: (key, row, reason code, instant, lost attempts) per drop; the
        #: decode core drains it at every flush.
        self.drops: list = []
        self.dropped_by_reason = dict.fromkeys(DROP_REASON_NAMES.values(), 0)
        #: (key, (request id, retry instant, attempt number, model name)).
        self.retry_log: list = []

    def _absorb(self, x: float) -> None:
        """Raise each device's free time to its first up instant at or
        after ``x``, the start of the batch just placed, then refresh
        ``nda``."""
        nda = _INF
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

    def place(self, sealed: float) -> Tuple[float, int]:
        """Start and device of a batch sealed at ``sealed``; device -1
        (start inf) when the fleet never comes back."""
        best = _INF
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

    def run(self, device: int, start: float, service: float, energy: float):
        """Book the batch :meth:`place` just put on ``device`` at
        ``start``; ``energy`` is the whole batch's.  Returns the failure
        instant if the device dies mid-batch, else None.

        A lost batch occupies its device until the failure, and its
        partial energy is wasted, not delivered.
        """
        finish = start + service
        trace = self.traces[device]
        k = self.ptr[device]
        fail = trace.down_s[k] if k < len(trace) else _INF
        if fail < finish:
            lost = fail - start
            self.free_at[device] = trace.up_s[k]
            self.ptr[device] = k + 1
            self._absorb(start)
            self.busy_s[device] += lost
            self.wasted_energy_pj += energy * (lost / service)
            self.failed_batches += 1
            return fail
        self.free_at[device] = finish
        self.busy_s[device] += service
        self.energy_pj[device] += energy
        return None

    def drop(self, key: tuple, row: int, reason: int, at: float, attempts: int) -> None:
        """Log one dropped request: its stream row, reason code, drop
        instant and lost attempts."""
        self.drops.append((key, row, reason, at, attempts))
        self.dropped_by_reason[DROP_REASON_NAMES[reason]] += 1

    def retry_or_drop(
        self, key: tuple, row: int, failures: int, deadline_s: float, request_id, model
    ) -> Optional[float]:
        """One member of a batch lost at ``key[0]``, its ``failures``-th
        loss: returns its retry instant, or None if it drops.

        ``key`` -- (failure instant, the lost batch's rank in its
        engine's event order, member index) -- orders both logs, and
        ``deadline_s`` is the request's absolute deadline (inf if none).
        """
        fail = key[0]
        if failures >= self.retry.max_attempts:
            self.drop(key, row, DROP_RETRIES, fail, failures)
            return None
        retry_at = fail + self.retry.backoff_s(failures)
        if retry_at > deadline_s:
            self.drop(key, row, DROP_DEADLINE, fail, failures)
            return None
        self.retries += 1
        self.retry_log.append((key, (request_id, retry_at, failures + 1, model)))
        return retry_at

    def retry_events(self) -> list:
        """The scheduled retries, in the reference's event order."""
        return [event for _, event in sorted(self.retry_log)]

    def totals(self, start_s: float, end_s: float) -> dict:
        """The fault totals of a finished run over ``[start_s, end_s]``,
        as :class:`~repro.serving.engine.StreamedServingResult` fields."""
        return dict(
            dropped=sum(self.dropped_by_reason.values()),
            dropped_by_reason=self.dropped_by_reason,
            retries=self.retries,
            failed_batches=self.failed_batches,
            wasted_energy_pj=self.wasted_energy_pj,
            device_downtime_s=[
                trace.downtime_within(start_s, end_s) for trace in self.traces
            ],
        )


def _drop_columns(drops, n: int, retry_events) -> dict:
    """A fault-mode table run's per-row drop columns and its retry events.

    ``drops`` lists (row, reason code, instant, ...) in drop order, and
    ``n`` is the table's row count.
    """
    drop_order = np.array([drop[0] for drop in drops], dtype=np.int64)
    drop_reason = np.zeros(n, dtype=np.int8)
    drop_reason[drop_order] = [drop[1] for drop in drops]
    dropped_s = np.full(n, np.nan)
    dropped_s[drop_order] = [drop[2] for drop in drops]
    return dict(
        drop_reason=drop_reason,
        dropped_s=dropped_s,
        drop_order=drop_order,
        retry_events=list(retry_events),
    )


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
) -> ColumnarServingResult:
    """:func:`~repro.serving.engine.simulate_table` under ``faults``.

    Kept for its name; ``simulate_table(..., faults=, retry=)`` is the
    entry point.  ``retry=None`` means the default :class:`RetryPolicy`.
    """
    from repro.serving.engine import _drive_table

    knobs = (cost_model, num_devices, max_batch_size, max_wait_s, setup_cycles)
    return _drive_table(table, knobs, recorder, faults, retry, decode=False)


def simulate_faulty_stream(
    chunks,
    cost_model: ServiceCostModel,
    faults: FaultSchedule,
    retry: Optional[RetryPolicy] = None,
    num_devices: int = 1,
    max_batch_size: int = 8,
    max_wait_s: float = 2e-3,
    setup_cycles: int = DEFAULT_SETUP_CYCLES,
    sink: Optional[Callable[[CompletedChunk], None]] = None,
) -> StreamedServingResult:
    """:func:`~repro.serving.engine.simulate_stream` under ``faults``.

    Kept for its name; ``simulate_stream(..., faults=, retry=)`` is the
    entry point.  A stream runs the core its concatenated table would:
    prefill chunks the prefill core, generative ones the decode core.
    Chunking never changes the computation, so totals and per-request
    values are bitwise equal to :func:`simulate_faulty_table` on the
    concatenated stream at any chunk size.
    """
    from repro.serving.engine import _drive_stream

    knobs = (cost_model, num_devices, max_batch_size, max_wait_s, setup_cycles)
    return _drive_stream(chunks, knobs, sink, faults, retry, decode=False)
