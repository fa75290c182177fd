"""Serving metrics: throughput, utilization, tail latency, SLA checks.

Mirrors the reporting style of :mod:`repro.core.results`: a dataclass
per aggregate with derived properties and a ``describe()`` that prints
the table rows the serving experiments lead with.

:func:`summarize` folds either representation of a run -- the
reference loop's object-based :class:`~repro.serving.scheduler.
ServingResult` / :class:`~repro.serving.scheduler.GenerativeResult`
or the columnar engines' :class:`~repro.serving.engine.
ColumnarServingResult` (prefill, generative, or fault-mode alike) --
into the same :class:`ServingReport`.  The columnar path computes
latency/wait/violation statistics directly from the result's columns
(no per-request objects); both paths evaluate the same floating-point
expressions over the same values in the same order, so an equivalent
run summarizes to an identical report.

``summarize(..., exact=False)`` swaps the percentile computation onto
:class:`~repro.obs.streaming.StreamingHistogram` sketches -- the
memory-O(1) path for fleet-scale streams, where per-request latency
columns must never be sorted (or, eventually, materialized) whole.
The sketch's p50/p95/p99 carry its documented relative error bound
(:attr:`~repro.obs.streaming.StreamingHistogram.rel_error_bound`,
~0.9% at the default resolution) vs the exact order statistics;
``mean``/``max``/counts stay exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Union

import numpy as np

from repro.obs.streaming import Counter, StreamingHistogram
from repro.serving.devices import DEFAULT_SETUP_CYCLES, ServiceCostModel
from repro.serving.engine import ColumnarServingResult, simulate_stream
from repro.serving.requests import RequestTable
from repro.serving.scheduler import GenerativeResult, ServingResult


@dataclass(frozen=True)
class LatencyStats:
    """Percentile summary of one latency population (seconds)."""

    mean_s: float
    p50_s: float
    p95_s: float
    p99_s: float
    max_s: float

    @classmethod
    def from_samples(cls, samples) -> "LatencyStats":
        # Arrays pass through unboxed (the columnar path hands in whole
        # float64 columns); lists/generators still materialize.
        if not isinstance(samples, np.ndarray):
            samples = list(samples)
        arr = np.asarray(samples, dtype=np.float64)
        if arr.size == 0:
            # A run where zero requests complete (load far beyond SLA
            # capacity) must produce a degenerate report, not crash the
            # capacity sweep probing for the overload point.
            nan = float("nan")
            return cls(nan, nan, nan, nan, nan)
        p50, p95, p99 = np.percentile(arr, [50.0, 95.0, 99.0])
        return cls(
            mean_s=float(arr.mean()),
            p50_s=float(p50),
            p95_s=float(p95),
            p99_s=float(p99),
            max_s=float(arr.max()),
        )

    @classmethod
    def from_sketch(cls, sketch: StreamingHistogram) -> "LatencyStats":
        """Percentiles from a streaming sketch (O(buckets) memory).

        p50/p95/p99 carry the sketch's documented relative error bound
        (:attr:`~repro.obs.streaming.StreamingHistogram.
        rel_error_bound`); ``mean`` and ``max`` are tracked exactly.
        An empty sketch yields the same NaN-filled degenerate stats as
        an empty sample population.
        """
        return cls(
            mean_s=sketch.mean,
            p50_s=sketch.quantile(50.0),
            p95_s=sketch.quantile(95.0),
            p99_s=sketch.quantile(99.0),
            max_s=sketch.max,
        )


@dataclass
class ServingReport:
    """One (config, mode, arrival pattern, load) serving outcome."""

    config: str
    mode: str
    pattern: str
    offered_rps: float
    requests: int
    duration_s: float
    latency: LatencyStats
    queue_wait: LatencyStats
    throughput_rps: float
    #: Mean busy fraction across devices over the run's span.
    utilization: float
    mean_batch_size: float
    energy_uj: float
    sla_s: Optional[float] = None
    sla_violations: int = 0
    #: Generative runs only (``None``/0 for prefill-only traffic, so
    #: legacy report equality is untouched): time-to-first-token and
    #: time-between-tokens populations, and total tokens generated.
    ttft: Optional[LatencyStats] = None
    tbt: Optional[LatencyStats] = None
    total_tokens: int = 0
    #: Fault-injection accounting.  The defaults describe a fault-free
    #: run, so legacy report construction and equality are untouched.
    faulted: bool = False
    dropped_requests: int = 0
    #: Dropped counts keyed by reason ('retries', 'deadline',
    #: 'stranded'); empty on fault-free runs.
    dropped_by_reason: dict = field(default_factory=dict)
    #: Retry dispatches the fault layer scheduled.
    retries: int = 0
    #: Completed requests that needed at least one retry.
    retried_completed: int = 0
    #: Batches lost to mid-execution device failures.
    failed_batches: int = 0
    #: Energy spent on lost (never-delivered) batch work.
    wasted_energy_uj: float = 0.0
    #: Mean fleet uptime fraction over the run span (1.0 without
    #: faults).
    availability: float = 1.0
    #: Latency population of completed requests that needed >= 2
    #: attempts (``None`` on fault-free runs).
    retried_latency: Optional[LatencyStats] = None

    @property
    def generative(self) -> bool:
        return self.ttft is not None

    @property
    def offered_requests(self) -> int:
        """Requests that entered the system: completed plus dropped."""
        return self.requests + self.dropped_requests

    @property
    def goodput_rps(self) -> float:
        """Completed-request rate -- the degraded-fleet reading of
        throughput (drops never count; compare against
        ``offered_rps`` for the loss to failures)."""
        return self.throughput_rps

    @property
    def drop_rate(self) -> float:
        offered = self.offered_requests
        return self.dropped_requests / offered if offered else 0.0

    @property
    def tokens_per_s(self) -> float:
        if self.duration_s <= 0:
            return 0.0
        return self.total_tokens / self.duration_s

    @property
    def energy_uj_per_token(self) -> float:
        if self.total_tokens == 0:
            return 0.0
        return self.energy_uj / self.total_tokens

    @property
    def sla_violation_rate(self) -> float:
        return self.sla_violations / self.requests if self.requests else 0.0

    def meets_sla(self) -> bool:
        """p99 within the SLA (the criterion the sweeps rank loads by)."""
        if self.sla_s is None:
            return True
        return self.latency.p99_s <= self.sla_s

    def describe(self) -> str:
        lines = [
            f"{self.config} / {self.mode} / {self.pattern} "
            f"@ {self.offered_rps:,.1f} rps:",
            f"  requests          : {self.requests:,} "
            f"over {self.duration_s:,.2f} s",
            f"  throughput        : {self.throughput_rps:,.1f} rps",
            f"  utilization       : {self.utilization:.1%}",
            f"  latency p50/p95/p99: "
            f"{self.latency.p50_s * 1e3:,.2f} / "
            f"{self.latency.p95_s * 1e3:,.2f} / "
            f"{self.latency.p99_s * 1e3:,.2f} ms",
            f"  queue wait p50/p99: "
            f"{self.queue_wait.p50_s * 1e3:,.2f} / "
            f"{self.queue_wait.p99_s * 1e3:,.2f} ms",
            f"  mean batch size   : {self.mean_batch_size:.2f}",
            f"  energy            : {self.energy_uj:,.1f} uJ",
        ]
        if self.generative:
            lines.extend(
                [
                    f"  tokens            : {self.total_tokens:,} "
                    f"({self.tokens_per_s:,.1f} tok/s, "
                    f"{self.energy_uj_per_token:.3f} uJ/tok)",
                    f"  TTFT p50/p99      : "
                    f"{self.ttft.p50_s * 1e3:,.2f} / "
                    f"{self.ttft.p99_s * 1e3:,.2f} ms",
                    f"  TBT p50/p99       : "
                    f"{self.tbt.p50_s * 1e3:,.2f} / "
                    f"{self.tbt.p99_s * 1e3:,.2f} ms",
                ]
            )
        if self.faulted:
            reasons = (
                ", ".join(
                    f"{name}={count:,}"
                    for name, count in sorted(self.dropped_by_reason.items())
                    if count
                )
                or "none"
            )
            lines.extend(
                [
                    f"  availability      : {self.availability:.1%}",
                    f"  goodput           : {self.goodput_rps:,.1f} rps "
                    f"({self.requests:,}/{self.offered_requests:,} offered)",
                    f"  dropped           : {self.dropped_requests:,} ({reasons})",
                    f"  retries           : {self.retries:,} "
                    f"({self.retried_completed:,} completed after retry)",
                    f"  lost batches      : {self.failed_batches:,} "
                    f"({self.wasted_energy_uj:,.1f} uJ wasted)",
                ]
            )
        if self.sla_s is not None:
            lines.append(
                f"  SLA {self.sla_s * 1e3:,.1f} ms     : "
                f"{self.sla_violations:,} violations "
                f"({self.sla_violation_rate:.2%})"
            )
        return "\n".join(lines)


def summarize(
    result: Union[ServingResult, GenerativeResult, ColumnarServingResult],
    config: str,
    mode: str,
    pattern: str,
    offered_rps: float,
    sla_s: Optional[float] = None,
    exact: bool = True,
) -> ServingReport:
    """Fold one run (object-based or columnar) into a report.

    ``exact=False`` computes the latency and queue-wait percentiles
    from :class:`~repro.obs.streaming.StreamingHistogram` sketches
    instead of ``np.percentile`` over the full columns -- O(buckets)
    working memory and a single vectorized pass, the summarization
    path sized for the ROADMAP's 10^8-request runs.  Throughput,
    utilization, energy, violation counts, ``mean``, and ``max`` are
    identical either way; p50/p95/p99 differ from the exact report by
    at most the sketch's documented relative error bound.

    Generative results (reference or columnar) additionally fill the
    ``ttft``/``tbt``/``total_tokens`` fields; for them ``latency`` is
    arrival-to-last-token, SLA violations stay on that end-to-end
    latency, and ``mean_batch_size`` is mean *step*-batch occupancy
    (total token steps over step batches).  TBT percentiles cover the
    multi-token requests (single-token requests have no decode gaps).

    Fault-mode results (a run with a fault schedule, columnar or
    reference) also fill the degraded-fleet fields: drops by reason,
    retry counts, lost-batch energy, availability, and the latency
    population of retried completions.  ``requests`` / ``throughput``
    then cover *completed* requests only (goodput); compare against
    :attr:`ServingReport.offered_requests` for the loss.
    """
    ttfts = tbts = sizes = attempts = None
    if isinstance(result, ColumnarServingResult):
        # Array-native: every population is a vector op over the
        # result's columns.  Dropped rows (fault mode) are masked out
        # only when there are some, so a full run copies nothing.
        keep = result.drop_reason == 0 if result.dropped else slice(None)
        generative = result.generative
        faulted = result.faulted
        latencies = result.latency_s[keep]
        waits = result.queue_wait_s[keep]
        if generative:
            ttfts = result.ttft_s[keep]
            tbts = result.tbt_s[keep]
        else:
            sizes = result.batch_size[keep]
        if faulted:
            attempts = result.attempts[keep]
    else:
        records = result.records
        generative = isinstance(result, GenerativeResult)
        # A reference result's ``device_downtime_s`` is non-empty
        # exactly on fault runs.
        faulted = bool(result.device_downtime_s)
        latencies = np.array([rec.latency_s for rec in records], dtype=np.float64)
        waits = np.array([rec.queue_wait_s for rec in records], dtype=np.float64)
        if generative:
            ttfts = np.array([rec.ttft_s for rec in records], dtype=np.float64)
            tbts = np.array([rec.tbt_s for rec in records], dtype=np.float64)
        else:
            sizes = np.array([rec.batch_size for rec in records], dtype=np.int64)
        if faulted:
            attempts = np.array([rec.attempts for rec in records], dtype=np.int64)
    if generative:
        tbts = tbts[np.isfinite(tbts)]
        mean_batch = result.total_tokens / result.batches if result.batches else 0.0
    else:
        mean_batch = float(np.mean(sizes)) if sizes.size else 0.0
    violations = int(np.count_nonzero(latencies > sla_s)) if sla_s is not None else 0

    def _stats(samples) -> LatencyStats:
        if exact:
            return LatencyStats.from_samples(samples)
        sketch = StreamingHistogram()
        sketch.add_many(samples)
        return LatencyStats.from_sketch(sketch)

    fault_counts = None
    if faulted:
        retried_lat = latencies[attempts >= 2]
        dropped_by_reason = dict(result.dropped_by_reason)
        fault_counts = (dropped_by_reason, int(retried_lat.size), _stats(retried_lat))
    return _report(
        result,
        dict(config=config, mode=mode, pattern=pattern, offered_rps=offered_rps),
        sla_s,
        _stats(latencies),
        _stats(waits),
        _stats(ttfts) if generative else None,
        _stats(tbts) if generative else None,
        mean_batch,
        violations,
        fault_counts,
    )


def summarize_stream(
    chunks: Iterable[RequestTable],
    cost_model: ServiceCostModel,
    config: str,
    mode: str,
    pattern: str,
    offered_rps: float,
    sla_s: Optional[float] = None,
    num_devices: int = 1,
    max_batch_size: int = 8,
    max_wait_s: float = 2e-3,
    setup_cycles: int = DEFAULT_SETUP_CYCLES,
    faults=None,
    retry=None,
) -> ServingReport:
    """Simulate a chunked stream and summarize it in O(1) memory.

    Drives :func:`~repro.serving.engine.simulate_stream` over the
    chunks (e.g. a :class:`~repro.serving.stream.RequestStream`) and
    folds every completed chunk's latency / queue-wait / batch-size
    columns straight into :class:`~repro.obs.streaming.
    StreamingHistogram` sketches and exact counters, so a 10^8-request
    run holds one chunk plus fixed-size sketches -- never a full
    per-request column.

    Relative to the exact whole-table ``summarize``: ``requests``,
    ``duration``, ``throughput``, ``utilization``, ``energy``,
    ``mean_batch_size``, and SLA violation counts are identical (the
    underlying run is bitwise equal and the folds are exact);
    latency/queue-wait p50/p95/p99 carry the sketch's documented
    relative error bound (~0.9% at default resolution), and their
    ``mean`` differs only by float summation order.

    Generative streams fold TTFT and TBT into their own sketches the
    same way (TBT over multi-token requests), so the decode-phase tail
    percentiles also come out of O(1) memory.

    A ``faults`` schedule runs the decode engine's stream driver with
    its fault hook; the report then carries the degraded-fleet fields
    and a retried-completion latency sketch built by merging one small
    per-chunk sketch per flush (most are empty -- the merge is a
    no-op on them).  Every chunk is one :class:`~repro.serving.engine.
    CompletedChunk`; its ``generative`` flag and ``attempts`` column
    pick the folds.
    """
    latency_sketch = StreamingHistogram()
    wait_sketch = StreamingHistogram()
    ttft_sketch = StreamingHistogram()
    tbt_sketch = StreamingHistogram()
    retried_sketch = StreamingHistogram()
    retried_counter = Counter("retried_completed")
    batch_size_sum = 0
    violations = 0
    generative = False

    def _fold(completed) -> None:
        nonlocal batch_size_sum, violations, generative
        latencies = completed.latency_s
        latency_sketch.add_many(latencies)
        wait_sketch.add_many(completed.queue_wait_s)
        if completed.attempts is not None:
            retried = completed.attempts >= 2
            # Per-chunk sketch merged in: chunks with zero retried
            # completions merge an empty sketch (and inc the counter
            # by 0) -- pinned edge cases of the streaming primitives.
            local = StreamingHistogram()
            local.add_many(latencies[retried])
            retried_sketch.merge(local)
            retried_counter.inc(int(np.count_nonzero(retried)))
        if completed.generative:
            generative = True
            ttft_sketch.add_many(completed.ttft_s)
            tbt = completed.tbt_s
            tbt_sketch.add_many(tbt[np.isfinite(tbt)])
        else:
            # Integer fold: exact, and equal to np.mean's float sum for
            # any realistic stream (batch sizes sum far below 2**53).
            batch_size_sum += int(np.sum(completed.batch_size))
        if sla_s is not None:
            violations += int(np.count_nonzero(latencies > sla_s))

    result = simulate_stream(
        chunks,
        cost_model,
        num_devices=num_devices,
        max_batch_size=max_batch_size,
        max_wait_s=max_wait_s,
        setup_cycles=setup_cycles,
        sink=_fold,
        faults=faults,
        retry=retry,
    )
    if generative:
        mean_batch = result.total_tokens / result.batches if result.batches else 0.0
    else:
        mean_batch = batch_size_sum / result.completed if result.completed else 0.0
    fault_counts = None
    if result.faulted:
        retried = LatencyStats.from_sketch(retried_sketch)
        fault_counts = (dict(result.dropped_by_reason), retried_counter.value, retried)
    return _report(
        result,
        dict(config=config, mode=mode, pattern=pattern, offered_rps=offered_rps),
        sla_s,
        LatencyStats.from_sketch(latency_sketch),
        LatencyStats.from_sketch(wait_sketch),
        LatencyStats.from_sketch(ttft_sketch) if generative else None,
        LatencyStats.from_sketch(tbt_sketch) if generative else None,
        mean_batch,
        violations,
        fault_counts,
    )


def _report(
    result,
    labels: dict,
    sla_s: Optional[float],
    latency: LatencyStats,
    queue_wait: LatencyStats,
    ttft: Optional[LatencyStats],
    tbt: Optional[LatencyStats],
    mean_batch: float,
    violations: int,
    fault_counts: Optional[tuple],
) -> ServingReport:
    """The report builder of :func:`summarize` and :func:`summarize_stream`.

    ``labels`` holds config, mode, pattern and offered rate.  ``ttft``
    and ``tbt`` are set on generative runs only, and ``fault_counts``
    (drops by reason, retried completions, their latency stats) under
    a fault schedule only.
    """
    duration = result.duration_s
    span = duration if duration > 0 else float("inf")
    busy = np.asarray(result.device_busy_s, dtype=np.float64)
    fault_kwargs: dict = {}
    if fault_counts is not None:
        dropped_by_reason, retried_completed, retried_latency = fault_counts
        downtime = np.asarray(result.device_downtime_s, dtype=np.float64)
        fault_kwargs = dict(
            faulted=True,
            dropped_requests=sum(dropped_by_reason.values()),
            dropped_by_reason=dropped_by_reason,
            retries=result.retries,
            retried_completed=retried_completed,
            failed_batches=result.failed_batches,
            wasted_energy_uj=result.wasted_energy_pj / 1e6,
            availability=(
                float(1.0 - np.mean(downtime / span)) if downtime.size else 1.0
            ),
            retried_latency=retried_latency,
        )
    return ServingReport(
        **labels,
        requests=result.completed,
        duration_s=duration,
        latency=latency,
        queue_wait=queue_wait,
        throughput_rps=result.completed / span,
        utilization=float(np.mean(busy / span)) if busy.size else 0.0,
        mean_batch_size=mean_batch,
        energy_uj=float(sum(result.device_energy_pj)) / 1e6,
        sla_s=sla_s,
        sla_violations=violations,
        ttft=ttft,
        tbt=tbt,
        total_tokens=result.total_tokens if ttft is not None else 0,
        **fault_kwargs,
    )
