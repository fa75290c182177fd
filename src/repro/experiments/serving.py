"""Serving study: load vs tail latency across execution modes.

Not a paper figure -- this is the ROADMAP's production-serving
extension.  For each arrival pattern (Poisson, bursty/MMPP, trace
replay) and each execution mode, a load sweep runs the same request
stream through the serving simulator and reports throughput, device
utilization, and p50/p95/p99 latency.  The headline derived metric is
*serving headroom*: the highest offered load each mode sustains while
keeping p99 latency within the SLA -- SPRINT's pruning shortens service
times, which compounds through queueing into disproportionate headroom.

The sweep is shardable: every (pattern, mode, load) point is an
independent :class:`ServingPoint` on the runtime's WorkUnit protocol
(``plan``/``prime``/``clear_primed``), so ``sprint-experiments serving
--jobs N`` spreads the points across worker processes.  Each point's
request stream is seeded by a stable hash of (experiment seed, pattern)
-- never by worker identity or enumeration order -- so artifacts are
byte-identical for every ``--jobs`` value.  Points group by mode so a
worker shard warms exactly one
:func:`~repro.serving.devices.shared_cost_model`.

Each point runs through the columnar fast engine
(:func:`repro.serving.engine.simulate_table`) by default -- exactly
equal, record for record, to the per-request reference loop
(``engine="reference"``) but batch-granular, which is what lets the
full sweep default to ``requests_per_point=4000`` (~10x the historical
traffic) at similar wall time.

This module also holds the kernel all three serving studies share:
``serving``, :mod:`~repro.experiments.decode` and
:mod:`~repro.experiments.resilience` are grids of :class:`ServingPoint`
built by a :class:`ServingStudy`, and :func:`simulate_point` runs any
point -- request table or out-of-core stream, cost priming, the engine
choice, the trace file and the summary.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, ClassVar, Dict, List, Optional, Sequence, Tuple

from repro.core.configs import S_SPRINT, SprintConfig
from repro.core.system import ExecutionMode
from repro.experiments.primed import Primed
from repro.obs import telemetry
from repro.obs.trace import TraceConfig, TraceRecorder
from repro.serving.arrivals import (
    ArrivalProcess,
    BurstyProcess,
    PoissonProcess,
    TraceProcess,
    generate_request_table,
)
from repro.serving.batching import ContinuousBatcher
from repro.serving.devices import SprintDevice, shared_cost_model
from repro.serving.engine import simulate_table
from repro.serving.faults import FaultSchedule, RetryPolicy
from repro.serving.metrics import ServingReport, summarize, summarize_stream
from repro.serving.scheduler import GenerativeServingSimulator, ServingSimulator
from repro.serving.stream import RequestStream

DEFAULT_MODES = (
    ExecutionMode.BASELINE,
    ExecutionMode.PRUNING_ONLY,
    ExecutionMode.SPRINT,
)
DEFAULT_PATTERNS = ("poisson", "bursty", "trace")
DEFAULT_LOADS = (10.0, 20.0, 40.0, 80.0, 160.0)
#: Stream length per sweep point.  Sized for the columnar fast engine:
#: ~10x the traffic the per-request loop used to walk, at similar wall
#: time per point.
DEFAULT_REQUESTS_PER_POINT = 4000
#: Point engines: ``"fast"`` (columnar), ``"reference"`` (per-request
#: event loop), ``"stream"`` (out-of-core chunks).
ENGINES = ("fast", "reference", "stream")
#: Named retry policies a faulted point's ``policy`` selects.  ``none``
#: drops a request on its first lost batch; the others re-admit with
#: exponential backoff up to the attempt budget.
RETRY_POLICIES: Dict[str, RetryPolicy] = {
    "none": RetryPolicy(max_attempts=1),
    "bounded": RetryPolicy(max_attempts=3, backoff_base_s=1e-3),
    "patient": RetryPolicy(max_attempts=6, backoff_base_s=1e-3),
}
#: Fault-schedule horizon as a multiple of the nominal stream span
#: (count / load); outages starting past it are not materialized, so a
#: heavily backlogged tail runs fault-free -- acceptable for a sweep
#: whose traffic is sized to drain well inside the horizon.
_HORIZON_SPANS = 4.0


def stream_seed(seed: int, pattern: str) -> int:
    """Deterministic request-stream seed for one (experiment, pattern).

    A stable hash of the pattern *name* (not its index in some tuple,
    which would make every unknown pattern collide on the same seed).
    The mode and the offered load are deliberately excluded: every mode
    faces byte-identical traffic at each (pattern, load) point, which
    is what makes the cross-mode headroom comparison fair.
    """
    digest = hashlib.sha256(f"{seed}:{pattern}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1  # non-negative 63-bit


@dataclass(frozen=True)
class ServingRow:
    """One (pattern, mode, offered load) point of the sweep."""

    pattern: str
    mode: str
    offered_rps: float
    throughput_rps: float
    utilization: float
    p50_ms: float
    p95_ms: float
    p99_ms: float
    sla_violation_rate: float
    mean_batch_size: float
    meets_sla: bool


def make_process(pattern: str, rate_rps: float) -> ArrivalProcess:
    """Instantiate one of the three arrival patterns at a mean rate.

    The bursty and trace processes are parameterized so their long-run
    mean matches ``rate_rps``, keeping the sweep iso-load across
    patterns.
    """
    if rate_rps <= 0:
        raise ValueError("rate_rps must be positive")
    if pattern == "poisson":
        return PoissonProcess(rate_rps=rate_rps)
    if pattern == "bursty":
        # Calm at 0.6x for 0.8 s, burst at 2.6x for 0.2 s -> mean 1.0x.
        return BurstyProcess(
            calm_rate_rps=0.6 * rate_rps,
            burst_rate_rps=2.6 * rate_rps,
            calm_dwell_s=0.8,
            burst_dwell_s=0.2,
        )
    if pattern == "trace":
        # A diurnal-style recorded profile replayed around the mean:
        # harmonic mean of the segment rates equals rate_rps.
        profile = [0.5, 1.0, 2.0, 1.0]
        k = sum(1.0 / f for f in profile) / len(profile)
        return TraceProcess.from_rate_profile(
            [f * rate_rps * k for f in profile], requests_per_segment=25
        )
    raise KeyError(f"unknown arrival pattern {pattern!r}")


def deadline_window(
    deadline_range_s: Optional[Sequence[float]],
) -> Optional[Tuple[float, float]]:
    """A deadline window as a hashable ``(lo, hi)`` tuple of floats.

    Studies take the window from kwargs, where it may arrive as a list
    (JSON, the CLI registry); unit keys must hash, so every place that
    stores one normalises it here.
    """
    if deadline_range_s is None:
        return None
    lo, hi = deadline_range_s
    return (float(lo), float(hi))


@dataclass(frozen=True)
class ServingPoint:
    """One serving-study point as a runtime WorkUnit.

    Traffic is ``num_requests`` requests for ``model`` from ``pattern``
    at ``rate_rps``, drawn under ``stream_seed`` (generative when
    ``mean_output_tokens`` is set; ``deadline_range_s`` adds per-request
    deadlines; ``sla_ms`` is the latency target the report counts
    against).  The fleet is ``num_devices`` chips batching up to
    ``max_batch_size`` requests within ``max_wait_ms``.  An ``mtbf_s``
    runs the fleet under a seeded outage schedule with ``mttr_s``
    repairs and the named retry ``policy``.  ``study`` and ``label``
    name the point's trace file.

    ``key`` is the fields themselves -- the config by *field values*,
    so a modified config with an unchanged name never replays another
    config's cached results -- so it both deduplicates identical points
    and content-addresses the unit-granularity result cache.  Points
    group by (study, config, mode, pattern, policy), so a worker shard
    warms exactly one shared cost model.
    """

    study: str
    label: str
    model: str
    config: SprintConfig
    mode: str
    engine: str
    len_bucket: int
    seed: int
    pattern: str
    rate_rps: float
    num_requests: int
    stream_seed: int
    num_devices: int
    max_batch_size: int
    max_wait_ms: float
    mean_output_tokens: Optional[float] = None
    deadline_range_s: Optional[Tuple[float, float]] = None
    sla_ms: Optional[float] = None
    mtbf_s: Optional[float] = None
    mttr_s: Optional[float] = None
    policy: Optional[str] = None

    def __post_init__(self):
        object.__setattr__(
            self, "deadline_range_s", deadline_window(self.deadline_range_s)
        )

    @property
    def key(self) -> Tuple:
        return dataclasses.astuple(self)

    @property
    def group(self) -> Tuple:
        return (self.study, self.config.name, self.mode, self.pattern, self.policy)

    def execute(self) -> ServingReport:
        return simulate_point(self)


def _trace_recorder() -> Optional[TraceRecorder]:
    """A recorder when the active telemetry asks for traces.

    Tracing rides on the runner's ``--trace-out`` flag: the installed
    :class:`~repro.obs.telemetry.RunTelemetry` carries the output
    directory and the head/stride sampling knobs.  Worker processes
    fork with the parent's telemetry, so sharded sweep points trace
    exactly like serial ones.
    """
    tele = telemetry.get_telemetry()
    if tele is None or tele.trace_dir is None:
        return None
    return TraceRecorder(TraceConfig(head=tele.trace_head, stride=tele.trace_stride))


def simulate_point(point: ServingPoint) -> ServingReport:
    """One point, summarized.

    ``engine="fast"`` (the default) runs the point's request table
    through :func:`~repro.serving.engine.simulate_table`: the chunked
    prefill core, with its outage-aware dispatch under faults, or the
    decode core for generative tables.  ``"reference"`` walks the
    per-request event loop instead; both produce identical reports --
    the reference exists to define the semantics and for equivalence
    testing.  ``"stream"`` runs the same point out-of-core: a chunked
    :class:`~repro.serving.stream.RequestStream` through
    :func:`~repro.serving.metrics.summarize_stream`, holding one chunk
    plus fixed-size sketches instead of the whole table -- identical
    exact aggregates, sketch-bounded percentiles, no trace file and no
    deadline column.
    """
    process = make_process(point.pattern, point.rate_rps)
    # One memoized cost model per (config, mode), shared process-wide:
    # the whole sweep, and every point a worker executes, warm the same
    # buckets.
    cost = shared_cost_model(
        point.config, ExecutionMode(point.mode),
        len_bucket=point.len_bucket, seed=point.seed,
    )
    faults = retry = None
    if point.mtbf_s is not None:
        # Seeded per device (not per fleet size): growing the fleet
        # adds devices without re-rolling the existing ones' outages.
        horizon_s = _HORIZON_SPANS * point.num_requests / point.rate_rps
        faults = FaultSchedule.exponential(
            point.num_devices, point.mtbf_s, point.mttr_s, horizon_s,
            seed=point.seed,
        )
        retry = RETRY_POLICIES[point.policy]
    max_wait_s = point.max_wait_ms * 1e-3
    summary = dict(
        config=point.config.name,
        mode=point.mode,
        pattern=point.pattern,
        offered_rps=process.mean_rate_rps,
        sla_s=None if point.sla_ms is None else point.sla_ms * 1e-3,
    )
    fleet = dict(
        num_devices=point.num_devices,
        max_batch_size=point.max_batch_size,
        max_wait_s=max_wait_s,
        faults=faults,
        retry=retry,
    )
    if point.engine == "stream":
        # Never materializes the whole table, so there is no table to
        # prime from or trace (request traces would defeat the
        # fixed-memory contract anyway).  The cost model warms its
        # length buckets lazily per chunk.
        stream = RequestStream(
            process,
            point.model,
            count=point.num_requests,
            seed=point.stream_seed,
            mean_output_tokens=point.mean_output_tokens,
        )
        return summarize_stream(stream, cost, **summary, **fleet)
    table = generate_request_table(
        process,
        point.model,
        count=point.num_requests,
        seed=point.stream_seed,
        mean_output_tokens=point.mean_output_tokens,
        deadline_range_s=point.deadline_range_s,
    )
    # Warm every length bucket the stream touches up front (one batched
    # cycle-model pass per bucket, shared across points); decode
    # buckets derive from the same entries (contexts stay in seq_len).
    cost.prime(table.specs[0], table.valid_len)
    recorder = _trace_recorder()
    if point.engine == "fast":
        result = simulate_table(table, cost, recorder=recorder, **fleet)
    else:
        devices = [SprintDevice(i, cost) for i in range(point.num_devices)]
        batcher = ContinuousBatcher(
            max_batch_size=point.max_batch_size, max_wait_s=max_wait_s
        )
        simulator = (
            ServingSimulator
            if point.mean_output_tokens is None
            else GenerativeServingSimulator
        )
        result = simulator(
            devices, batcher, recorder, faults=faults, retry=retry
        ).run(table.to_requests())
    if recorder is not None:
        recorder.write(
            Path(telemetry.get_telemetry().trace_dir)
            / f"{point.study}-{point.label}.json"
        )
    return summarize(result, **summary)


@dataclass(frozen=True, kw_only=True)
class ServingStudy:
    """The knobs every serving study shares, and its kwargs split.

    A study is a grid of :class:`ServingPoint`: its ``points(**grid)``
    enumerates them in row order and its ``run(**grid)`` turns them
    into rows.  The module-level ``plan(**kwargs)`` and
    ``run(**kwargs)`` both resolve their kwargs through :meth:`split`,
    so ``run`` aggregates exactly ``plan``'s points by construction.
    """

    study: ClassVar[str]
    model: str = "BERT-B"
    config: SprintConfig = S_SPRINT
    max_batch_size: int = 8
    max_wait_ms: float = 10.0
    len_bucket: int = 32
    seed: int = 0
    engine: str = "fast"

    def __post_init__(self):
        if self.engine not in ENGINES:
            raise ValueError(f"unknown engine {self.engine!r}")

    @classmethod
    def split(cls, kwargs: Dict[str, Any]) -> Tuple["ServingStudy", Dict[str, Any]]:
        """``(cls(**the kwargs naming its fields), the grid kwargs)``."""
        names = {f.name for f in dataclasses.fields(cls)}
        study = cls(**{k: v for k, v in kwargs.items() if k in names})
        return study, {k: v for k, v in kwargs.items() if k not in names}

    def _point(self, label: str, mode: ExecutionMode, **fields) -> ServingPoint:
        """A point carrying this study's shared knobs plus ``fields``."""
        return ServingPoint(
            study=self.study,
            label=label,
            model=self.model,
            config=self.config,
            mode=mode.value,
            engine=self.engine,
            len_bucket=self.len_bucket,
            seed=self.seed,
            max_batch_size=self.max_batch_size,
            max_wait_ms=self.max_wait_ms,
            **fields,
        )


@dataclass(frozen=True, kw_only=True)
class ServingExperiment(ServingStudy):
    """The load-vs-tail-latency sweep over modes and arrival patterns.

    Parameters
    ----------
    model:
        Zoo model every request runs (per-request lengths still vary
        with its padding distribution).
    config:
        Chip configuration; ``num_devices`` chips serve the stream.
    sla_ms:
        p99 latency target the headroom analysis ranks loads against.
    engine:
        ``"fast"``, ``"reference"`` or ``"stream"``; see
        :func:`simulate_point`.
    """

    study: ClassVar[str] = "serving"
    num_devices: int = 1
    sla_ms: float = 150.0

    def point(
        self, pattern: str, mode: ExecutionMode, load: float, num_requests: int
    ) -> ServingPoint:
        """The work unit for one sweep point of this experiment."""
        return self._point(
            f"{pattern}-{mode.value}-{load:g}rps",
            mode,
            pattern=pattern,
            rate_rps=load,
            num_requests=num_requests,
            stream_seed=stream_seed(self.seed, pattern),
            sla_ms=self.sla_ms,
            num_devices=self.num_devices,
        )

    def points(
        self,
        loads: Sequence[float] = DEFAULT_LOADS,
        patterns: Sequence[str] = DEFAULT_PATTERNS,
        modes: Sequence[ExecutionMode] = DEFAULT_MODES,
        requests_per_point: int = DEFAULT_REQUESTS_PER_POINT,
    ) -> List[ServingPoint]:
        """The sweep's points, in row order."""
        return [
            self.point(pattern, mode, load, requests_per_point)
            for pattern in patterns
            for mode in modes
            for load in loads
        ]

    def simulate(
        self,
        pattern: str,
        mode: ExecutionMode,
        rate_rps: float,
        num_requests: int,
    ) -> ServingReport:
        """One point, summarized (columnar fast path by default)."""
        return simulate_point(self.point(pattern, mode, rate_rps, num_requests))

    def run(self, **grid) -> List[ServingRow]:
        """One row per point of ``points(**grid)``."""
        rows: List[ServingRow] = []
        for point in self.points(**grid):
            # A point the runtime already computed (in a worker or the
            # unit cache) aggregates without re-running.
            report = _PRIMED.result(point)
            rows.append(
                ServingRow(
                    pattern=point.pattern,
                    mode=point.mode,
                    offered_rps=point.rate_rps,
                    throughput_rps=report.throughput_rps,
                    utilization=report.utilization,
                    p50_ms=report.latency.p50_s * 1e3,
                    p95_ms=report.latency.p95_s * 1e3,
                    p99_ms=report.latency.p99_s * 1e3,
                    sla_violation_rate=report.sla_violation_rate,
                    mean_batch_size=report.mean_batch_size,
                    meets_sla=report.meets_sla(),
                )
            )
        return rows


_PRIMED = Primed()
prime = _PRIMED.prime
clear_primed = _PRIMED.clear_primed


def plan(**kwargs) -> List[ServingPoint]:
    """Work units a same-argument :func:`run` consumes (for sharding)."""
    experiment, grid = ServingExperiment.split(kwargs)
    return experiment.points(**grid)


def max_sla_load(rows: Sequence[ServingRow]) -> Dict[Tuple[str, str], float]:
    """Serving headroom: per (pattern, mode), the highest offered load
    whose p99 stayed within the SLA (0.0 when none did)."""
    best: Dict[Tuple[str, str], float] = {}
    for row in rows:
        key = (row.pattern, row.mode)
        best.setdefault(key, 0.0)
        if row.meets_sla:
            best[key] = max(best[key], row.offered_rps)
    return best


# ----------------------------------------------------------------------
# runner-compatible module-level API
# ----------------------------------------------------------------------
def run(**kwargs) -> List[ServingRow]:
    experiment, grid = ServingExperiment.split(kwargs)
    return experiment.run(**grid)


def format_table(rows: Sequence[ServingRow]) -> str:
    lines = [
        "Serving study: load vs tail latency (per arrival pattern/mode)",
        f"{'pattern':<8} {'mode':<13} {'rps':>7} {'thru':>7} {'util':>6} "
        f"{'p50ms':>8} {'p95ms':>8} {'p99ms':>8} {'viol':>6} {'SLA':>4}",
    ]
    for r in rows:
        lines.append(
            f"{r.pattern:<8} {r.mode:<13} {r.offered_rps:>7.1f} "
            f"{r.throughput_rps:>7.1f} {r.utilization:>6.1%} "
            f"{r.p50_ms:>8.2f} {r.p95_ms:>8.2f} {r.p99_ms:>8.2f} "
            f"{r.sla_violation_rate:>6.1%} "
            f"{'ok' if r.meets_sla else 'MISS':>4}"
        )
    headroom = max_sla_load(rows)
    patterns = sorted({p for p, _ in headroom})
    for pattern in patterns:
        base = headroom.get((pattern, ExecutionMode.BASELINE.value), 0.0)
        parts = []
        for (pat, mode), load in sorted(headroom.items()):
            if pat != pattern:
                continue
            ratio = f" ({load / base:.1f}x)" if base > 0 else ""
            parts.append(f"{mode} {load:.0f} rps{ratio}")
        lines.append(
            f"headroom @ p99 SLA [{pattern}]: " + ", ".join(parts)
        )
    return "\n".join(lines)


def main() -> None:  # pragma: no cover
    print(format_table(run()))


if __name__ == "__main__":  # pragma: no cover
    main()
