"""Resilience study: availability and goodput under device failures.

Not a paper figure -- the ROADMAP's fault-tolerant-serving extension.
A fixed request stream (iso-traffic across every point) runs against a
seeded :class:`~repro.serving.faults.FaultSchedule` of exponential
failure/recovery outages while the sweep varies the mean time between
failures, the fleet size, and the :class:`~repro.serving.faults
.RetryPolicy`.  Each point reports fleet availability, goodput versus
offered load, drop and retry counts, tail latency over the surviving
requests, and the energy wasted in batches lost mid-flight.

The headline derived metric is the *retry dividend*: at each (MTBF,
fleet) cell, the goodput recovered by retrying relative to dropping on
first failure -- redundancy (more devices) and persistence (more
attempts) trade off visibly against the wasted-energy column.

The sweep is shardable: every (mtbf, fleet, policy) point is an
independent :class:`ResilienceUnit` on the runtime's WorkUnit protocol
(``plan``/``prime``/``clear_primed``), so ``sprint-experiments
resilience --jobs N`` spreads the points across workers.  Traffic is
seeded by a stable hash of (experiment seed, pattern) and the fault
schedule by ``default_rng([seed, device])`` per device -- never by
worker identity -- so artifacts are byte-identical for every ``--jobs``
value.  Units group by retry policy so a shard warms one shared cost
model per group.

Each point runs through the fault-mode columnar engine
(:func:`~repro.serving.engine.simulate_table` with ``faults=``) by
default, pinned record-for-record equal to the fault-threaded
per-request reference loop (``engine="reference"``);
``engine="stream"`` runs the same point out-of-core through
:func:`~repro.serving.metrics.summarize_stream` with fixed-size
sketches.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.configs import S_SPRINT, SprintConfig
from repro.core.system import ExecutionMode
from repro.experiments.serving import make_process, stream_seed
from repro.obs import telemetry
from repro.obs.trace import TraceConfig, TraceRecorder
from repro.serving.arrivals import generate_request_table
from repro.serving.batching import DynamicBatcher
from repro.serving.devices import ServiceCostModel, SprintDevice, shared_cost_model
from repro.serving.engine import simulate_table
from repro.serving.faults import FaultSchedule, RetryPolicy
from repro.serving.metrics import ServingReport, summarize, summarize_stream
from repro.serving.scheduler import ServingSimulator
from repro.serving.stream import RequestStream

#: Mean time between failures per device (seconds of simulation time).
DEFAULT_MTBFS = (2.0, 8.0, 30.0)
#: Fleet sizes swept (device d's outage trace is identical across
#: fleet sizes by construction, isolating the redundancy effect).
DEFAULT_FLEETS = (1, 2, 4)
#: Named retry policies the sweep compares.  ``none`` drops a request
#: on its first lost batch; the others re-admit with exponential
#: backoff up to the attempt budget.
RETRY_POLICIES: Dict[str, RetryPolicy] = {
    "none": RetryPolicy(max_attempts=1),
    "bounded": RetryPolicy(max_attempts=3, backoff_base_s=1e-3),
    "patient": RetryPolicy(max_attempts=6, backoff_base_s=1e-3),
}
DEFAULT_POLICIES = tuple(RETRY_POLICIES)
DEFAULT_REQUESTS_PER_POINT = 2000
#: Fault-schedule horizon as a multiple of the nominal stream span
#: (count / load); outages starting past it are not materialized, so a
#: heavily backlogged tail runs fault-free -- acceptable for a sweep
#: whose traffic is sized to drain well inside the horizon.
_HORIZON_SPANS = 4.0


@dataclass(frozen=True)
class ResilienceRow:
    """One (MTBF, fleet size, retry policy) point of the sweep."""

    mtbf_s: float
    num_devices: int
    policy: str
    offered_rps: float
    goodput_rps: float
    availability: float
    completed: int
    dropped: int
    drop_rate: float
    retries: int
    retried_completed: int
    p99_ms: float
    wasted_energy_uj: float


class ResilienceExperiment:
    """The availability/goodput sweep over MTBF, fleet, and retry policy.

    Parameters
    ----------
    mttr_s:
        Mean time to repair (exponential), shared by every sweep point
        so the MTBF axis reads as failure *frequency* at fixed outage
        length.
    load:
        Offered load (requests/s); identical traffic hits every point.
    deadline_range_s:
        Optional per-request deadline window (uniform); deadlines gate
        retries only.  Table engines only -- the out-of-core stream
        generator carries no deadline column.
    engine:
        ``"fast"`` (default) runs the fault-mode columnar engine;
        ``"reference"`` the fault-threaded per-request loop (identical
        reports, exists to define semantics); ``"stream"`` the
        out-of-core chunked path with sketch-bounded percentiles.
    """

    def __init__(
        self,
        model: str = "BERT-B",
        config: SprintConfig = S_SPRINT,
        mode: ExecutionMode = ExecutionMode.SPRINT,
        pattern: str = "poisson",
        load: float = 80.0,
        mttr_s: float = 0.25,
        max_batch_size: int = 8,
        max_wait_ms: float = 10.0,
        sla_ms: float = 150.0,
        deadline_range_s: Optional[Tuple[float, float]] = None,
        len_bucket: int = 32,
        seed: int = 0,
        engine: str = "fast",
    ):
        if engine not in ("fast", "reference", "stream"):
            raise ValueError(f"unknown engine {engine!r}")
        if engine == "stream" and deadline_range_s is not None:
            raise ValueError(
                "deadlines need a materialized table; the stream engine "
                "carries no deadline column"
            )
        if load <= 0:
            raise ValueError("load must be positive")
        if mttr_s <= 0:
            raise ValueError("mttr_s must be positive")
        self.model = model
        self.config = config
        self.mode = mode
        self.pattern = pattern
        self.load = load
        self.mttr_s = mttr_s
        self.max_batch_size = max_batch_size
        self.max_wait_ms = max_wait_ms
        self.sla_ms = sla_ms
        self.deadline_range_s = deadline_range_s
        self.len_bucket = len_bucket
        self.seed = seed
        self.engine = engine

    # ------------------------------------------------------------------
    def _cost_model(self) -> ServiceCostModel:
        return shared_cost_model(
            self.config, self.mode, len_bucket=self.len_bucket, seed=self.seed
        )

    def _schedule(self, mtbf_s: float, num_devices: int, count: int) -> FaultSchedule:
        """The outage schedule one sweep point runs under.

        Seeded per device (not per fleet size): growing the fleet adds
        devices without re-rolling the existing ones' outages.
        """
        horizon_s = _HORIZON_SPANS * count / self.load
        return FaultSchedule.exponential(
            num_devices, mtbf_s, self.mttr_s, horizon_s, seed=self.seed
        )

    def _unit(
        self, mtbf_s: float, num_devices: int, policy: str, num_requests: int
    ) -> "ResilienceUnit":
        """The work unit for one sweep point of this experiment."""
        return ResilienceUnit(
            model=self.model,
            config=self.config,
            mode=self.mode.value,
            pattern=self.pattern,
            mtbf_s=mtbf_s,
            num_devices=num_devices,
            policy=policy,
            num_requests=num_requests,
            load=self.load,
            mttr_s=self.mttr_s,
            sla_ms=self.sla_ms,
            deadline_range_s=self.deadline_range_s,
            seed=self.seed,
            max_batch_size=self.max_batch_size,
            max_wait_ms=self.max_wait_ms,
            len_bucket=self.len_bucket,
            engine=self.engine,
        )

    def _trace_recorder(self) -> Optional[TraceRecorder]:
        """A recorder when the active telemetry asks for traces."""
        tele = telemetry.get_telemetry()
        if tele is None or tele.trace_dir is None:
            return None
        return TraceRecorder(
            TraceConfig(head=tele.trace_head, stride=tele.trace_stride)
        )

    def simulate(
        self, mtbf_s: float, num_devices: int, policy: str, num_requests: int
    ) -> ServingReport:
        """One point, summarized (fault-mode columnar path by default)."""
        if policy not in RETRY_POLICIES:
            raise KeyError(f"unknown retry policy {policy!r}")
        retry = RETRY_POLICIES[policy]
        process = make_process(self.pattern, self.load)
        faults = self._schedule(mtbf_s, num_devices, num_requests)
        if self.engine == "stream":
            stream = RequestStream(
                process,
                self.model,
                count=num_requests,
                seed=stream_seed(self.seed, self.pattern),
            )
            return summarize_stream(
                stream,
                self._cost_model(),
                config=self.config.name,
                mode=self.mode.value,
                pattern=self.pattern,
                offered_rps=process.mean_rate_rps,
                sla_s=self.sla_ms * 1e-3,
                num_devices=num_devices,
                max_batch_size=self.max_batch_size,
                max_wait_s=self.max_wait_ms * 1e-3,
                faults=faults,
                retry=retry,
            )
        table = generate_request_table(
            process,
            self.model,
            count=num_requests,
            seed=stream_seed(self.seed, self.pattern),
            deadline_range_s=self.deadline_range_s,
        )
        cost = self._cost_model()
        cost.prime(table.specs[0], table.valid_len)
        recorder = self._trace_recorder()
        if self.engine == "fast":
            result = simulate_table(
                table,
                cost,
                faults=faults,
                retry=retry,
                num_devices=num_devices,
                max_batch_size=self.max_batch_size,
                max_wait_s=self.max_wait_ms * 1e-3,
                recorder=recorder,
            )
        else:
            devices = [SprintDevice(i, cost) for i in range(num_devices)]
            batcher = DynamicBatcher(
                max_batch_size=self.max_batch_size,
                max_wait_s=self.max_wait_ms * 1e-3,
            )
            result = ServingSimulator(
                devices, batcher, recorder, faults=faults, retry=retry
            ).run(table.to_requests())
        if recorder is not None:
            recorder.write(
                Path(telemetry.get_telemetry().trace_dir)
                / f"resilience-mtbf{mtbf_s:g}-n{num_devices}-{policy}.json"
            )
        return summarize(
            result,
            config=self.config.name,
            mode=self.mode.value,
            pattern=self.pattern,
            offered_rps=process.mean_rate_rps,
            sla_s=self.sla_ms * 1e-3,
        )

    def run(
        self,
        mtbfs: Sequence[float] = DEFAULT_MTBFS,
        fleets: Sequence[int] = DEFAULT_FLEETS,
        policies: Sequence[str] = DEFAULT_POLICIES,
        requests_per_point: int = DEFAULT_REQUESTS_PER_POINT,
    ) -> List[ResilienceRow]:
        rows: List[ResilienceRow] = []
        for mtbf_s in mtbfs:
            for num_devices in fleets:
                for policy in policies:
                    key = self._unit(
                        mtbf_s, num_devices, policy, requests_per_point
                    ).key
                    report = _PRIMED.get(key)
                    if report is None:
                        report = self.simulate(
                            mtbf_s, num_devices, policy, requests_per_point
                        )
                    rows.append(
                        ResilienceRow(
                            mtbf_s=mtbf_s,
                            num_devices=num_devices,
                            policy=policy,
                            offered_rps=report.offered_rps,
                            goodput_rps=report.goodput_rps,
                            availability=report.availability,
                            completed=report.requests,
                            dropped=report.dropped_requests,
                            drop_rate=report.drop_rate,
                            retries=report.retries,
                            retried_completed=report.retried_completed,
                            p99_ms=report.latency.p99_s * 1e3,
                            wasted_energy_uj=report.wasted_energy_uj,
                        )
                    )
        return rows


@dataclass(frozen=True)
class ResilienceUnit:
    """One (MTBF, fleet, policy) sweep point as a runtime WorkUnit.

    ``key`` embeds every parameter the point's report depends on, so it
    deduplicates identical points and content-addresses the unit cache.
    Units group by retry policy so a shard warms one shared cost model.
    """

    model: str
    config: SprintConfig
    mode: str
    pattern: str
    mtbf_s: float
    num_devices: int
    policy: str
    num_requests: int
    load: float
    mttr_s: float
    sla_ms: float
    deadline_range_s: Optional[Tuple[float, float]]
    seed: int
    max_batch_size: int
    max_wait_ms: float
    len_bucket: int
    engine: str = "fast"

    @property
    def key(self) -> Tuple:
        return (
            "resilience",
            self.model,
            dataclasses.astuple(self.config),
            self.mode,
            self.pattern,
            self.mtbf_s,
            self.num_devices,
            self.policy,
            self.num_requests,
            self.load,
            self.mttr_s,
            self.sla_ms,
            self.deadline_range_s,
            self.seed,
            self.max_batch_size,
            self.max_wait_ms,
            self.len_bucket,
            self.engine,
        )

    @property
    def group(self) -> Tuple[str, str, str, str]:
        return ("resilience", self.config.name, self.mode, self.policy)

    def execute(self) -> ServingReport:
        experiment = ResilienceExperiment(
            model=self.model,
            config=self.config,
            mode=ExecutionMode(self.mode),
            pattern=self.pattern,
            load=self.load,
            mttr_s=self.mttr_s,
            max_batch_size=self.max_batch_size,
            max_wait_ms=self.max_wait_ms,
            sla_ms=self.sla_ms,
            deadline_range_s=self.deadline_range_s,
            len_bucket=self.len_bucket,
            seed=self.seed,
            engine=self.engine,
        )
        return experiment.simulate(
            self.mtbf_s, self.num_devices, self.policy, self.num_requests
        )


#: Reports installed by :func:`prime` (computed in a worker process or
#: replayed from the unit cache); consulted by ``.run`` before
#: simulating a point locally.
_PRIMED: Dict[Tuple, ServingReport] = {}


def plan(
    model: str = "BERT-B",
    config: SprintConfig = S_SPRINT,
    mtbfs: Sequence[float] = DEFAULT_MTBFS,
    fleets: Sequence[int] = DEFAULT_FLEETS,
    policies: Sequence[str] = DEFAULT_POLICIES,
    requests_per_point: int = DEFAULT_REQUESTS_PER_POINT,
    seed: int = 0,
    **experiment_kwargs,
) -> List[ResilienceUnit]:
    """Work units a same-argument :func:`run` consumes (for sharding)."""
    experiment = ResilienceExperiment(
        model=model, config=config, seed=seed, **experiment_kwargs
    )
    return [
        experiment._unit(mtbf_s, num_devices, policy, requests_per_point)
        for mtbf_s in mtbfs
        for num_devices in fleets
        for policy in policies
    ]


def prime(key: Tuple, report: ServingReport) -> None:
    """Install an externally computed point (parallel-runtime hook)."""
    _PRIMED[tuple(key)] = report


def clear_primed() -> None:
    _PRIMED.clear()


def retry_dividend(
    rows: Sequence[ResilienceRow],
) -> Dict[Tuple[float, int], float]:
    """Per (MTBF, fleet): goodput of the best retrying policy over the
    drop-on-first-failure baseline (1.0 when retrying never helps)."""
    base: Dict[Tuple[float, int], float] = {}
    best: Dict[Tuple[float, int], float] = {}
    for row in rows:
        cell = (row.mtbf_s, row.num_devices)
        if row.policy == "none":
            base[cell] = row.goodput_rps
        else:
            best[cell] = max(best.get(cell, 0.0), row.goodput_rps)
    return {
        cell: (best.get(cell, rate) / rate if rate > 0 else 1.0)
        for cell, rate in base.items()
    }


# ----------------------------------------------------------------------
# runner-compatible module-level API
# ----------------------------------------------------------------------
def run(
    model: str = "BERT-B",
    config: SprintConfig = S_SPRINT,
    mtbfs: Sequence[float] = DEFAULT_MTBFS,
    fleets: Sequence[int] = DEFAULT_FLEETS,
    policies: Sequence[str] = DEFAULT_POLICIES,
    requests_per_point: int = DEFAULT_REQUESTS_PER_POINT,
    seed: int = 0,
    **experiment_kwargs,
) -> List[ResilienceRow]:
    experiment = ResilienceExperiment(
        model=model, config=config, seed=seed, **experiment_kwargs
    )
    return experiment.run(
        mtbfs=mtbfs,
        fleets=fleets,
        policies=policies,
        requests_per_point=requests_per_point,
    )


def format_table(rows: Sequence[ResilienceRow]) -> str:
    lines = [
        "Resilience study: availability & goodput under device failures",
        f"{'mtbf':>6} {'fleet':>5} {'policy':<8} {'avail':>7} "
        f"{'offer':>6} {'good':>6} {'drop':>6} {'retry':>6} "
        f"{'p99ms':>8} {'wasteduJ':>9}",
    ]
    for r in rows:
        lines.append(
            f"{r.mtbf_s:>6.1f} {r.num_devices:>5d} {r.policy:<8} "
            f"{r.availability:>7.2%} {r.offered_rps:>6.1f} "
            f"{r.goodput_rps:>6.1f} {r.drop_rate:>6.1%} "
            f"{r.retries:>6d} {r.p99_ms:>8.2f} {r.wasted_energy_uj:>9.2f}"
        )
    for (mtbf_s, fleet), ratio in sorted(retry_dividend(rows).items()):
        lines.append(
            f"retry dividend [mtbf {mtbf_s:g}s, fleet {fleet}]: "
            f"{ratio:.2f}x goodput vs drop-on-failure"
        )
    return "\n".join(lines)


def main() -> None:  # pragma: no cover
    print(format_table(run()))


if __name__ == "__main__":  # pragma: no cover
    main()
