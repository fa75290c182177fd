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
independent :class:`~repro.experiments.serving.ServingPoint` on the
runtime's WorkUnit protocol (``plan``/``prime``/``clear_primed``), so
``sprint-experiments resilience --jobs N`` spreads the points across
workers.  Traffic is seeded by a stable hash of (experiment seed,
pattern) and the fault schedule by ``default_rng([seed, device])`` per
device -- never by worker identity -- so artifacts are byte-identical
for every ``--jobs`` value.  Points group by retry policy so a shard
warms one shared cost model per group.

Each point runs through the fault-mode columnar engine
(:func:`~repro.serving.engine.simulate_table` with ``faults=``) by
default, pinned record-for-record equal to the fault-threaded
per-request reference loop (``engine="reference"``);
``engine="stream"`` runs the same point out-of-core through
:func:`~repro.serving.metrics.summarize_stream` with fixed-size
sketches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Dict, List, Optional, Sequence, Tuple

from repro.core.system import ExecutionMode
from repro.experiments.primed import Primed
from repro.experiments.serving import (
    RETRY_POLICIES,
    ServingPoint,
    ServingStudy,
    deadline_window,
    simulate_point,
    stream_seed,
)
from repro.serving.metrics import ServingReport

#: Mean time between failures per device (seconds of simulation time).
DEFAULT_MTBFS = (2.0, 8.0, 30.0)
#: Fleet sizes swept (device d's outage trace is identical across
#: fleet sizes by construction, isolating the redundancy effect).
DEFAULT_FLEETS = (1, 2, 4)
#: The retry policies the sweep compares: every one named in
#: :data:`~repro.experiments.serving.RETRY_POLICIES`.
DEFAULT_POLICIES = tuple(RETRY_POLICIES)
DEFAULT_REQUESTS_PER_POINT = 2000


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


@dataclass(frozen=True, kw_only=True)
class ResilienceExperiment(ServingStudy):
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

    study: ClassVar[str] = "resilience"
    mode: ExecutionMode = ExecutionMode.SPRINT
    pattern: str = "poisson"
    load: float = 80.0
    mttr_s: float = 0.25
    sla_ms: float = 150.0
    deadline_range_s: Optional[Tuple[float, float]] = None

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(
            self, "deadline_range_s", deadline_window(self.deadline_range_s)
        )
        if self.engine == "stream" and self.deadline_range_s is not None:
            raise ValueError(
                "deadlines need a materialized table; the stream engine "
                "carries no deadline column"
            )
        if self.load <= 0:
            raise ValueError("load must be positive")
        if self.mttr_s <= 0:
            raise ValueError("mttr_s must be positive")

    def point(
        self, mtbf_s: float, num_devices: int, policy: str, num_requests: int
    ) -> ServingPoint:
        """The work unit for one sweep point of this experiment."""
        if policy not in RETRY_POLICIES:
            raise KeyError(f"unknown retry policy {policy!r}")
        return self._point(
            f"mtbf{mtbf_s:g}-n{num_devices}-{policy}",
            self.mode,
            pattern=self.pattern,
            rate_rps=self.load,
            num_requests=num_requests,
            stream_seed=stream_seed(self.seed, self.pattern),
            deadline_range_s=self.deadline_range_s,
            sla_ms=self.sla_ms,
            num_devices=num_devices,
            mtbf_s=mtbf_s,
            mttr_s=self.mttr_s,
            policy=policy,
        )

    def points(
        self,
        mtbfs: Sequence[float] = DEFAULT_MTBFS,
        fleets: Sequence[int] = DEFAULT_FLEETS,
        policies: Sequence[str] = DEFAULT_POLICIES,
        requests_per_point: int = DEFAULT_REQUESTS_PER_POINT,
    ) -> List[ServingPoint]:
        """The sweep's points, in row order."""
        return [
            self.point(mtbf_s, num_devices, policy, requests_per_point)
            for mtbf_s in mtbfs
            for num_devices in fleets
            for policy in policies
        ]

    def simulate(
        self, mtbf_s: float, num_devices: int, policy: str, num_requests: int
    ) -> ServingReport:
        """One point, summarized (fault-mode columnar path by default)."""
        return simulate_point(
            self.point(mtbf_s, num_devices, policy, num_requests)
        )

    def run(self, **grid) -> List[ResilienceRow]:
        """One row per point of ``points(**grid)``."""
        rows: List[ResilienceRow] = []
        for point in self.points(**grid):
            report = _PRIMED.result(point)
            rows.append(
                ResilienceRow(
                    mtbf_s=point.mtbf_s,
                    num_devices=point.num_devices,
                    policy=point.policy,
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


_PRIMED = Primed()
prime = _PRIMED.prime
clear_primed = _PRIMED.clear_primed


def plan(**kwargs) -> List[ServingPoint]:
    """Work units a same-argument :func:`run` consumes (for sharding)."""
    experiment, grid = ResilienceExperiment.split(kwargs)
    return experiment.points(**grid)


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
def run(**kwargs) -> List[ResilienceRow]:
    experiment, grid = ResilienceExperiment.split(kwargs)
    return experiment.run(**grid)


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
