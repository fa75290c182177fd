"""The benchmark's four workloads: inputs, one timed pass, output checks.

Every workload follows the same life cycle inside one fresh process
(see ``child.py``): ``setup`` builds the seeded inputs, ``run_pass``
is the timed unit of work, ``pass_ok`` checks a pass's output outside
the timed region, and ``checks`` runs the slower output checks once.
The benchmark only calls public functions of ``repro``; every span
sits around one of those calls and names the module it enters plus
the pipeline layer that module plays for this workload:

- ``inputs``: seeded input generation;
- ``cost_model``: the closed-form cycle/energy model;
- ``engine``: turning priced work into the user's result;
- ``report``: summarising or persisting that result.

Simulated time, energy and latency are outputs that the checks and the
``sim_digest`` pin; the benchmark's metrics are host time and memory.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

import numpy as np

from repro.core.configs import S_SPRINT
from repro.core.system import ExecutionMode, SprintSystem
from repro.experiments import (
    fig10_data_movement,
    fig11_speedup,
    fig12_energy,
    fig13_breakdown,
    ffn_end_to_end,
    paper_reference,
    sweep,
    table3_comparison,
)
from repro.models.zoo import get_model
from repro.runtime.cache import ResultCache, unit_cache_key
from repro.serving import (
    BurstyProcess,
    ContinuousBatcher,
    DynamicBatcher,
    FaultSchedule,
    GenerativeServingSimulator,
    PoissonProcess,
    RetryPolicy,
    ServiceCostModel,
    ServingSimulator,
    SprintDevice,
    generate_request_table,
    simulate_table,
    summarize,
)
from repro.workloads.generator import generate_workload

#: Models every ``--smoke`` workload is cut down to (short sequences,
#: so a smoke run stays in seconds).
SMOKE_MODELS = ("BERT-B", "ViT-B")
SMOKE_MIX = dict.fromkeys(SMOKE_MODELS, 0.5)
SMOKE_REQUESTS = 2_000

#: Requested samples per grid cell, as ``sprint-experiments`` uses.
GRID_SAMPLES = 2
FIGURES = (
    fig10_data_movement,
    fig11_speedup,
    fig12_energy,
    fig13_breakdown,
    ffn_end_to_end,
    table3_comparison,
)


def digest(payload: Any) -> str:
    """sha256 of a JSON-able payload (floats keep every digit)."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class PassOutput:
    """What one pass produced, for the checks and the digest."""

    #: Simulated batches (serving) or grid cells (paper grid): the
    #: denominator of ``engine.us_per_batch``.
    batches: int
    value: Any


def grid_workload(model: str, num_samples: int, seed: int):
    """A model's calibrated workload, generated as ``sweep`` does."""
    spec = get_model(model)
    return generate_workload(
        seq_len=spec.seq_len,
        pruning_rate=spec.pruning_rate,
        padding_ratio=spec.padding_ratio,
        num_samples=sweep.samples_for(model, num_samples),
        locality=spec.locality,
        causal=spec.causal,
        seed=seed,
    )


# ----------------------------------------------------------------------
# paper_grid: the cell grid behind fig10-13, ffn and table3
# ----------------------------------------------------------------------
class PaperGrid:
    """All models x S/M/L-SPRINT x every execution mode, as the figure
    CLI computes them, plus the runtime cache round trip of each cell.

    Pass ``i`` uses grid seed ``1 + seed + i``; with ``--seed 0`` pass 0
    is the ``sprint-experiments`` default grid.
    """

    name = "paper_grid"
    item = "head-sample"

    def __init__(self, seed: int, smoke: bool, scratch: str):
        self.seed = seed
        self.models = SMOKE_MODELS if smoke else sweep.ALL_MODELS
        self.scratch = scratch
        self.cells = [
            (model, config, mode)
            for model in self.models
            for config in sweep.ALL_CONFIGS
            for mode in ExecutionMode
        ]
        self.items_per_pass = sum(
            sweep.samples_for(model, GRID_SAMPLES) for model, _, _ in self.cells
        )

    def setup(self, spans) -> None:
        with spans.span("runtime.cache.ResultCache", "report"):
            self.cache = ResultCache(self.scratch)

    def run_pass(self, index: int, spans) -> PassOutput:
        grid_seed = 1 + self.seed + index
        workloads = {}
        for model in self.models:
            with spans.span("workloads.generate_workload", "inputs"):
                workloads[model] = grid_workload(model, GRID_SAMPLES, grid_seed)
        reports = {}
        systems = {}
        for model, config, mode in self.cells:
            with spans.span("core.simulate_workload", "cost_model"):
                system = systems.get(config.name)
                if system is None:
                    system = systems[config.name] = SprintSystem(config)
                reports[(model, config.name, mode.value, GRID_SAMPLES, grid_seed)] = (
                    system.simulate_workload(workloads[model], mode, model_name=model)
                )
        with spans.span("experiments.figures", "engine"):
            for key, report in reports.items():
                sweep.prime(key, report)
            try:
                figures = {
                    module.__name__.rsplit(".", 1)[1]: module.run(
                        models=self._figure_models(module),
                        num_samples=GRID_SAMPLES,
                        seed=grid_seed,
                    )
                    for module in FIGURES
                }
            finally:
                sweep.clear_primed()
        with spans.span("runtime.cache.put_get_unit", "report"):
            hits = self.cache.unit_hits
            addresses = [unit_cache_key(key) for key in reports]
            for address, report in zip(addresses, reports.values()):
                self.cache.put_unit(address, report)
            replayed = [self.cache.get_unit(address) for address in addresses]
            hits = self.cache.unit_hits - hits
        return PassOutput(batches=len(reports), value=(reports, figures, replayed, hits))

    def _figure_models(self, module) -> Tuple[str, ...]:
        default = (
            ffn_end_to_end.DEFAULT_MODELS
            if module is ffn_end_to_end
            else sweep.ALL_MODELS
        )
        return tuple(model for model in default if model in self.models)

    def pass_ok(self, out: PassOutput) -> bool:
        reports, _, replayed, hits = out.value
        # Every figure read a primed cell (a miss would re-simulate
        # through the sweep memo and distort the pass), and the cache
        # replayed every cell exactly.
        return (
            sweep.workload_for.cache_info().currsize == 0
            and hits == len(reports)
            and replayed == list(reports.values())
        )

    def sim_stats(self, out: PassOutput) -> Dict[str, float]:
        reports, figures, _, _ = out.value
        by_mode: Dict[str, List] = {}
        for (_, _, mode, _, _), report in reports.items():
            by_mode.setdefault(mode, []).append(report)

        def total(mode: str, count: str) -> float:
            return sum(r.counts.get(count, 0.0) for r in by_mode[mode])

        reuses = total("sprint", "sld_reuses")
        fetches = total("sprint", "key_fetches")
        stats = {
            "sim.sld_reuse_ratio": reuses / (reuses + fetches),
            "sim.pruned_fraction": 1.0
            - total("sprint", "unpruned_total") / total("mask_only", "unpruned_total"),
            "sim.fetches_per_query": fetches / total("sprint", "queries"),
        }
        rows = self.paper_rows(figures)
        stats["sim.paper_gap_pct"] = 100.0 * float(
            np.mean([abs(repro - paper) / paper for _, repro, paper in rows])
        )
        return stats

    @staticmethod
    def paper_rows(figures) -> List[Tuple[str, float, float]]:
        """(row, reproduced, paper) for the 15 scorecard rows."""
        fig11 = fig11_speedup.geomeans(figures["fig11_speedup"])
        fig12 = fig12_energy.geomeans(figures["fig12_energy"])
        fig10 = fig10_data_movement.average_reductions(figures["fig10_data_movement"])
        rows = []
        for config in sweep.ALL_CONFIGS:
            c = config.name
            rows += [
                (f"fig11 SPRINT geomean {c}", fig11[c]["sprint"],
                 paper_reference.FIG11_GEOMEAN[c]),
                (f"fig11 pruning-only geomean {c}", fig11[c]["pruning_only"],
                 paper_reference.FIG11_PRUNING_ONLY_GEOMEAN[c]),
                (f"fig12 energy geomean {c}", fig12[c],
                 paper_reference.FIG12_GEOMEAN[c]),
                (f"fig10 mask-only reduction {c}", fig10[c]["mask_only"],
                 paper_reference.FIG10_AVG_REDUCTION[c][0]),
                (f"fig10 SPRINT reduction {c}", fig10[c]["sprint"],
                 paper_reference.FIG10_AVG_REDUCTION[c][1]),
            ]
        return rows

    def output_digest(self, out: PassOutput) -> str:
        reports, _, _, _ = out.value
        return digest(
            [
                [list(key), r.cycles, r.total_energy_pj, r.counts]
                for key, r in sorted(reports.items())
            ]
        )

    def checks(self, out: PassOutput) -> List[Tuple[str, bool]]:
        """The SLD reference loop must agree with the pass-0 SPRINT cells."""
        reports = out.value[0]
        grid_seed = 1 + self.seed
        workload = grid_workload("BERT-B", GRID_SAMPLES, grid_seed)
        mode = ExecutionMode.SPRINT
        results = []
        for config in sweep.ALL_CONFIGS:
            exact = SprintSystem(config, sld_slow_exact=True).simulate_workload(
                workload, mode, "BERT-B"
            )
            fast = reports[("BERT-B", config.name, mode.value, GRID_SAMPLES, grid_seed)]
            results.append((f"sld_slow_exact {config.name}", fast == exact))
        return results


# ----------------------------------------------------------------------
# serving workloads: one stream, one fleet, simulate + summarize per pass
# ----------------------------------------------------------------------
class _Serving:
    """Shared life cycle of the three serving workloads.

    Setup generates the request stream and primes every cost bucket the
    stream touches; a pass is ``simulate_table`` then ``summarize`` over
    that fixed stream, so every pass must reproduce the first exactly.
    """

    item = "offered request"
    #: Requests of the stream's prefix replayed through the reference
    #: event loop (full size, smoke size).
    reference_prefix = (5_000, 200)
    max_batch_size = 8
    max_wait_s = 2e-3

    def __init__(self, seed: int, smoke: bool, scratch: str):
        self.seed = seed
        self.smoke = smoke
        self.count = SMOKE_REQUESTS if smoke else self.requests
        self.faults = None
        self.retry = None
        self.first_digest = None

    def make_table(self):
        raise NotImplementedError

    def prime_lengths(self, spec, rows) -> np.ndarray:
        """Lengths whose cost buckets setup primes for ``spec``."""
        return self.table.valid_len[rows]

    def setup(self, spans) -> None:
        with spans.span("serving.arrivals.generate_request_table", "inputs"):
            self.table = self.make_table()
        with spans.span("serving.devices.ServiceCostModel", "cost_model", 0):
            self.cost = ServiceCostModel(S_SPRINT, ExecutionMode.SPRINT)
        for index, spec in enumerate(self.table.specs):
            lengths = self.prime_lengths(spec, self.table.spec_idx == index)
            buckets = int(np.unique(self.cost.bucket_lens(spec, lengths)).size)
            with spans.span("serving.devices.ServiceCostModel", "cost_model", buckets):
                self.prime(spec, lengths)
        self.items_per_pass = self.work_items()

    def prime(self, spec, lengths) -> None:
        self.cost.prime(spec, lengths)

    def work_items(self) -> int:
        return len(self.table)

    def simulate(self, table):
        return simulate_table(
            table,
            self.cost,
            num_devices=self.devices,
            max_batch_size=self.max_batch_size,
            max_wait_s=self.max_wait_s,
            faults=self.faults,
            retry=self.retry,
        )

    def run_pass(self, index: int, spans) -> PassOutput:
        with spans.span("serving.simulate_table", "engine"):
            result = self.simulate(self.table)
        with spans.span("serving.metrics.summarize", "report"):
            report = summarize(
                result,
                config=S_SPRINT.name,
                mode=ExecutionMode.SPRINT.value,
                pattern=self.process.name,
                offered_rps=self.process.mean_rate_rps,
            )
        return PassOutput(batches=result.batches, value=(result, report))

    def output_digest(self, out: PassOutput) -> str:
        result, _ = out.value
        return digest(
            [
                hashlib.sha256(result.finish_s.tobytes()).hexdigest(),
                result.device_busy_s,
                result.device_energy_pj,
                self.sim_stats(out),
            ]
        )

    def pass_ok(self, out: PassOutput) -> bool:
        # Every pass replays the same stream: a pass that disagrees with
        # the first one is a failed operation.
        current = self.output_digest(out)
        if self.first_digest is None:
            self.first_digest = current
        return current == self.first_digest

    def sim_stats(self, out: PassOutput) -> Dict[str, float]:
        _, report = out.value
        return {
            "sim.mean_batch_size": report.mean_batch_size,
            "sim.utilization": report.utilization,
            "sim.latency_p99_ms": report.latency.p99_s * 1e3,
            **self.energy_stat(report),
        }

    def energy_stat(self, report) -> Dict[str, float]:
        return {"sim.energy_uj_per_request": report.energy_uj / report.requests}

    def reference(self, prefix):
        devices = [SprintDevice(d, self.cost) for d in range(self.devices)]
        batcher = DynamicBatcher(self.max_batch_size, self.max_wait_s)
        return ServingSimulator(
            devices, batcher, faults=self.faults, retry=self.retry
        ).run(prefix.to_requests())

    def conservation(self, out: PassOutput) -> bool:
        _, report = out.value
        return report.requests + report.dropped_requests == len(self.table)

    def checks(self, out: PassOutput) -> List[Tuple[str, bool]]:
        size = self.reference_prefix[1 if self.smoke else 0]
        prefix = self.table.head(min(size, len(self.table)))
        fast = self.simulate(prefix).to_result()
        return [
            (f"reference loop on {len(prefix)} requests", fast == self.reference(prefix)),
            ("completed + dropped == offered", self.conservation(out)),
        ]


class PrefillBursty(_Serving):
    """Six-model prefill traffic from a two-state MMPP onto 8 chips."""

    name = "prefill_bursty"
    requests = 300_000
    devices = 8
    process = BurstyProcess(
        calm_rate_rps=60.0, burst_rate_rps=600.0, calm_dwell_s=4.0, burst_dwell_s=1.0
    )

    mix = {
        "BERT-B": 0.35,
        "ViT-B": 0.35,
        "BERT-L": 0.10,
        "ALBERT-XL": 0.10,
        "GPT-2-L": 0.05,
        "ALBERT-XXL": 0.05,
    }

    def make_table(self):
        mix = SMOKE_MIX if self.smoke else self.mix
        return generate_request_table(self.process, mix, count=self.count, seed=self.seed)


class DecodeLong(_Serving):
    """Generative traffic, mean 64 output tokens, continuous batching."""

    name = "decode_long"
    item = "generated token"
    requests = 30_000
    devices = 2
    reference_prefix = (300, 30)
    process = PoissonProcess(rate_rps=8.0)

    mix = {"GPT-2-L": 0.5, "BERT-B": 0.5}

    def make_table(self):
        return generate_request_table(
            self.process,
            SMOKE_MIX if self.smoke else self.mix,
            count=self.count,
            seed=self.seed,
            mean_output_tokens=64.0,
        )

    def prime_lengths(self, spec, rows) -> np.ndarray:
        # Every decode context a request of this model can reach.
        return np.arange(1, spec.seq_len + 1)

    def prime(self, spec, lengths) -> None:
        self.cost.cost_arrays(spec, lengths)
        self.cost.decode_cost_arrays(spec, lengths)

    def work_items(self) -> int:
        return int(self.table.output_len.sum())

    def energy_stat(self, report) -> Dict[str, float]:
        return {"sim.energy_uj_per_token": report.energy_uj_per_token}

    def reference(self, prefix):
        devices = [SprintDevice(d, self.cost) for d in range(self.devices)]
        batcher = ContinuousBatcher(self.max_batch_size, self.max_wait_s)
        return GenerativeServingSimulator(devices, batcher).run(prefix.to_requests())

    def conservation(self, out: PassOutput) -> bool:
        result, _ = out.value
        return (
            result.completed == len(self.table)
            and result.total_tokens == self.items_per_pass
        )


class FaultsRetry(_Serving):
    """BERT-B prefill on 2 chips that fail and recover, with retries."""

    name = "faults_retry"
    requests = 200_000
    devices = 2
    process = PoissonProcess(rate_rps=180.0)

    def make_table(self):
        table = generate_request_table(
            self.process,
            "BERT-B",
            count=self.count,
            seed=self.seed,
            deadline_range_s=(0.5, 2.0),
        )
        self.faults = FaultSchedule.exponential(
            self.devices,
            mtbf_s=30.0,
            mttr_s=2.0,
            horizon_s=2.0 * float(table.arrival_s[-1]),
            seed=self.seed,
        )
        self.retry = RetryPolicy()
        return table

    def sim_stats(self, out: PassOutput) -> Dict[str, float]:
        _, report = out.value
        stats = super().sim_stats(out)
        stats.update(
            {
                "sim.retries": report.retries,
                "sim.failed_batches": report.failed_batches,
                "sim.dropped": report.dropped_requests,
                "sim.availability": report.availability,
            }
        )
        return stats


WORKLOADS = {
    cls.name: cls for cls in (PaperGrid, PrefillBursty, DecodeLong, FaultsRetry)
}


def all_finite(stats: Dict[str, float]) -> bool:
    return all(math.isfinite(value) for value in stats.values())
