"""Shared model x config x mode simulation sweep with memoization.

Figures 10-13 all consume the same grid of simulation reports; this
module runs each (model, config, mode, samples, seed) cell once per
process and caches the result.  Each model's calibrated workload is
generated once and shared across every (config, mode) cell, and each
cell runs through the batched ``simulate_workload`` core.

The cell grid is also the unit of parallelism for the experiment
runtime (:mod:`repro.runtime.pool`): each cell wraps into a
:class:`GridUnit` — the grid's adapter onto the runtime's WorkUnit
protocol (:mod:`repro.runtime.units`) — worker processes ``execute()``
units remotely, and ``prime`` installs the shipped-back reports so the
consuming experiments aggregate without re-simulating.  Every
grid-backed experiment module (fig10-13, ffn, table3) builds its
``plan()`` from :func:`plan_units` and aliases :func:`prime` /
:func:`clear_primed` here, so one shared memo serves them all.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Sequence, Tuple

from repro.core.configs import L_SPRINT, M_SPRINT, S_SPRINT, SprintConfig
from repro.core.results import SimulationReport
from repro.core.system import ExecutionMode, SprintSystem
from repro.experiments.primed import Primed
from repro.models.zoo import get_model
from repro.workloads.generator import Workload, generate_workload

ALL_MODELS = (
    "BERT-B", "BERT-L", "ALBERT-XL", "ALBERT-XXL",
    "ViT-B", "GPT-2-L", "Synth-1", "Synth-2",
)
ALL_CONFIGS: Tuple[SprintConfig, ...] = (S_SPRINT, M_SPRINT, L_SPRINT)


def samples_for(model_name: str, requested: int) -> int:
    """Cap sample count for the very long Synth sequences (speed)."""
    spec = get_model(model_name)
    if spec.seq_len > 1024:
        return max(1, requested // 2)
    return requested


@lru_cache(maxsize=None)
def workload_for(model_name: str, num_samples: int, seed: int) -> Workload:
    """One calibrated workload per (model, samples, seed), shared by
    every config and mode cell of the grid (mask generation dominates
    small sweeps otherwise)."""
    spec = get_model(model_name)
    return generate_workload(
        seq_len=spec.seq_len,
        pruning_rate=spec.pruning_rate,
        padding_ratio=spec.padding_ratio,
        num_samples=num_samples,
        locality=spec.locality,
        causal=spec.causal,
        seed=seed,
    )


#: One grid cell: (model, config name, mode value, num_samples, seed).
#: ``num_samples`` is the *requested* count; ``samples_for`` capping is
#: internal to the cell so keys stay stable across call sites.
CellKey = Tuple[str, str, str, int, int]

#: Reports installed by :func:`prime` (e.g. computed in a worker
#: process and shipped back); consulted before the local memo.
_PRIMED = Primed()
prime = _PRIMED.prime
clear_primed = _PRIMED.clear_primed


def cells(
    models: Sequence[str],
    configs: Sequence[SprintConfig],
    modes: Sequence[ExecutionMode],
    num_samples: int = 2,
    seed: int = 1,
) -> List[CellKey]:
    """The cell keys a same-argument :func:`grid` call will consume."""
    if num_samples < 1:
        raise ValueError(f"num_samples must be >= 1, got {num_samples}")
    return [
        (model, config.name, mode.value, num_samples, seed)
        for model in models
        for config in configs
        for mode in modes
    ]


@dataclass(frozen=True)
class GridUnit:
    """One sweep cell as a runtime WorkUnit.

    ``key`` is the cell key itself (it already carries every parameter
    — model, config name, mode, sample count, seed — that determines
    the report).  Units group by (model, samples, seed) so a shard
    shares one calibrated workload across its config/mode cells.
    """

    cell: CellKey

    @property
    def key(self) -> CellKey:
        return self.cell

    @property
    def group(self) -> Tuple[str, int, int]:
        return (self.cell[0], self.cell[3], self.cell[4])

    def execute(self) -> SimulationReport:
        return simulate(*self.cell)


def plan_units(
    models: Sequence[str],
    configs: Sequence[SprintConfig],
    modes: Sequence[ExecutionMode],
    num_samples: int = 2,
    seed: int = 1,
) -> List[GridUnit]:
    """The work units a same-argument :func:`grid` call will consume."""
    return [
        GridUnit(cell)
        for cell in cells(models, configs, modes, num_samples, seed)
    ]


def simulate(
    model_name: str,
    config_name: str,
    mode_value: str,
    num_samples: int = 2,
    seed: int = 1,
) -> SimulationReport:
    """One memoized simulation cell (batched over the shared workload)."""
    key = (model_name, config_name, mode_value, num_samples, seed)
    primed = _PRIMED.get(key)
    if primed is not None:
        return primed
    return _simulate(*key)


@lru_cache(maxsize=None)
def _simulate(
    model_name: str,
    config_name: str,
    mode_value: str,
    num_samples: int,
    seed: int,
) -> SimulationReport:
    config = {c.name: c for c in ALL_CONFIGS}[config_name]
    system = SprintSystem(config)
    workload = workload_for(
        model_name, samples_for(model_name, num_samples), seed
    )
    return system.simulate_workload(
        workload, ExecutionMode(mode_value), model_name=model_name
    )


def grid(
    models: Sequence[str],
    configs: Sequence[SprintConfig],
    modes: Sequence[ExecutionMode],
    num_samples: int = 2,
    seed: int = 1,
) -> Dict[Tuple[str, str, str], SimulationReport]:
    """Run (and cache) the full grid; keys are (model, config, mode)."""
    return {
        cell[:3]: simulate(*cell)
        for cell in cells(models, configs, modes, num_samples, seed)
    }
