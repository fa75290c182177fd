"""Full-model roll-up: heads x layers on top of the per-head simulator.

The paper evaluates a single attention head (its Figure 1/10-13 units);
real deployments care about whole layers and whole models.  This module
schedules all heads of all layers onto the configured CORELETs and
aggregates cycles/energy, including the head-level parallelism choice:
heads beyond the CORELET count serialize.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.configs import SprintConfig
from repro.core.results import SimulationReport
from repro.core.system import ExecutionMode, SprintSystem
from repro.models.zoo import ModelSpec
from repro.workloads.generator import Workload


@dataclass
class ModelReport:
    """Whole-model aggregate over layers and heads."""

    model: str
    config: str
    mode: str
    per_head: SimulationReport
    num_heads: int
    num_layers: int
    #: Heads processed concurrently (CORELET-limited).
    head_parallelism: int
    #: Bytes per embedding vector, taken from the simulated
    #: :class:`~repro.core.configs.SprintConfig` so data-movement
    #: roll-ups use the config's real vector size.
    vector_bytes: int = 64

    @property
    def total_cycles(self) -> float:
        """Cycles for the full stack of attention layers.

        Heads beyond the parallel degree serialize; layers always
        serialize (layer n+1 consumes layer n's output).
        """
        waves = -(-self.num_heads // self.head_parallelism)
        return self.per_head.cycles * waves * self.num_layers

    @property
    def total_energy_pj(self) -> float:
        return (
            self.per_head.total_energy_pj * self.num_heads * self.num_layers
        )

    def total_data_movement_bytes(
        self, vector_bytes: Optional[int] = None
    ) -> float:
        """Whole-model main-memory traffic in bytes.

        ``vector_bytes`` defaults to the simulated config's own vector
        size (it used to default to a hardcoded 64, silently misscaling
        non-64B configs).
        """
        if vector_bytes is None:
            vector_bytes = self.vector_bytes
        return (
            self.per_head.data_movement_bytes(vector_bytes)
            * self.num_heads
            * self.num_layers
        )

    def speedup_vs(self, other: "ModelReport") -> float:
        if self.total_cycles <= 0:
            return float("inf")
        return other.total_cycles / self.total_cycles

    def energy_reduction_vs(self, other: "ModelReport") -> float:
        if self.total_energy_pj <= 0:
            return float("inf")
        return other.total_energy_pj / self.total_energy_pj


class MultiHeadSimulator:
    """Roll per-head simulations up to layer and model granularity.

    Each CORELET processes one head at a time (the paper's CORELET is a
    complete per-head pipeline), so up to ``num_corelets`` heads run in
    parallel.  Within a head, that head's keys use the full CORELET --
    the per-head simulation therefore runs with a single-CORELET view.

    The per-head workload is simulated through the batched
    :meth:`SprintSystem.simulate_workload` core, so model roll-ups and
    the serving cost cache share the vectorized workload-level path.
    """

    def __init__(self, config: SprintConfig, **system_kwargs):
        self.config = config
        # Per-head execution sees one CORELET's worth of resources; the
        # K/V capacity is shared across concurrently-resident heads.
        per_head_capacity_kb = max(
            2, config.onchip_cache_kb // config.num_corelets
        )
        self._per_head_config = SprintConfig(
            name=f"{config.name}/head",
            num_corelets=1,
            onchip_cache_kb=per_head_capacity_kb,
            num_qkpu=1, num_vpu=1, num_softmax=1,
            query_buffer_bytes=config.query_buffer_bytes,
            index_buffer_bytes=config.index_buffer_bytes,
        )
        self.system = SprintSystem(self._per_head_config, **system_kwargs)

    def simulate(
        self,
        spec: ModelSpec,
        mode: ExecutionMode,
        num_samples: int = 2,
        seed: int = 0,
    ) -> ModelReport:
        per_head = self.system.simulate_model(
            spec, mode, num_samples=num_samples, seed=seed
        )
        return self._roll_up(spec, mode, per_head)

    def simulate_workload(
        self, spec: ModelSpec, mode: ExecutionMode, workload: Workload
    ) -> ModelReport:
        """Roll a given per-head ``workload`` of ``spec`` up to the model.

        For callers that generate the masks themselves (the serving
        cost cache draws many lengths of one model at once); equal to
        :meth:`simulate` on the workload it would have generated.
        """
        per_head = self.system.simulate_workload(
            workload, mode, model_name=spec.name
        )
        return self._roll_up(spec, mode, per_head)

    def _roll_up(
        self, spec: ModelSpec, mode: ExecutionMode, per_head: SimulationReport
    ) -> ModelReport:
        """The whole-model report over every head and layer of ``spec``."""
        return ModelReport(
            model=spec.name,
            config=self.config.name,
            mode=mode.value,
            per_head=per_head,
            num_heads=spec.num_heads,
            num_layers=spec.num_layers,
            head_parallelism=self.config.num_corelets,
            vector_bytes=self.config.vector_bytes,
        )

    def compare(
        self, spec: ModelSpec, num_samples: int = 2, seed: int = 0
    ) -> Dict[str, ModelReport]:
        """Baseline vs SPRINT at model granularity."""
        return {
            mode.value: self.simulate(spec, mode, num_samples, seed)
            for mode in (ExecutionMode.BASELINE, ExecutionMode.SPRINT)
        }
