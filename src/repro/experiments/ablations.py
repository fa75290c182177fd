"""Ablation studies for the design choices DESIGN.md calls out.

Four studies beyond the paper's numbered figures:

1. **SLD reuse** -- how much main-memory traffic the Spatial Locality
   Detection engine saves vs re-fetching every unpruned vector.
2. **Token interleaving** -- cycle cost of sequential block mapping vs
   interleaving in the full system (complements Figure 8's raw metric).
3. **Threshold noise margin** -- section III-A's robustness knob: a
   negative margin keeps borderline tokens, trading pruning rate (and
   thus performance) for noise immunity.
4. **Locality sensitivity** -- how the SPRINT benefit scales with the
   workload's intrinsic spatial locality (ViT sits at the low end).

Every row of every study is an independent :class:`AblationUnit` on
the runtime's WorkUnit protocol (``plan``/``prime``/``clear_primed``),
so ``sprint-experiments ablations --jobs N`` spreads rows across
workers and the unit cache replays unchanged rows.  Units group by
study so a worker shard warms one study's shared state (a
SprintSystem, a classification task) once per process.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import lru_cache
from typing import List, Sequence, Tuple, Union

from repro.core.configs import L_SPRINT, S_SPRINT, SprintConfig
from repro.core.system import ExecutionMode, SprintSystem
from repro.experiments.primed import Primed
from repro.models.zoo import get_model
from repro.workloads.generator import generate_workload

#: Fixed axes of each study.  Shared by the study functions' defaults
#: and :func:`plan`'s unit parameters -- they must agree, or primed
#: lookups silently miss and sharded rows recompute in-parent.
SLD_MODELS = ("BERT-B", "ViT-B", "GPT-2-L")
INTERLEAVING_MODELS = ("BERT-B", "GPT-2-L")
DEFAULT_MARGINS = (0.0, 0.2, 0.4, 0.8)
MARGIN_PRUNING_RATE = 0.746
MARGIN_NOISE_SIGMA = 0.15
MARGIN_NUM_SAMPLES = 24
MARGIN_SEED = 19
DEFAULT_LOCALITIES = (0.2, 0.5, 0.8)
LOCALITY_SEQ_LEN = 384
LOCALITY_PRUNING_RATE = 0.746
DEFAULT_SEED = 1


@lru_cache(maxsize=8)
def _shared_system(config: SprintConfig) -> SprintSystem:
    """One simulator per config, shared by every locality row a
    process runs (rows are pure under their parameters)."""
    return SprintSystem(config)


@dataclass(frozen=True)
class SldAblationRow:
    model: str
    traffic_with_sld_bytes: float
    traffic_without_sld_bytes: float

    @property
    def traffic_saving(self) -> float:
        if self.traffic_with_sld_bytes <= 0:
            return float("inf")
        return self.traffic_without_sld_bytes / self.traffic_with_sld_bytes


def _sld_row(
    model: str, config: SprintConfig, num_samples: int, seed: int
) -> SldAblationRow:
    """One independently computable row of the SLD study."""
    spec = get_model(model)
    with_sld = SprintSystem(config, enable_sld=True).simulate_model(
        spec, ExecutionMode.SPRINT, num_samples=num_samples, seed=seed
    )
    without = SprintSystem(config, enable_sld=False).simulate_model(
        spec, ExecutionMode.SPRINT, num_samples=num_samples, seed=seed
    )
    return SldAblationRow(
        model=model,
        traffic_with_sld_bytes=with_sld.data_movement_bytes(),
        traffic_without_sld_bytes=without.data_movement_bytes(),
    )


def run_sld_ablation(
    models: Sequence[str] = SLD_MODELS,
    config: SprintConfig = S_SPRINT,
    num_samples: int = 1,
    seed: int = DEFAULT_SEED,
) -> List[SldAblationRow]:
    rows = []
    for name in models:
        key = _unit_key("sld", name, config, num_samples, seed)
        row = _PRIMED.get(key)
        if row is None:
            row = _sld_row(name, config, num_samples, seed)
        rows.append(row)
    return rows


@dataclass(frozen=True)
class InterleavingAblationRow:
    model: str
    interleaved_cycles: float
    sequential_cycles: float

    @property
    def slowdown_without_interleaving(self) -> float:
        if self.interleaved_cycles <= 0:
            return float("inf")
        return self.sequential_cycles / self.interleaved_cycles


def _interleaving_row(
    model: str, config: SprintConfig, num_samples: int, seed: int
) -> InterleavingAblationRow:
    """One independently computable row of the interleaving study."""
    spec = get_model(model)
    inter = SprintSystem(config, enable_interleaving=True).simulate_model(
        spec, ExecutionMode.SPRINT, num_samples=num_samples, seed=seed
    )
    seq = SprintSystem(config, enable_interleaving=False).simulate_model(
        spec, ExecutionMode.SPRINT, num_samples=num_samples, seed=seed
    )
    return InterleavingAblationRow(
        model=model,
        interleaved_cycles=inter.cycles,
        sequential_cycles=seq.cycles,
    )


def run_interleaving_ablation(
    models: Sequence[str] = INTERLEAVING_MODELS,
    config: SprintConfig = None,
    num_samples: int = 1,
    seed: int = DEFAULT_SEED,
) -> List[InterleavingAblationRow]:
    config = config or L_SPRINT  # imbalance needs multiple CORELETs
    rows = []
    for name in models:
        key = _unit_key("interleaving", name, config, num_samples, seed)
        row = _PRIMED.get(key)
        if row is None:
            row = _interleaving_row(name, config, num_samples, seed)
        rows.append(row)
    return rows


@dataclass(frozen=True)
class MarginAblationRow:
    margin: float
    pruning_rate: float
    accuracy: float


@lru_cache(maxsize=4)
def _margin_task(num_samples: int, seed: int):
    """One classification task per (samples, seed), shared by every
    margin row a process runs (task generation is seed-pure)."""
    from repro.models.tasks import make_classification_task

    return make_classification_task(
        num_samples=num_samples, seq_len=96, seed=seed
    )


def _margin_row(
    margin: float,
    pruning_rate: float,
    noise_sigma: float,
    num_samples: int,
    seed: int,
) -> MarginAblationRow:
    """One independently computable row of the noise-margin study."""
    from repro.attention.policies import SprintPolicy
    from repro.models.tasks import evaluate_accuracy

    task = _margin_task(num_samples, seed)
    policy = SprintPolicy(
        pruning_rate,
        noise_sigma=noise_sigma,
        threshold_margin=margin,
        recompute=True,
    )
    accuracy = evaluate_accuracy(task, policy)
    # Measure the achieved pruning rate on one sample's first head.
    x = task.inputs[0]
    scores = task.model.score_matrices(x, 0)[0]
    _, keep = policy.process(scores)
    return MarginAblationRow(
        margin=margin,
        pruning_rate=1.0 - float(keep.mean()),
        accuracy=accuracy,
    )


def run_margin_ablation(
    margins: Sequence[float] = DEFAULT_MARGINS,
    pruning_rate: float = MARGIN_PRUNING_RATE,
    noise_sigma: float = MARGIN_NOISE_SIGMA,
    num_samples: int = MARGIN_NUM_SAMPLES,
    seed: int = MARGIN_SEED,
) -> List[MarginAblationRow]:
    """Noise-margin sweep: margin recovers accuracy, costs pruning rate."""
    rows = []
    for margin in margins:
        key = (
            "ablations", "margin", margin, pruning_rate, noise_sigma,
            num_samples, seed,
        )
        row = _PRIMED.get(key)
        if row is None:
            row = _margin_row(
                margin, pruning_rate, noise_sigma, num_samples, seed
            )
        rows.append(row)
    return rows


@dataclass(frozen=True)
class LocalityAblationRow:
    locality: float
    measured_overlap: float
    energy_reduction: float


def _locality_row(
    locality: float,
    config: SprintConfig,
    seq_len: int,
    pruning_rate: float,
    seed: int,
) -> LocalityAblationRow:
    """One independently computable row of the locality study."""
    from repro.attention.locality import measure_adjacent_overlap

    system = _shared_system(config)
    workload = generate_workload(
        seq_len, pruning_rate, padding_ratio=0.0,
        num_samples=1, locality=locality, seed=seed,
    )
    reports = system.simulate_modes(
        workload,
        (ExecutionMode.BASELINE, ExecutionMode.SPRINT),
        "ablation",
    )
    base = reports[ExecutionMode.BASELINE.value]
    sprint = reports[ExecutionMode.SPRINT.value]
    overlap = measure_adjacent_overlap(workload.samples[0].keep_mask)
    return LocalityAblationRow(
        locality=locality,
        measured_overlap=overlap,
        energy_reduction=sprint.energy_reduction_vs(base),
    )


def run_locality_ablation(
    localities: Sequence[float] = DEFAULT_LOCALITIES,
    config: SprintConfig = S_SPRINT,
    seq_len: int = LOCALITY_SEQ_LEN,
    pruning_rate: float = LOCALITY_PRUNING_RATE,
    seed: int = DEFAULT_SEED,
) -> List[LocalityAblationRow]:
    rows = []
    for locality in localities:
        key = (
            "ablations", "locality", locality,
            dataclasses.astuple(config), seq_len, pruning_rate, seed,
        )
        row = _PRIMED.get(key)
        if row is None:
            row = _locality_row(locality, config, seq_len, pruning_rate, seed)
        rows.append(row)
    return rows


# ----------------------------------------------------------------------
# WorkUnit protocol (plan / prime / clear_primed)
# ----------------------------------------------------------------------
AblationRow = Union[
    SldAblationRow, InterleavingAblationRow, MarginAblationRow,
    LocalityAblationRow,
]


def _unit_key(
    study: str,
    value: Union[str, float],
    config: SprintConfig,
    num_samples: int,
    seed: int,
) -> Tuple:
    """Content key of one model-sweep row (sld / interleaving)."""
    return (
        "ablations", study, value, dataclasses.astuple(config),
        num_samples, seed,
    )


@dataclass(frozen=True)
class AblationUnit:
    """One ablation row as a runtime WorkUnit.

    ``study`` selects the table ("sld" | "interleaving" | "margin" |
    "locality"); ``value`` is its swept parameter (a model name for
    the first two, a margin / locality float for the rest).  The fixed
    axes of the margin and locality studies ride in the module
    constants, which :func:`plan` and the ``run_*`` defaults share.
    """

    study: str
    value: Union[str, float]
    config: SprintConfig
    num_samples: int
    seed: int

    @property
    def key(self) -> Tuple:
        if self.study == "margin":
            return (
                "ablations", "margin", self.value, MARGIN_PRUNING_RATE,
                MARGIN_NOISE_SIGMA, self.num_samples, self.seed,
            )
        if self.study == "locality":
            return (
                "ablations", "locality", self.value,
                dataclasses.astuple(self.config), LOCALITY_SEQ_LEN,
                LOCALITY_PRUNING_RATE, self.seed,
            )
        return _unit_key(
            self.study, self.value, self.config, self.num_samples, self.seed
        )

    @property
    def group(self) -> Tuple[str, str, str]:
        return ("ablations", self.config.name, self.study)

    def execute(self) -> AblationRow:
        if self.study == "sld":
            return _sld_row(
                self.value, self.config, self.num_samples, self.seed
            )
        if self.study == "interleaving":
            return _interleaving_row(
                self.value, self.config, self.num_samples, self.seed
            )
        if self.study == "margin":
            return _margin_row(
                self.value, MARGIN_PRUNING_RATE, MARGIN_NOISE_SIGMA,
                self.num_samples, self.seed,
            )
        return _locality_row(
            self.value, self.config, LOCALITY_SEQ_LEN,
            LOCALITY_PRUNING_RATE, self.seed,
        )


#: Rows installed by :func:`prime` (computed in a worker process or
#: replayed from the unit cache); consulted by the studies before
#: simulating a row locally.
_PRIMED = Primed()
prime = _PRIMED.prime
clear_primed = _PRIMED.clear_primed


def plan(
    models: Sequence[str] = SLD_MODELS,
    interleaving_models: Sequence[str] = INTERLEAVING_MODELS,
    margins: Sequence[float] = DEFAULT_MARGINS,
    localities: Sequence[float] = DEFAULT_LOCALITIES,
    config: SprintConfig = S_SPRINT,
    seed: int = DEFAULT_SEED,
) -> List[AblationUnit]:
    """Work units a same-argument :func:`run` consumes (for sharding)."""
    units = [
        AblationUnit(
            study="sld", value=m, config=config, num_samples=1, seed=seed
        )
        for m in models
    ]
    units.extend(
        AblationUnit(
            study="interleaving", value=m, config=L_SPRINT,
            num_samples=1, seed=seed,
        )
        for m in interleaving_models
    )
    units.extend(
        AblationUnit(
            study="margin", value=margin, config=config,
            num_samples=MARGIN_NUM_SAMPLES, seed=MARGIN_SEED,
        )
        for margin in margins
    )
    units.extend(
        AblationUnit(
            study="locality", value=locality, config=config,
            num_samples=1, seed=seed,
        )
        for locality in localities
    )
    return units


def format_tables(
    sld: List[SldAblationRow],
    inter: List[InterleavingAblationRow],
    margin: List[MarginAblationRow],
    locality: List[LocalityAblationRow],
) -> str:
    lines = ["Ablation studies", "", "1. SLD reuse (traffic saving):"]
    for r in sld:
        lines.append(
            f"   {r.model:<10} {r.traffic_saving:6.2f}x less traffic with SLD"
        )
    lines.append("2. Token interleaving (cycle cost of sequential mapping):")
    for r in inter:
        lines.append(
            f"   {r.model:<10} sequential is "
            f"{r.slowdown_without_interleaving:5.2f}x slower"
        )
    lines.append("3. Threshold noise margin:")
    for r in margin:
        lines.append(
            f"   margin={r.margin:.2f}: pruning {r.pruning_rate:6.1%}, "
            f"accuracy {r.accuracy:.3f}"
        )
    lines.append("4. Locality sensitivity:")
    for r in locality:
        lines.append(
            f"   locality={r.locality:.1f}: overlap {r.measured_overlap:6.1%},"
            f" energy reduction {r.energy_reduction:6.2f}x"
        )
    return "\n".join(lines)


def run():
    """Aggregate runner-compatible entry point."""
    return (
        run_sld_ablation(),
        run_interleaving_ablation(),
        run_margin_ablation(),
        run_locality_ablation(),
    )


def format_table(rows) -> str:
    return format_tables(*rows)


def main() -> None:  # pragma: no cover
    print(format_table(run()))


if __name__ == "__main__":  # pragma: no cover
    main()
