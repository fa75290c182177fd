"""Sensitivity sweeps: how SPRINT's benefit scales with the inputs.

Two studies that extend the paper's evaluation along its own axes:

1. **Pruning-rate sweep** -- the learned thresholds achieve 64-76%
   across the paper's models; how do speedup/energy scale if a model
   prunes more or less aggressively?  (This is the knob the threshold
   margin of section III-A trades away.)
2. **Sequence-length sweep** -- the paper projects "futuristic" 2K/4K
   sequences with two synthetic models; this sweep traces the whole
   curve from 128 to 4096 at fixed hardware, showing where the benefit
   saturates and why (capacity coverage).

Both sweeps are shardable: every row is an independent
:class:`SensitivityUnit` on the runtime's WorkUnit protocol
(``plan``/``prime``/``clear_primed``), so ``sprint-experiments
sensitivity --jobs N`` spreads rows across workers and the unit cache
replays unchanged rows when a rate/length list is edited.  Units group
by sweep kind so a worker shard reuses one process-level
:class:`~repro.core.system.SprintSystem`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import lru_cache
from typing import List, Sequence, Tuple, Union

from repro.core.configs import S_SPRINT, SprintConfig
from repro.core.system import ExecutionMode, SprintSystem
from repro.experiments.primed import Primed
from repro.workloads.generator import generate_workload

DEFAULT_RATES = (0.3, 0.5, 0.65, 0.75, 0.85, 0.95)
DEFAULT_SEQ_LENS = (128, 256, 512, 1024, 2048, 4096)
#: Fixed axes of each sweep.  Shared by the sweep functions' defaults
#: and :func:`plan`'s unit parameters -- they must agree, or primed
#: lookups silently miss and sharded rows recompute in-parent.
RATE_SWEEP_SEQ_LEN = 384
RATE_SWEEP_PADDING = 0.0
LENGTH_SWEEP_PRUNING = 0.75


@lru_cache(maxsize=8)
def _shared_system(config: SprintConfig) -> SprintSystem:
    """One simulator per config, shared by every row a process runs
    (sweep rows are pure under their parameters, so sharing is sound;
    a worker shard only ever touches one entry)."""
    return SprintSystem(config)


@dataclass(frozen=True)
class PruningRateRow:
    pruning_rate: float
    speedup: float
    energy_reduction: float
    unpruned_per_query: float


def _pruning_rate_row(
    rate: float,
    seq_len: int,
    padding_ratio: float,
    config: SprintConfig,
    seed: int,
) -> PruningRateRow:
    """One independently computable point of the pruning-rate sweep."""
    system = _shared_system(config)
    workload = generate_workload(
        seq_len, rate, padding_ratio=padding_ratio,
        num_samples=1, seed=seed,
    )
    reports = system.simulate_modes(
        workload, (ExecutionMode.BASELINE, ExecutionMode.SPRINT), "sweep"
    )
    base = reports[ExecutionMode.BASELINE.value]
    sprint = reports[ExecutionMode.SPRINT.value]
    return PruningRateRow(
        pruning_rate=rate,
        speedup=sprint.speedup_vs(base),
        energy_reduction=sprint.energy_reduction_vs(base),
        unpruned_per_query=sprint.counts["unpruned_total"]
        / max(sprint.counts["queries"], 1),
    )


def run_pruning_rate_sweep(
    rates: Sequence[float] = DEFAULT_RATES,
    seq_len: int = RATE_SWEEP_SEQ_LEN,
    padding_ratio: float = RATE_SWEEP_PADDING,
    config: SprintConfig = S_SPRINT,
    seed: int = 1,
) -> List[PruningRateRow]:
    """SPRINT benefit as a function of achieved pruning rate."""
    rows: List[PruningRateRow] = []
    for rate in rates:
        key = _unit_key("pruning_rate", rate, seq_len, padding_ratio, config, seed)
        row = _PRIMED.get(key)
        if row is None:
            row = _pruning_rate_row(rate, seq_len, padding_ratio, config, seed)
        rows.append(row)
    return rows


@dataclass(frozen=True)
class SequenceLengthRow:
    seq_len: int
    coverage: float  # on-chip capacity / sequence length
    speedup: float
    energy_reduction: float
    data_movement_reduction: float


def _sequence_length_row(
    seq_len: int,
    pruning_rate: float,
    config: SprintConfig,
    seed: int,
) -> SequenceLengthRow:
    """One independently computable point of the length sweep."""
    system = _shared_system(config)
    workload = generate_workload(
        seq_len, pruning_rate, padding_ratio=0.0, num_samples=1, seed=seed
    )
    reports = system.simulate_modes(
        workload, (ExecutionMode.BASELINE, ExecutionMode.SPRINT), "sweep"
    )
    base = reports[ExecutionMode.BASELINE.value]
    sprint = reports[ExecutionMode.SPRINT.value]
    return SequenceLengthRow(
        seq_len=seq_len,
        coverage=min(1.0, config.kv_capacity_vectors / seq_len),
        speedup=sprint.speedup_vs(base),
        energy_reduction=sprint.energy_reduction_vs(base),
        data_movement_reduction=sprint.data_movement_reduction_vs(base),
    )


def run_sequence_length_sweep(
    seq_lens: Sequence[int] = DEFAULT_SEQ_LENS,
    pruning_rate: float = LENGTH_SWEEP_PRUNING,
    config: SprintConfig = S_SPRINT,
    seed: int = 1,
) -> List[SequenceLengthRow]:
    """SPRINT benefit vs sequence length at fixed hardware."""
    rows: List[SequenceLengthRow] = []
    for s in seq_lens:
        key = _unit_key("seq_len", s, pruning_rate, 0.0, config, seed)
        row = _PRIMED.get(key)
        if row is None:
            row = _sequence_length_row(s, pruning_rate, config, seed)
        rows.append(row)
    return rows


# ----------------------------------------------------------------------
# WorkUnit protocol (plan / prime / clear_primed)
# ----------------------------------------------------------------------
SweepRow = Union[PruningRateRow, SequenceLengthRow]


def _unit_key(
    kind: str,
    value: Union[int, float],
    fixed: Union[int, float],
    padding_ratio: float,
    config: SprintConfig,
    seed: int,
) -> Tuple:
    """Content key of one sweep row (full parameters incl. config)."""
    return (
        "sensitivity",
        kind,
        value,
        fixed,
        padding_ratio,
        dataclasses.astuple(config),
        seed,
    )


@dataclass(frozen=True)
class SensitivityUnit:
    """One sensitivity row as a runtime WorkUnit.

    ``kind`` selects the sweep ("pruning_rate" | "seq_len"); ``value``
    is its swept parameter and ``fixed`` the other axis held constant
    (the rate sweep's seq_len, the length sweep's pruning rate).  Units
    group by kind so a worker shard warms one shared SprintSystem.
    """

    kind: str
    value: Union[int, float]
    fixed: Union[int, float]
    padding_ratio: float
    config: SprintConfig
    seed: int

    @property
    def key(self) -> Tuple:
        return _unit_key(
            self.kind, self.value, self.fixed, self.padding_ratio,
            self.config, self.seed,
        )

    @property
    def group(self) -> Tuple[str, str, str]:
        return ("sensitivity", self.config.name, self.kind)

    def execute(self) -> SweepRow:
        if self.kind == "pruning_rate":
            return _pruning_rate_row(
                self.value, self.fixed, self.padding_ratio,
                self.config, self.seed,
            )
        return _sequence_length_row(
            self.value, self.fixed, self.config, self.seed
        )


#: Rows installed by :func:`prime` (computed in a worker process or
#: replayed from the unit cache); consulted by the sweeps before
#: simulating a row locally.
_PRIMED = Primed()
prime = _PRIMED.prime
clear_primed = _PRIMED.clear_primed


def plan(
    rates: Sequence[float] = DEFAULT_RATES,
    seq_lens: Sequence[int] = DEFAULT_SEQ_LENS,
    config: SprintConfig = S_SPRINT,
    seed: int = 1,
) -> List[SensitivityUnit]:
    """Work units a same-argument :func:`run` consumes (for sharding)."""
    units = [
        SensitivityUnit(
            kind="pruning_rate", value=rate, fixed=RATE_SWEEP_SEQ_LEN,
            padding_ratio=RATE_SWEEP_PADDING, config=config, seed=seed,
        )
        for rate in rates
    ]
    units.extend(
        SensitivityUnit(
            kind="seq_len", value=s, fixed=LENGTH_SWEEP_PRUNING,
            padding_ratio=0.0, config=config, seed=seed,
        )
        for s in seq_lens
    )
    return units


def format_tables(
    rate_rows: List[PruningRateRow],
    length_rows: List[SequenceLengthRow],
) -> str:
    lines = [
        "Sensitivity sweeps",
        "",
        "1. Pruning-rate sweep (S-SPRINT, s=384):",
        f"   {'rate':>5} {'speedup':>8} {'energy':>8} {'unpruned/q':>11}",
    ]
    for r in rate_rows:
        lines.append(
            f"   {r.pruning_rate:>5.0%} {r.speedup:>7.2f}x "
            f"{r.energy_reduction:>7.2f}x {r.unpruned_per_query:>11.1f}"
        )
    lines.append("2. Sequence-length sweep (S-SPRINT, 75% pruning):")
    lines.append(
        f"   {'s':>5} {'coverage':>9} {'speedup':>8} {'energy':>8} "
        f"{'traffic cut':>12}"
    )
    for r in length_rows:
        lines.append(
            f"   {r.seq_len:>5d} {r.coverage:>8.1%} {r.speedup:>7.2f}x "
            f"{r.energy_reduction:>7.2f}x {r.data_movement_reduction:>11.1%}"
        )
    return "\n".join(lines)


def run(
    rates: Sequence[float] = DEFAULT_RATES,
    seq_lens: Sequence[int] = DEFAULT_SEQ_LENS,
    config: SprintConfig = S_SPRINT,
    seed: int = 1,
):
    return (
        run_pruning_rate_sweep(rates=rates, config=config, seed=seed),
        run_sequence_length_sweep(seq_lens=seq_lens, config=config, seed=seed),
    )


def format_table(rows) -> str:
    return format_tables(*rows)


def main() -> None:  # pragma: no cover
    print(format_table(run()))


if __name__ == "__main__":  # pragma: no cover
    main()
