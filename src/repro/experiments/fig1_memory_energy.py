"""Figure 1: % of energy spent on memory accesses vs on-chip capacity.

Sweeps the fraction of requisite on-chip buffering (20%-100%) across
sequence lengths 32-4096 on the *baseline* design and reports the share
of total energy consumed by main-memory accesses.  The paper's headline:
at 20% capacity the memory share exceeds 60% on average.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.core.configs import S_SPRINT, SprintConfig
from repro.core.system import ExecutionMode, SprintSystem
from repro.workloads.generator import WorkloadSample

import numpy as np

SEQ_LENGTHS = (32, 64, 128, 256, 512, 1024, 2048, 4096)
CAPACITY_FRACTIONS = (0.2, 0.4, 0.6, 0.8, 1.0)


@dataclass(frozen=True)
class Fig1Row:
    seq_len: int
    capacity_fraction: float
    memory_energy_fraction: float


def _config_with_capacity(seq_len: int, fraction: float) -> SprintConfig:
    """A baseline config whose K/V buffers hold ``fraction`` of the keys."""
    vectors = max(1, int(round(seq_len * fraction)))
    kb = max(2, (2 * vectors * S_SPRINT.vector_bytes) // 1024)
    # Rebuild an S-SPRINT-like config with the scaled cache.
    return SprintConfig(
        name=f"fig1-{int(fraction * 100)}pct",
        num_corelets=S_SPRINT.num_corelets,
        onchip_cache_kb=kb,
        num_qkpu=1, num_vpu=1, num_softmax=1,
        query_buffer_bytes=64, index_buffer_bytes=512,
    )


def run(
    seq_lengths: Sequence[int] = SEQ_LENGTHS,
    fractions: Sequence[float] = CAPACITY_FRACTIONS,
) -> List[Fig1Row]:
    """Reproduce the Figure 1 sweep on the baseline design."""
    if any(s < 1 for s in seq_lengths):
        raise ValueError(f"seq_lengths must all be >= 1, got {tuple(seq_lengths)}")
    rows: List[Fig1Row] = []
    for s in seq_lengths:
        sample = WorkloadSample(
            keep_mask=np.ones((s, s), dtype=bool), valid_len=s, seq_len=s
        )
        for fraction in fractions:
            config = _config_with_capacity(s, fraction)
            system = SprintSystem(config)
            report = system.simulate_sample(sample, ExecutionMode.BASELINE)
            rows.append(
                Fig1Row(
                    seq_len=s,
                    capacity_fraction=fraction,
                    memory_energy_fraction=report.energy.read_fraction(),
                )
            )
    return rows


def format_table(rows: List[Fig1Row]) -> str:
    fractions = sorted({r.capacity_fraction for r in rows})
    seqs = sorted({r.seq_len for r in rows})
    lines = [
        "Figure 1: % energy on memory accesses (rows: S, cols: capacity %)",
        "S \\ cap%  " + "  ".join(f"{int(f * 100):>5d}%" for f in fractions),
    ]
    for s in seqs:
        vals = [
            next(
                r.memory_energy_fraction
                for r in rows
                if r.seq_len == s and r.capacity_fraction == f
            )
            for f in fractions
        ]
        lines.append(
            f"S={s:<6d}  " + "  ".join(f"{v:>5.1%}" for v in vals)
        )
    return "\n".join(lines)


def main() -> None:  # pragma: no cover - CLI convenience
    print(format_table(run()))


if __name__ == "__main__":  # pragma: no cover
    main()
