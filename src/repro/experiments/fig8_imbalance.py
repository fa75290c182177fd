"""Figure 8: CORELET workload imbalance, sequential vs token-interleaved.

Computes the max/min unpruned-token ratio per query averaged over the
workload, for 2/4/8/16 CORELETs.  Token interleaving (adjacent keys to
different CORELETs) should sit far closer to the ideal 1.0 than the
sequential block mapping, because unpruned indices cluster spatially.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.accelerator.interleave import workload_imbalance
from repro.models.zoo import get_model
from repro.workloads.generator import generate_workload

DEFAULT_MODELS = ("BERT-B", "ViT-B", "GPT-2-L")
CORELET_COUNTS = (2, 4, 8, 16)


@dataclass(frozen=True)
class Fig8Row:
    model: str
    num_corelets: int
    sequential_imbalance: float
    interleaved_imbalance: float


def run(
    models: Sequence[str] = DEFAULT_MODELS,
    corelet_counts: Sequence[int] = CORELET_COUNTS,
    num_samples: int = 2,
    seed: int = 0,
) -> List[Fig8Row]:
    if num_samples < 1:
        raise ValueError(f"num_samples must be >= 1, got {num_samples}")
    rows: List[Fig8Row] = []
    for name in models:
        spec = get_model(name)
        workload = generate_workload(
            seq_len=min(spec.seq_len, 512),
            pruning_rate=spec.pruning_rate,
            padding_ratio=spec.padding_ratio,
            num_samples=num_samples,
            locality=spec.locality,
            causal=spec.causal,
            seed=seed,
        )
        for n in corelet_counts:
            seq_vals, int_vals = [], []
            for sample in workload:
                keep = sample.keep_mask[: sample.valid_len, : sample.valid_len]
                seq_vals.append(workload_imbalance(keep, n, "sequential"))
                int_vals.append(workload_imbalance(keep, n, "interleaved"))
            rows.append(
                Fig8Row(
                    model=name,
                    num_corelets=n,
                    sequential_imbalance=float(np.mean(seq_vals)),
                    interleaved_imbalance=float(np.mean(int_vals)),
                )
            )
    return rows


def format_table(rows: List[Fig8Row]) -> str:
    lines = [
        "Figure 8: CORELET imbalance (1.0 = ideal balance)",
        f"{'model':<10} {'corelets':>8} {'sequential':>11} {'interleaved':>12}",
    ]
    for r in rows:
        lines.append(
            f"{r.model:<10} {r.num_corelets:>8d} "
            f"{r.sequential_imbalance:>10.3f} {r.interleaved_imbalance:>11.3f}"
        )
    return "\n".join(lines)


def main() -> None:  # pragma: no cover
    print(format_table(run()))


if __name__ == "__main__":  # pragma: no cover
    main()
