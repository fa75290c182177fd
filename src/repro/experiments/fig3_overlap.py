"""Figure 3: adjacent-query overlap -- real workloads vs random pruning.

For each benchmark, measures the mean fraction of a query's unpruned
keys already unpruned for the previous query, on (a) the calibrated
structured workload and (b) random masks at the same pruning rate, and
compares against the Eq. 1 theoretical expectation.  The paper observes
a striking 2-3x gap between (a) and (b)/(theory).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.attention.locality import (
    expected_random_overlap,
    measure_adjacent_overlap,
)
from repro.models.zoo import get_model
from repro.workloads.generator import generate_random_masks, generate_workload

DEFAULT_MODELS = ("BERT-B", "ViT-B", "ALBERT-XXL")


@dataclass(frozen=True)
class Fig3Row:
    model: str
    dataset: str
    real_overlap: float
    random_overlap: float
    theoretical_overlap: float
    ratio_vs_random: float


def run(
    models: Sequence[str] = DEFAULT_MODELS,
    num_samples: int = 2,
    seed: int = 0,
) -> List[Fig3Row]:
    if num_samples < 1:
        raise ValueError(f"num_samples must be >= 1, got {num_samples}")
    rows: List[Fig3Row] = []
    for name in models:
        spec = get_model(name)
        seq = min(spec.seq_len, 512)  # keep the sweep fast at iso-shape
        workload = generate_workload(
            seq_len=seq,
            pruning_rate=spec.pruning_rate,
            padding_ratio=0.0,  # overlap is measured inside the valid area
            num_samples=num_samples,
            locality=spec.locality,
            causal=spec.causal,
            seed=seed,
        )
        real = float(
            np.mean([measure_adjacent_overlap(s.keep_mask) for s in workload])
        )
        random_masks = generate_random_masks(
            seq, spec.pruning_rate, count=num_samples,
            rng=np.random.default_rng(seed),
        )
        random_overlap = float(
            np.mean([measure_adjacent_overlap(m) for m in random_masks])
        )
        unpruned = max(1, round(seq * (1.0 - spec.pruning_rate)))
        theory = expected_random_overlap(seq, unpruned) / unpruned
        rows.append(
            Fig3Row(
                model=name,
                dataset=spec.dataset,
                real_overlap=real,
                random_overlap=random_overlap,
                theoretical_overlap=theory,
                ratio_vs_random=real / max(random_overlap, 1e-9),
            )
        )
    return rows


def format_table(rows: List[Fig3Row]) -> str:
    lines = [
        "Figure 3: adjacent-query unpruned-key overlap",
        f"{'model':<12} {'dataset':<10} {'real':>7} {'random':>7} "
        f"{'theory':>7} {'ratio':>6}",
    ]
    for r in rows:
        lines.append(
            f"{r.model:<12} {r.dataset:<10} {r.real_overlap:>6.1%} "
            f"{r.random_overlap:>6.1%} {r.theoretical_overlap:>6.1%} "
            f"{r.ratio_vs_random:>5.2f}x"
        )
    return "\n".join(lines)


def main() -> None:  # pragma: no cover
    print(format_table(run()))


if __name__ == "__main__":  # pragma: no cover
    main()
