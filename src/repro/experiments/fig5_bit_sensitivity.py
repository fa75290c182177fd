"""Figure 5: model accuracy vs in-memory score precision (b = 1..8).

Applies Eq. 3 with a ``b``-bit in-memory score deciding the pruning and
the exact scores recomputed for survivors.  The paper's finding: 4-bit
precision has virtually no accuracy impact; 1-2 bits collapse.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.attention.policies import ExactPolicy, SprintPolicy
from repro.models.tasks import (
    evaluate_accuracy,
    make_classification_task,
)

BIT_RANGE = tuple(range(1, 9))

#: Synthetic stand-ins for the paper's three task/model combinations.
TASK_SPECS = {
    "BERT-MRPC(synthetic)": dict(seed=11, pruning_rate=0.746),
    "BERT-SQUAD(synthetic)": dict(seed=23, pruning_rate=0.746),
    "ViT(synthetic)": dict(seed=31, pruning_rate=0.644),
}


@dataclass(frozen=True)
class Fig5Row:
    task: str
    bits: int
    accuracy: float
    baseline_accuracy: float


def run(
    bits: Sequence[int] = BIT_RANGE,
    num_samples: int = 32,
    seq_len: int = 96,
) -> List[Fig5Row]:
    if num_samples < 1:
        raise ValueError(f"num_samples must be >= 1, got {num_samples}")
    rows: List[Fig5Row] = []
    for task_name, spec in TASK_SPECS.items():
        task = make_classification_task(
            num_samples=num_samples, seq_len=seq_len, seed=spec["seed"]
        )
        baseline = evaluate_accuracy(task, ExactPolicy())
        for b in bits:
            policy = SprintPolicy(
                pruning_rate=spec["pruning_rate"],
                score_bits=b,
                recompute=True,
            )
            rows.append(
                Fig5Row(
                    task=task_name,
                    bits=b,
                    accuracy=evaluate_accuracy(task, policy),
                    baseline_accuracy=baseline,
                )
            )
    return rows


def accuracy_curves(rows: List[Fig5Row]) -> Dict[str, Dict[int, float]]:
    curves: Dict[str, Dict[int, float]] = {}
    for r in rows:
        curves.setdefault(r.task, {})[r.bits] = r.accuracy
    return curves


def format_table(rows: List[Fig5Row]) -> str:
    curves = accuracy_curves(rows)
    bits = sorted({r.bits for r in rows})
    lines = [
        "Figure 5: accuracy vs in-memory score bits (with recompute)",
        f"{'task':<24} " + " ".join(f"b={b:<5d}" for b in bits) + " base",
    ]
    for task, curve in curves.items():
        base = next(r.baseline_accuracy for r in rows if r.task == task)
        vals = " ".join(f"{curve[b]:<7.3f}" for b in bits)
        lines.append(f"{task:<24} {vals} {base:.3f}")
    return "\n".join(lines)


def main() -> None:  # pragma: no cover
    print(format_table(run()))


if __name__ == "__main__":  # pragma: no cover
    main()
