"""Figure 9: task quality under the four hardware scenarios.

Per benchmark model: (1) software baseline, (2) ideal runtime pruning,
(3) SPRINT without on-chip recompute, (4) full SPRINT.  Classification
models report accuracy (higher better); the GPT-2-L stand-in reports
perplexity (lower better).  The paper's findings: SPRINT degrades
accuracy by 0.36% on average, while dropping the recompute costs ~4%.

Shardable: each model's four-policy evaluation is an independent
:class:`Fig9Unit` on the runtime's WorkUnit protocol
(``plan``/``prime``/``clear_primed``).  The unit key embeds the
model's *effective* seed (``seed + position``), exactly what a serial
``run`` would use, so sharded artifacts are byte-identical at every
``--jobs`` value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.attention.policies import (
    ExactPolicy,
    RuntimePruningPolicy,
    SprintPolicy,
)
from repro.experiments.primed import Primed
from repro.models.tasks import (
    evaluate_accuracy,
    evaluate_perplexity,
    make_classification_task,
    make_lm_task,
)
from repro.models.zoo import get_model

DEFAULT_MODELS = (
    "BERT-B", "BERT-L", "ALBERT-XL", "ALBERT-XXL", "ViT-B", "GPT-2-L",
)


@dataclass(frozen=True)
class Fig9Row:
    model: str
    metric: str
    baseline: float
    runtime_pruning: float
    sprint_no_recompute: float
    sprint: float

    @property
    def sprint_degradation(self) -> float:
        """Absolute quality drop of SPRINT vs baseline (sign-corrected)."""
        if self.metric == "perplexity":
            return self.sprint - self.baseline
        return self.baseline - self.sprint


def _evaluate_model(
    name: str, num_samples: int, seq_len: int, model_seed: int
) -> Fig9Row:
    """All four policy scenarios for one model at its effective seed."""
    spec = get_model(name)
    rate = spec.pruning_rate
    policies = {
        "baseline": ExactPolicy(),
        "runtime_pruning": RuntimePruningPolicy(rate),
        "no_recompute": SprintPolicy(rate, recompute=False),
        "sprint": SprintPolicy(rate, recompute=True),
    }
    if spec.is_generative:
        task = make_lm_task(
            num_samples=num_samples, seq_len=seq_len, seed=model_seed
        )
        vals = {
            k: evaluate_perplexity(task, p) for k, p in policies.items()
        }
        metric = "perplexity"
    else:
        task = make_classification_task(
            num_samples=num_samples, seq_len=seq_len, seed=model_seed
        )
        vals = {
            k: evaluate_accuracy(task, p) for k, p in policies.items()
        }
        metric = "accuracy"
    return Fig9Row(
        model=name,
        metric=metric,
        baseline=vals["baseline"],
        runtime_pruning=vals["runtime_pruning"],
        sprint_no_recompute=vals["no_recompute"],
        sprint=vals["sprint"],
    )


@dataclass(frozen=True)
class Fig9Unit:
    """One model's quality evaluation as a runtime WorkUnit.

    ``model_seed`` is the effective task seed (``seed + position`` of
    the model in the requested tuple) -- embedding it rather than the
    position keeps the key content-addressed: the same model evaluated
    at the same seed replays from cache regardless of where it sits in
    a later run's model list.
    """

    model: str
    num_samples: int
    seq_len: int
    model_seed: int

    @property
    def key(self) -> Tuple:
        return (
            "fig9", self.model, self.num_samples, self.seq_len,
            self.model_seed,
        )

    @property
    def group(self) -> Tuple[str, str]:
        return ("fig9", self.model)

    def execute(self) -> Fig9Row:
        return _evaluate_model(
            self.model, self.num_samples, self.seq_len, self.model_seed
        )


#: Rows installed by :func:`prime` (computed in a worker process or
#: replayed from the unit cache); consulted by :func:`run`.
_PRIMED = Primed()
prime = _PRIMED.prime
clear_primed = _PRIMED.clear_primed


def plan(
    models: Sequence[str] = DEFAULT_MODELS,
    num_samples: int = 32,
    seq_len: int = 96,
    seed: int = 17,
) -> List[Fig9Unit]:
    """Work units a same-argument :func:`run` consumes (for sharding)."""
    if num_samples < 1:
        raise ValueError(f"num_samples must be >= 1, got {num_samples}")
    return [
        Fig9Unit(
            model=name,
            num_samples=num_samples,
            seq_len=seq_len,
            model_seed=seed + index,
        )
        for index, name in enumerate(models)
    ]


def run(
    models: Sequence[str] = DEFAULT_MODELS,
    num_samples: int = 32,
    seq_len: int = 96,
    seed: int = 17,
) -> List[Fig9Row]:
    return [
        _PRIMED.result(unit)
        for unit in plan(
            models=models, num_samples=num_samples, seq_len=seq_len, seed=seed
        )
    ]


def average_degradation(rows: List[Fig9Row]) -> float:
    """Mean absolute accuracy degradation (classification rows only)."""
    acc = [r.sprint_degradation for r in rows if r.metric == "accuracy"]
    return float(np.mean(acc)) if acc else 0.0


def format_table(rows: List[Fig9Row]) -> str:
    lines = [
        "Figure 9: task quality under the four scenarios",
        f"{'model':<12} {'metric':<11} {'baseline':>9} {'pruning':>9} "
        f"{'w/o rec.':>9} {'SPRINT':>9}",
    ]
    for r in rows:
        lines.append(
            f"{r.model:<12} {r.metric:<11} {r.baseline:>9.4f} "
            f"{r.runtime_pruning:>9.4f} {r.sprint_no_recompute:>9.4f} "
            f"{r.sprint:>9.4f}"
        )
    lines.append(
        f"avg accuracy degradation (SPRINT vs baseline): "
        f"{average_degradation(rows):+.4f}"
    )
    return "\n".join(lines)


def main() -> None:  # pragma: no cover
    print(format_table(run()))


if __name__ == "__main__":  # pragma: no cover
    main()
