"""Synthetic workloads calibrated to the paper's published statistics.

The performance-side experiments (Figs. 8, 10, 11, 12, 13) consume only
streams of *pruning masks* and *padding masks*.  The paper derives these
from fine-tuned models on SQUAD/GLUE/CIFAR/WikiText; we generate masks
with the same first-order statistics: per-model pruning rate, padding
fraction, and the 2-3x over-random adjacent-query overlap of Figure 3.
"""

from repro._lazy import attach

__all__ = [
    "WorkloadSample",
    "bucket_workloads",
    "generate_workload",
    "generate_random_masks",
    "structured_keep_mask",
    "calibrated_score_matrix",
    "heavy_tailed_scores",
]

__getattr__, __dir__ = attach(
    __name__,
    {
        "generator": (
            "WorkloadSample",
            "bucket_workloads",
            "generate_random_masks",
            "generate_workload",
            "structured_keep_mask",
        ),
        "distributions": ("calibrated_score_matrix", "heavy_tailed_scores"),
    },
)
