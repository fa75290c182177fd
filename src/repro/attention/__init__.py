"""Attention math, learned runtime pruning, and quantization utilities.

This package is the *functional* substrate of the reproduction: it
implements exact multi-head self-attention (numpy), the learned-threshold
runtime-pruning mechanism SPRINT builds upon (LeOPArd-style), the
quantization used for in-memory thresholding (MSB/LSB bit split, b-bit
score quantization, Eq. 3 of the paper), padding-mask helpers
(two-dimensional sequence reduction, paper section II-C3), and the
spatial-locality mathematics of Eq. 1.
"""

from repro._lazy import attach

__all__ = [
    "MultiHeadRuntime",
    "MultiHeadResult",
    "HeadStats",
    "ScorePolicy",
    "ExactPolicy",
    "RuntimePruningPolicy",
    "SprintPolicy",
    "msb_truncated_scores",
    "softmax",
    "scaled_dot_product_attention",
    "attention_probabilities",
    "multi_head_attention",
    "padding_mask",
    "apply_padding_mask",
    "two_dimensional_reduction",
    "PruningResult",
    "calibrate_threshold",
    "prune_scores",
    "runtime_prune",
    "threshold_keep_mask",
    "QuantizedTensor",
    "symmetric_quantize",
    "dequantize",
    "split_msb_lsb",
    "combine_msb_lsb",
    "quantize_scores",
    "expected_random_overlap",
    "measure_adjacent_overlap",
    "overlap_ratio_vs_random",
]

__getattr__, __dir__ = attach(
    __name__,
    {
        "heads": ("HeadStats", "MultiHeadResult", "MultiHeadRuntime"),
        "policies": (
            "ExactPolicy",
            "RuntimePruningPolicy",
            "ScorePolicy",
            "SprintPolicy",
            "msb_truncated_scores",
        ),
        "functional": (
            "attention_probabilities",
            "multi_head_attention",
            "scaled_dot_product_attention",
            "softmax",
        ),
        "locality": (
            "expected_random_overlap",
            "measure_adjacent_overlap",
            "overlap_ratio_vs_random",
        ),
        "masking": ("apply_padding_mask", "padding_mask", "two_dimensional_reduction"),
        "pruning": (
            "PruningResult",
            "calibrate_threshold",
            "prune_scores",
            "runtime_prune",
            "threshold_keep_mask",
        ),
        "quantization": (
            "QuantizedTensor",
            "combine_msb_lsb",
            "dequantize",
            "quantize_scores",
            "split_msb_lsb",
            "symmetric_quantize",
        ),
    },
)
