"""Transformer model zoo and synthetic evaluation tasks (pure numpy).

The paper evaluates fine-tuned HuggingFace checkpoints; this environment
has no network or PyTorch, so the zoo carries each model's *published*
architectural and pruning statistics (sequence length, pruning rate,
padding fraction, metric) and the accuracy experiments run on a numpy
transformer with planted attention structure -- see DESIGN.md section 2
for why this preserves the behaviour under study.
"""

from repro._lazy import attach

__all__ = [
    "LinearLayer",
    "QKVProjection",
    "FeedForward",
    "ModelSpec",
    "MODEL_ZOO",
    "get_model",
    "list_models",
    "TransformerConfig",
    "TransformerClassifier",
    "SyntheticTask",
    "make_classification_task",
    "make_lm_task",
    "evaluate_accuracy",
    "evaluate_perplexity",
]

__getattr__, __dir__ = attach(
    __name__,
    {
        "zoo": ("MODEL_ZOO", "ModelSpec", "get_model", "list_models"),
        "projection": ("FeedForward", "LinearLayer", "QKVProjection"),
        "transformer": ("TransformerClassifier", "TransformerConfig"),
        "tasks": (
            "SyntheticTask",
            "evaluate_accuracy",
            "evaluate_perplexity",
            "make_classification_task",
            "make_lm_task",
        ),
    },
)
