"""The SPRINT system: configurations, simulator, and reports."""

from repro._lazy import attach

__all__ = [
    "BatchedKernel",
    "BatchedWorkload",
    "simulate_sld_traffic",
    "DesignPoint",
    "sweep",
    "pareto_frontier",
    "best_under_area",
    "MultiHeadSimulator",
    "ModelReport",
    "SprintConfig",
    "S_SPRINT",
    "M_SPRINT",
    "L_SPRINT",
    "SPRINT_CONFIGS",
    "BASELINE_SUFFIX",
    "SprintSystem",
    "ExecutionMode",
    "SimulationReport",
    "HeadReport",
]

__getattr__, __dir__ = attach(
    __name__,
    {
        "configs": (
            "BASELINE_SUFFIX",
            "L_SPRINT",
            "M_SPRINT",
            "S_SPRINT",
            "SPRINT_CONFIGS",
            "SprintConfig",
        ),
        "design_space": ("DesignPoint", "best_under_area", "pareto_frontier", "sweep"),
        "batched": ("BatchedKernel", "BatchedWorkload", "simulate_sld_traffic"),
        "multihead": ("ModelReport", "MultiHeadSimulator"),
        "results": ("HeadReport", "SimulationReport"),
        "system": ("ExecutionMode", "SprintSystem"),
    },
)
