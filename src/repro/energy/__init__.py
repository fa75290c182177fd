"""Energy, area, and throughput models (paper Tables II and III)."""

from repro._lazy import attach

__all__ = [
    "EnergyConstants",
    "TABLE_II",
    "EnergyModel",
    "EnergyBreakdown",
    "PriorWork",
    "PRIOR_WORK",
    "AcceleratorMetrics",
    "dennard_scale_energy",
]

__getattr__, __dir__ = attach(
    __name__,
    {
        "constants": ("EnergyConstants", "TABLE_II"),
        "model": ("EnergyBreakdown", "EnergyModel"),
        "area": (
            "PriorWork",
            "PRIOR_WORK",
            "AcceleratorMetrics",
            "dennard_scale_energy",
        ),
    },
)
