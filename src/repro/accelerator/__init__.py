"""SPRINT on-chip accelerator: CORELETs, processing units, buffers.

Implements paper section VI: N independent CORELETs, each a pipelined
QK-PU (64-tap 8-bit dot product) -> Softmax (12-bit in, 8-bit out,
two-LUT exponent) -> V-PU chain, with K/V/index buffers, stream-style
Q handling, token interleaving for load balance, and a rotating pointer
to bypass rare data misses.  The baseline design (same resources, no
pruning / no SPRINT controller / no 2-D reduction) lives here too.
"""

from repro._lazy import attach

__all__ = [
    "SprintEngine",
    "EngineStats",
    "FixedPointFormat",
    "saturating_mac",
    "lut_exponential",
    "SRAMBuffer",
    "IndexBuffer",
    "BufferStats",
    "QKProcessingUnit",
    "VProcessingUnit",
    "SoftmaxUnit",
    "Corelet",
    "CoreletStats",
    "SoftmaxPartial",
    "BaselineTraffic",
    "baseline_head_traffic",
    "baseline_compute_cycles",
    "assign_tokens",
    "imbalance_ratio",
    "workload_imbalance",
]

__getattr__, __dir__ = attach(
    __name__,
    {
        "arithmetic": ("FixedPointFormat", "lut_exponential", "saturating_mac"),
        "buffers": ("BufferStats", "IndexBuffer", "SRAMBuffer"),
        "corelet": ("Corelet", "CoreletStats", "SoftmaxPartial"),
        "engine": ("EngineStats", "SprintEngine"),
        "baseline": (
            "BaselineTraffic",
            "baseline_compute_cycles",
            "baseline_head_traffic",
        ),
        "interleave": ("assign_tokens", "imbalance_ratio", "workload_imbalance"),
        "qkpu": ("QKProcessingUnit",),
        "softmax_unit": ("SoftmaxUnit",),
        "vpu": ("VProcessingUnit",),
    },
)
