"""One module per paper figure/table, plus a run-everything CLI.

Every module exposes ``run(...)`` returning structured rows and
``format_table(rows)`` printing the same series the paper reports.
``repro.experiments.runner`` drives them all and writes the
paper-vs-measured summary consumed by EXPERIMENTS.md.
"""

from repro._lazy import attach

__all__ = [
    "ablations",
    "decode",
    "fig1_memory_energy",
    "fig2_heatmap",
    "fig3_overlap",
    "fig5_bit_sensitivity",
    "fig8_imbalance",
    "fig9_accuracy",
    "fig10_data_movement",
    "fig11_speedup",
    "fig12_energy",
    "fig13_breakdown",
    "ffn_end_to_end",
    "resilience",
    "sensitivity",
    "serving",
    "table3_comparison",
]

__getattr__, __dir__ = attach(__name__, {})
