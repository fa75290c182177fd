"""Behavioural ReRAM substrate: crossbars, MLC cells, transposable arrays.

Models the analog machinery SPRINT relies on (paper sections III and V):

- :mod:`repro.reram.cell` -- multi-level-cell conductance mapping with
  process variation (4 bits/cell, the robustness sweet spot).
- :mod:`repro.reram.noise` -- output-referred analog noise giving the
  "5-bit equivalent output accuracy" of a 64-tap in-memory dot product.
- :mod:`repro.reram.adc` -- DAC/ADC quantizers and the analog comparator.
- :mod:`repro.reram.crossbar` -- vector-matrix multiply on one array.
- :mod:`repro.reram.transposable` -- in-situ compute + transposed read.
- :mod:`repro.reram.thresholding` -- the full in-memory thresholding
  dataflow: tiled KMSB storage, per-query analog compare, 1-bit pruning
  vector out.
"""

from repro._lazy import attach

__all__ = [
    "EnduranceTracker",
    "BankAllocator",
    "BankType",
    "MatrixKind",
    "Region",
    "MLCCellModel",
    "OutputNoiseModel",
    "DAC",
    "ADC",
    "AnalogComparator",
    "CrossbarArray",
    "CrossbarStats",
    "TransposableArray",
    "InMemoryThresholdingUnit",
    "ThresholdingStats",
]

__getattr__, __dir__ = attach(
    __name__,
    {
        "adc": ("ADC", "DAC", "AnalogComparator"),
        "cell": ("MLCCellModel",),
        "crossbar": ("CrossbarArray", "CrossbarStats"),
        "noise": ("OutputNoiseModel",),
        "thresholding": ("InMemoryThresholdingUnit", "ThresholdingStats"),
        "transposable": ("TransposableArray",),
        "endurance": ("EnduranceTracker",),
        "mapping": ("BankAllocator", "BankType", "MatrixKind", "Region"),
    },
)
