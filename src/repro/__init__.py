"""Reproduction of SPRINT (MICRO 2022).

SPRINT accelerates transformer self-attention by pruning low-score
query-key pairs *inside* ReRAM memory (approximate analog thresholding)
and recomputing only the surviving scores on chip in full precision.

Top-level convenience re-exports cover the most common entry points;
each subpackage carries the full API.  Every package resolves its
exported names on first use (:mod:`repro._lazy`), so importing one
executes only its ``__init__``:

- :mod:`repro.attention`   -- attention math, runtime pruning, quantization
- :mod:`repro.models`      -- numpy transformer zoo and synthetic tasks
- :mod:`repro.reram`       -- ReRAM crossbar / transposable-array substrate
- :mod:`repro.memory`      -- memory controller, commands, timing, SLD engine
- :mod:`repro.accelerator` -- CORELET on-chip accelerator and baseline
- :mod:`repro.energy`      -- Table II energy constants and accounting
- :mod:`repro.workloads`   -- calibrated synthetic pruning/padding workloads
- :mod:`repro.core`        -- the SPRINT system simulator (the contribution)
- :mod:`repro.serving`     -- multi-request traffic, batching, tail latency
- :mod:`repro.experiments` -- one module per paper figure/table
"""

from repro._lazy import attach

__all__ = [
    "SprintConfig",
    "S_SPRINT",
    "M_SPRINT",
    "L_SPRINT",
    "SprintSystem",
    "ExecutionMode",
    "ModelSpec",
    "MODEL_ZOO",
    "get_model",
]

__getattr__, __dir__ = attach(
    __name__,
    {
        "core.configs": ("SprintConfig", "L_SPRINT", "M_SPRINT", "S_SPRINT"),
        "core.system": ("ExecutionMode", "SprintSystem"),
        "models.zoo": ("MODEL_ZOO", "ModelSpec", "get_model"),
    },
)

__version__ = "1.0.0"
