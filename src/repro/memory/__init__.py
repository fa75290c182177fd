"""SPRINT memory subsystem: commands, timing, layout, controller engines.

Implements paper section V: the ReRAM main-memory command protocol with
the two new commands (``CopyQ``, ``ReadP``) and the ``tAxTh`` timing
constraint, bank/row-buffer state machines, the channel-interleaved K/V
data layout, and the controller frontend engines -- Spatial Locality
Detection (SLD), Memory Request Generator (MRG), and Key Index Generator
(KIG).
"""

from repro._lazy import attach

__all__ = [
    "ControllerFrontend",
    "FrontendStats",
    "CommandKind",
    "MemoryCommand",
    "MemoryRequest",
    "TimingParameters",
    "Bank",
    "Channel",
    "MemoryDevice",
    "KVLayout",
    "PhysicalAddress",
    "SpatialLocalityDetector",
    "SLDOutput",
    "MemoryRequestGenerator",
    "KeyIndexGenerator",
    "CommandScheduler",
    "SprintMemoryController",
    "ControllerStats",
]

__getattr__, __dir__ = attach(
    __name__,
    {
        "commands": ("CommandKind", "MemoryCommand", "MemoryRequest"),
        "controller": ("ControllerStats", "SprintMemoryController"),
        "dram": ("Bank", "Channel", "MemoryDevice"),
        "layout": ("KVLayout", "PhysicalAddress"),
        "mrg": ("KeyIndexGenerator", "MemoryRequestGenerator"),
        "scheduler": ("CommandScheduler",),
        "sld": ("SpatialLocalityDetector", "SLDOutput"),
        "timing": ("TimingParameters",),
        "frontend": ("ControllerFrontend", "FrontendStats"),
    },
)
