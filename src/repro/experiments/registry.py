"""The experiment registry: every paper figure/table, typed.

Lives apart from :mod:`repro.experiments.runner` so the parallel
runtime (:mod:`repro.runtime`) can resolve experiments without
importing the CLI (which imports the runtime back).

Each entry maps a short name to ``(fast_kwargs, module)`` where the
module satisfies :class:`ExperimentModule`: ``run(**kwargs)`` returns
the experiment's structured rows (dataclass lists, not strings) and
``format_table(rows)`` renders them as the printed paper-style table.

A module may additionally satisfy :class:`ShardableExperiment` — the
optional WorkUnit surface (:mod:`repro.runtime.units`): ``plan``
enumerates the independent simulation points behind a ``run``,
``prime`` installs an externally computed point, ``clear_primed``
drops them (one :class:`~repro.experiments.primed.Primed` store per
module).  The runtime shards any such experiment's units across worker
processes; the grid-backed figures (fig10-13, ffn, table3), fig9, the
ablations, the sensitivity sweeps and the three serving studies
(serving, decode, resilience) all opt in.
"""

from __future__ import annotations

import ast
import tokenize
from typing import Any, Callable, Dict, Protocol, Tuple, runtime_checkable

from repro._lazy import lazy_module
from repro.runtime.units import UNIT_HOOKS


@runtime_checkable
class ExperimentModule(Protocol):
    """Structural contract every registered experiment module meets."""

    run: Callable[..., Any]
    format_table: Callable[..., str]


@runtime_checkable
class ShardableExperiment(ExperimentModule, Protocol):
    """The optional WorkUnit surface a module exposes to be sharded.

    ``plan(**kwargs)`` must enumerate units for exactly the points a
    same-argument ``run(**kwargs)`` consumes; ``run`` must aggregate a
    primed point without re-simulating it.  Use
    :func:`repro.runtime.units.supports_units` to test for conformance.
    """

    plan: Callable[..., Any]
    prime: Callable[..., None]
    clear_primed: Callable[[], None]


#: Keyword arguments an experiment's ``run`` accepts (the registry
#: stores the reduced-size set used by ``--fast``).
RunKwargs = Dict[str, Any]

ExperimentSpec = Tuple[RunKwargs, ExperimentModule]


def _experiment(name: str) -> ExperimentModule:
    """Experiment module ``name``, executed on its first attribute access."""
    return lazy_module(f"{__package__}.{name}")


#: name -> (run kwargs for fast mode, module).  The modules are bound
#: lazily (:func:`repro._lazy.lazy_module`): each executes on its first
#: attribute access, so a run executes only the experiments it resolves.
EXPERIMENTS: Dict[str, ExperimentSpec] = {
    "fig1": ({"seq_lengths": (32, 128, 512)}, _experiment("fig1_memory_energy")),
    "fig2": ({}, _experiment("fig2_heatmap")),
    "fig3": ({"num_samples": 1}, _experiment("fig3_overlap")),
    "fig5": ({"num_samples": 16}, _experiment("fig5_bit_sensitivity")),
    "fig8": ({"num_samples": 1}, _experiment("fig8_imbalance")),
    "fig9": ({"num_samples": 16}, _experiment("fig9_accuracy")),
    "fig10": ({"num_samples": 1}, _experiment("fig10_data_movement")),
    "fig11": ({"num_samples": 1}, _experiment("fig11_speedup")),
    "fig12": ({"num_samples": 1}, _experiment("fig12_energy")),
    "fig13": ({"num_samples": 1}, _experiment("fig13_breakdown")),
    "ffn": ({"num_samples": 1}, _experiment("ffn_end_to_end")),
    "table3": ({"num_samples": 1}, _experiment("table3_comparison")),
    "ablations": ({}, _experiment("ablations")),
    "sensitivity": (
        {"rates": (0.3, 0.65, 0.9), "seq_lens": (128, 512, 2048)},
        _experiment("sensitivity"),
    ),
    "serving": (
        {"requests_per_point": 100, "loads": (20.0, 80.0)},
        _experiment("serving"),
    ),
    "decode": (
        {"requests_per_point": 150, "mean_output_lens": (2.0, 16.0)},
        _experiment("decode"),
    ),
    "resilience": (
        {
            "requests_per_point": 300,
            "mtbfs": (2.0, 8.0),
            "fleets": (1, 2),
        },
        _experiment("resilience"),
    ),
}


def resolve(name: str, fast: bool = False) -> Tuple[RunKwargs, ExperimentModule]:
    """The (kwargs, module) a run of ``name`` uses; KeyError if unknown."""
    if name not in EXPERIMENTS:
        raise KeyError(
            f"unknown experiment {name!r}; choose from "
            f"{', '.join(EXPERIMENTS)}"
        )
    fast_kwargs, module = EXPERIMENTS[name]
    return (dict(fast_kwargs) if fast else {}), module


def describe(name: str) -> str:
    """One-line description of ``name`` (the module docstring's first
    line), read off the source; KeyError if unknown."""
    doc = (ast.get_docstring(_source(name), clean=False) or "").strip()
    return doc.splitlines()[0].strip() if doc else ""


def shardable(name: str) -> bool:
    """Whether ``name``'s source binds every WorkUnit hook
    (:data:`repro.runtime.units.UNIT_HOOKS`) at top level with ``def``,
    ``class`` or a plain assignment; KeyError if unknown.  The one rule
    ``--list`` marks by; for every registered module it agrees with
    :func:`~repro.runtime.units.supports_units` on the executed module."""
    bound = set()
    for node in _source(name).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, ast.Assign):
            bound.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return bound.issuperset(UNIT_HOOKS)


def _source(name: str) -> ast.Module:
    """The parsed source of ``name``'s module, which stays unexecuted.

    Any attribute read executes a :func:`~repro._lazy.lazy_module`
    stub, so the spec comes through ``object.__getattribute__``, as
    :class:`importlib.util.LazyLoader` itself reads it.
    """
    if name not in EXPERIMENTS:
        raise KeyError(f"unknown experiment {name!r}")
    module = EXPERIMENTS[name][1]
    origin = object.__getattribute__(module, "__spec__").origin
    with tokenize.open(origin) as source:
        return ast.parse(source.read())
