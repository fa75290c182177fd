"""The WorkUnit protocol: how experiments declare shardable work.

Any experiment module may opt into process-sharding by exposing three
module-level hooks next to the mandatory ``run``/``format_table``
surface (:class:`repro.experiments.registry.ShardableExperiment`):

* ``plan(**kwargs) -> list[WorkUnit]`` — enumerate the independent
  simulation points a same-argument ``run(**kwargs)`` will consume.
* ``prime(key, result)`` — install one externally computed unit result
  so the subsequent in-parent ``run`` aggregates it instead of
  re-simulating.
* ``clear_primed()`` — drop every primed result (the pool scopes
  priming to one orchestration run).

A :class:`WorkUnit` is one such point.  The contract:

* ``key`` is a picklable, hashable tuple of primitives that *fully
  determines* the result — it embeds every run kwarg the point depends
  on (model, config name, mode, load, sample count, seed, ...).  The
  key is what ``prime`` receives, what deduplicates identical points
  across experiments, and what the unit-granularity
  :class:`~repro.runtime.cache.ResultCache` content-addresses.
* ``group`` is a hashable shard affinity: units sharing a group run in
  the same worker task so per-shard warm state (a calibrated workload,
  a serving cost model) is built once and reused.
* ``execute()`` runs worker-side and returns a picklable result that
  is byte-for-byte equivalent to what the serial ``run`` would have
  computed for the same point — this is the determinism contract that
  keeps artifacts identical across ``--jobs`` values.

Implementations (:class:`repro.experiments.sweep.GridUnit`,
:class:`repro.experiments.serving.ServingPoint`, ...) conform
structurally and do not import this module, nor anything else under
:mod:`repro.runtime`: the runtime sits above the experiments (the pool
resolves them through the experiment registry).  The store behind the
``prime`` hooks therefore lives in the experiment layer
(:class:`repro.experiments.primed.Primed`).
"""

from __future__ import annotations

from typing import Any, Protocol, Tuple, runtime_checkable


@runtime_checkable
class WorkUnit(Protocol):
    """One independent, picklable simulation point (see module doc)."""

    @property
    def key(self) -> Tuple[Any, ...]: ...

    @property
    def group(self) -> Tuple[Any, ...]: ...

    def execute(self) -> Any: ...


#: The module-level hooks that, together, opt an experiment into
#: unit-level sharding.
UNIT_HOOKS = ("plan", "prime", "clear_primed")


def supports_units(module: Any) -> bool:
    """True when ``module`` exposes the full plan/prime/clear surface."""
    return all(callable(getattr(module, hook, None)) for hook in UNIT_HOOKS)
