"""Parallel experiment runtime: orchestrator, work units, cache, artifacts.

The layers the ``sprint-experiments`` CLI is built on:

* :mod:`repro.runtime.pool` — :class:`ExperimentPool`, the
  process-sharded orchestrator (``--jobs``),
* :mod:`repro.runtime.units` — the :class:`WorkUnit` protocol an
  experiment opts into to have its independent simulation points
  sharded (``plan``/``prime``/``clear_primed``),
* :mod:`repro.runtime.cache` — :class:`ResultCache`, the
  content-addressed result cache (``--cache-dir``), at whole-artifact
  and per-unit granularity,
* :mod:`repro.runtime.artifacts` — :class:`Artifact`, the JSON
  result layer (``--json-out``).
"""

from repro._lazy import attach

__all__ = [
    "ARTIFACT_SCHEMA",
    "Artifact",
    "ExperimentOutcome",
    "ExperimentPool",
    "ResultCache",
    "WorkUnit",
    "build_artifact",
    "cache_key",
    "code_version",
    "supports_units",
    "to_jsonable",
    "unit_cache_key",
]

__getattr__, __dir__ = attach(
    __name__,
    {
        "artifacts": ("ARTIFACT_SCHEMA", "Artifact", "build_artifact", "to_jsonable"),
        "cache": ("ResultCache", "cache_key", "code_version", "unit_cache_key"),
        "pool": ("ExperimentOutcome", "ExperimentPool"),
        "units": ("WorkUnit", "supports_units"),
    },
)
