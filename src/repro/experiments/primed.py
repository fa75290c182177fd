"""Primed unit results: the one store behind every ``prime`` hook.

A shardable experiment (:class:`~repro.experiments.registry.
ShardableExperiment`) keeps one :class:`Primed` at module level and
exposes its ``prime`` and ``clear_primed`` methods as the module's
hooks; its ``run`` takes a point's result from the store before
computing it locally.

The store lives in the experiment layer, not next to the WorkUnit
protocol in :mod:`repro.runtime.units`: the runtime sits above the
experiments (its pool resolves them through the experiment registry),
so the experiments import nothing from it.
"""

from __future__ import annotations

from typing import Any, Tuple


class Primed(dict):
    """Unit results by unit key, installed by the parallel runtime
    (computed in a worker process or replayed from the unit cache)."""

    def prime(self, key: Tuple, result: Any) -> None:
        """Install an externally computed unit result (runtime hook)."""
        self[tuple(key)] = result

    def clear_primed(self) -> None:
        """Drop every primed result (the runtime scopes them to a run)."""
        self.clear()

    def result(self, unit: Any) -> Any:
        """``unit``'s primed result, else ``unit.execute()``."""
        result = self.get(unit.key)
        return unit.execute() if result is None else result
