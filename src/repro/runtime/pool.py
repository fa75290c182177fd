"""Process-sharded experiment orchestrator.

:class:`ExperimentPool` runs a set of experiments across
``ProcessPoolExecutor`` workers.  Two kinds of work are sharded:

* **Standalone experiments** (fig1, fig5, sensitivity, ...) run whole
  in a worker, which returns the finished artifact.
* **Unit-planned experiments** declare the independent simulation
  points behind their ``run`` via the :mod:`~repro.runtime.units`
  WorkUnit protocol (``plan``/``prime``/``clear_primed``).  The pool
  takes the union of every planned experiment's units (identical
  points deduplicate by unit key — the fig10-13/ffn/table3 grids all
  consume the shared :mod:`~repro.experiments.sweep` cells), shards
  them by unit *group* so per-shard warm state is built once (one
  calibrated workload per model shard, one serving cost model per mode
  shard), executes shards in workers, primes every owning module with
  the shipped-back results, and aggregates each experiment in-parent —
  cheap, and each point is computed exactly once no matter how many
  experiments consume it.

Determinism: every unit key carries the full parameters (including
seeds) of its point, and ``execute()`` is the same pure computation
the serial ``run`` performs, so results do not depend on worker count
or scheduling; artifacts are byte-identical across ``--jobs`` values.
When a :class:`~repro.runtime.cache.ResultCache` is attached, hits
skip whole experiments (artifact granularity) or individual points
(unit granularity — so editing a load list only simulates the new
points).  Fresh unit results *stream* into the cache the moment each
one is computed — worker-side, atomically, not at experiment end — so
a ``--jobs`` run killed mid-flight resumes from exactly the units that
already landed.
"""

from __future__ import annotations

import functools
import multiprocessing as mp
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.experiments import registry
from repro.obs import telemetry
from repro.runtime.artifacts import Artifact, build_artifact
from repro.runtime.cache import (
    ResultCache,
    cache_key,
    code_version,
    unit_cache_key,
)
from repro.runtime.units import WorkUnit, supports_units


@dataclass
class ExperimentOutcome:
    """One experiment's result plus how it was obtained."""

    name: str
    artifact: Optional[Artifact]
    seconds: float
    cached: bool = False
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None


def _run_standalone(name: str, kwargs: Dict[str, Any]) -> Tuple[Artifact, float]:
    """Worker: run one whole experiment; returns (artifact, seconds)."""
    _, module = registry.EXPERIMENTS[name]
    start = time.perf_counter()
    artifact = build_artifact(name, kwargs, module)
    return artifact, time.perf_counter() - start


def _execute_units(
    units: Sequence[WorkUnit],
    cache_root: Optional[str] = None,
    cache_version: Optional[str] = None,
) -> List[Tuple[Any, Any]]:
    """Worker: execute one shard of work units.

    Shards arrive grouped by ``unit.group``, so process-level warm
    state (the sweep's calibrated workloads, serving's per-mode cost
    models) is built on the first unit and shared by the rest.

    When a cache directory is attached, every unit result streams into
    it the moment it is computed (atomic write), not when the shard --
    let alone the experiment -- finishes: a ``--jobs`` run killed
    mid-flight resumes from exactly the units that already landed.
    Entries are addressed under the *parent's* source digest
    (``cache_version``): workers neither re-hash the tree nor race a
    concurrent source edit into keys the parent would never look up.
    No stale-temp sweep worker-side -- siblings may be mid-write.
    """
    cache = (
        ResultCache(cache_root, sweep_stale=False)
        if cache_root is not None
        else None
    )
    out = []
    for unit in units:
        result = unit.execute()
        if cache is not None:
            cache.put_unit(
                unit_cache_key(unit.key, version=cache_version), result
            )
        out.append((unit.key, result))
    return out


class ExperimentPool:
    """Shard experiments (and their work units) across processes."""

    def __init__(
        self,
        jobs: int = 1,
        cache: Optional[ResultCache] = None,
        mp_context: Optional[mp.context.BaseContext] = None,
        shard_retries: int = 1,
    ):
        self.jobs = max(1, int(jobs))
        self.cache = cache
        #: Re-runs granted to a unit shard whose worker died (e.g. an
        #: OOM-killed process).  Each retry gets a *fresh* executor --
        #: a crashed worker poisons its pool (BrokenProcessPool), so
        #: resubmitting there can never succeed.
        self.shard_retries = max(0, int(shard_retries))
        if mp_context is None:
            # fork keeps worker start-up cheap (warm imports) and
            # inherits the parent's hash seed, so any residual
            # dict/set ordering matches the serial run exactly.
            methods = mp.get_all_start_methods()
            method = "fork" if "fork" in methods else methods[0]
            mp_context = mp.get_context(method)
        self._mp_context = mp_context

    # ------------------------------------------------------------------
    def run(
        self, names: Sequence[str], fast: bool = False
    ) -> Dict[str, ExperimentOutcome]:
        """Run ``names`` (cache -> shard -> aggregate); insertion-ordered.

        Raises :class:`KeyError` for unknown names before any work
        starts.  Per-experiment failures are captured in the outcome's
        ``error`` field rather than aborting the batch.
        """
        outcomes: Dict[str, Optional[ExperimentOutcome]] = {}
        pending: List[Tuple[str, Dict[str, Any], Any]] = []
        for name in names:
            if name in outcomes:
                continue
            kwargs, module = registry.resolve(name, fast)
            outcomes[name] = None
            if self.cache is not None:
                hit = self.cache.get(cache_key(name, kwargs))
                if hit is not None:
                    outcomes[name] = ExperimentOutcome(name, hit, 0.0, cached=True)
                    continue
            pending.append((name, kwargs, module))

        # Workers pay off when there is more than one experiment to
        # spread out, or when even a single pending experiment plans
        # shardable units behind it.
        use_workers = self.jobs > 1 and (
            len(pending) > 1
            or any(supports_units(module) for _, _, module in pending)
        )
        if use_workers:
            self._run_sharded(pending, outcomes)
        else:
            for name, kwargs, module in pending:
                outcomes[name] = self._run_serial(name, kwargs, module)

        if self.cache is not None:
            for outcome in outcomes.values():
                if outcome.ok and not outcome.cached:
                    self.cache.put(outcome.artifact)
        return outcomes

    # ------------------------------------------------------------------
    def _plan(self, module, kwargs) -> Optional[List[WorkUnit]]:
        """``module.plan(**kwargs)``, or None when planning fails.

        Unit planning is an optimization; a drifting ``plan`` signature
        must not abort the batch.  The experiment still aggregates via
        :meth:`_run_local`, which isolates (and reports) any real
        failure.
        """
        try:
            return list(module.plan(**kwargs))
        except Exception:  # noqa: BLE001
            return None

    def _run_local(self, name, kwargs, module) -> ExperimentOutcome:
        start = time.perf_counter()
        try:
            artifact = build_artifact(name, kwargs, module)
        except Exception as exc:  # noqa: BLE001 - reported per experiment
            return ExperimentOutcome(
                name,
                None,
                time.perf_counter() - start,
                error=f"{type(exc).__name__}: {exc}",
            )
        return ExperimentOutcome(name, artifact, time.perf_counter() - start)

    def _run_serial(self, name, kwargs, module) -> ExperimentOutcome:
        """In-process run, still unit-cached when the module plans.

        Even at ``--jobs 1`` a planned experiment replays its cached
        points and simulates only the missing ones, so warm reruns
        after a kwargs edit stay incremental.
        """
        if self.cache is None or not supports_units(module):
            return self._run_local(name, kwargs, module)
        units = self._plan(module, kwargs)
        if not units:
            return self._run_local(name, kwargs, module)
        telemetry.count("units.planned", len(units))
        start = time.perf_counter()
        try:
            try:
                for unit in units:
                    ukey = unit_cache_key(unit.key)
                    result = self.cache.get_unit(ukey)
                    if result is None:
                        result = unit.execute()
                        self.cache.put_unit(ukey, result)
                        telemetry.count("units.executed")
                    else:
                        telemetry.count("units.replayed")
                    module.prime(unit.key, result)
            except Exception:  # noqa: BLE001
                # A unit that cannot execute re-fails (and is reported)
                # inside the aggregation run below.
                pass
            outcome = self._run_local(name, kwargs, module)
        finally:
            module.clear_primed()
        outcome.seconds = time.perf_counter() - start
        return outcome

    # ------------------------------------------------------------------
    def _retry_shard(
        self, group, shard, cache_root, cache_version, prime_owners
    ) -> bool:
        """Re-run one failed unit shard, bounded by ``shard_retries``.

        Each attempt runs on a **fresh** single-worker executor: the
        original pool is poisoned once any worker dies.  On success the
        results prime their owners exactly as a first-try shard would
        (unit cache writes already streamed worker-side).  After the
        budget is spent the shard is abandoned -- the consuming
        experiment re-simulates its points serially, as before.
        """
        for attempt in range(1, self.shard_retries + 1):
            telemetry.count("units.shard_retries")
            telemetry.event(
                "shard_retry",
                group=repr(group),
                units=len(shard),
                attempt=attempt,
            )
            try:
                with ProcessPoolExecutor(
                    max_workers=1, mp_context=self._mp_context
                ) as retry_pool:
                    results = retry_pool.submit(
                        _execute_units, shard, cache_root, cache_version
                    ).result()
            except Exception as exc:  # noqa: BLE001
                telemetry.warn(
                    f"shard retry {attempt}/{self.shard_retries} failed "
                    f"({type(exc).__name__}: {exc})",
                    source="work-unit-shard",
                )
                continue
            for key, result in results:
                prime_owners(key, result)
            return True
        telemetry.warn(
            "work-unit shard exhausted its retries; falling back to "
            "in-process simulation",
            source="work-unit-shard",
        )
        return False

    # ------------------------------------------------------------------
    def _run_sharded(self, pending, outcomes) -> None:
        planned: List[Tuple[str, Dict[str, Any], Any]] = []
        standalone: List[Tuple[str, Dict[str, Any], Any]] = []
        plans: Dict[str, List[WorkUnit]] = {}
        for spec in pending:
            name, kwargs, module = spec
            if supports_units(module):
                planned.append(spec)
                plans[name] = self._plan(module, kwargs) or []
            else:
                standalone.append(spec)

        # Union of every planned experiment's units: identical points
        # (same key) deduplicate, and each key remembers which modules
        # to prime with its result.  Each experiment's keys are hashed
        # on their own first, so an unhashable key fails that
        # experiment's outcome and no other.
        units_by_key: Dict[Any, WorkUnit] = {}
        owners: Dict[Any, List[Any]] = {}
        for spec in list(planned):
            name, _kwargs, module = spec
            keyed: Dict[Any, WorkUnit] = {}
            try:
                for unit in plans[name]:
                    keyed.setdefault(unit.key, unit)
            except Exception as exc:  # noqa: BLE001 - reported per experiment
                planned.remove(spec)
                outcomes[name] = ExperimentOutcome(
                    name, None, 0.0, error=f"{type(exc).__name__}: {exc}"
                )
                continue
            for key, unit in keyed.items():
                units_by_key.setdefault(key, unit)
                mods = owners.setdefault(key, [])
                if module not in mods:
                    mods.append(module)

        def prime_owners(key: Any, result: Any) -> None:
            for module in owners[key]:
                module.prime(key, result)

        telemetry.count("units.planned", len(units_by_key))

        # Unit-cache pre-pass: cached points prime immediately and
        # never reach a worker.
        to_run: List[WorkUnit] = []
        for key, unit in units_by_key.items():
            if self.cache is not None:
                result = self.cache.get_unit(unit_cache_key(key))
                if result is not None:
                    prime_owners(key, result)
                    telemetry.count("units.replayed")
                    continue
            to_run.append(unit)
        telemetry.count("units.executed", len(to_run))

        # Shard by group affinity so per-shard warm state is shared.
        shards: Dict[Any, List[WorkUnit]] = {}
        for unit in to_run:
            shards.setdefault(unit.group, []).append(unit)
        for group, shard in shards.items():
            telemetry.event("shard", group=repr(group), units=len(shard))

        executor = ProcessPoolExecutor(
            max_workers=self.jobs, mp_context=self._mp_context
        )
        cache_root = str(self.cache.root) if self.cache is not None else None
        cache_version = code_version() if self.cache is not None else None
        with executor:
            unit_futures = {
                executor.submit(
                    _execute_units, shard, cache_root, cache_version
                ): (group, shard)
                for group, shard in shards.items()
            }
            standalone_futures = {}
            submitted: Dict[Any, float] = {}
            elapsed: Dict[Any, float] = {}

            def _record_elapsed(future, t0):
                elapsed[future] = time.perf_counter() - t0

            for name, kwargs, _module in standalone:
                future = executor.submit(_run_standalone, name, kwargs)
                standalone_futures[future] = name
                submitted[future] = time.perf_counter()
                # Completion wall time is stamped by the executor's
                # waiter thread, so a failed future still reports how
                # long it actually ran instead of 0.0.
                future.add_done_callback(
                    functools.partial(_record_elapsed, t0=submitted[future])
                )
            failed: List[Tuple[Any, List[WorkUnit]]] = []
            for future in as_completed(unit_futures):
                try:
                    # Cache writes already streamed worker-side, unit
                    # by unit; the parent only primes the owners.
                    for key, result in future.result():
                        prime_owners(key, result)
                except Exception as exc:  # noqa: BLE001
                    # A crashed worker (SIGKILL, OOM) poisons the whole
                    # pool, so every shard still in flight lands here;
                    # each gets its bounded retry on a fresh executor
                    # below before the serial fallback.
                    failed.append(unit_futures[future])
                    telemetry.warn(
                        f"work-unit shard failed ({type(exc).__name__}: "
                        f"{exc}); scheduling shard retry",
                        source="work-unit-shard",
                    )
            for group, shard in failed:
                self._retry_shard(
                    group, shard, cache_root, cache_version, prime_owners
                )
            # Units are primed: aggregate the planned experiments
            # in-parent while the standalone workers keep running.
            # Priming is scoped to this run so module-global state does
            # not leak into unrelated later callers.
            try:
                for name, kwargs, module in planned:
                    outcomes[name] = self._run_local(name, kwargs, module)
            finally:
                for module in {id(m): m for _, _, m in planned}.values():
                    module.clear_primed()
            for future, name in standalone_futures.items():
                try:
                    artifact, seconds = future.result()
                except Exception as exc:  # noqa: BLE001
                    # result() can raise before the done callback has
                    # run (set_exception wakes waiters first); in that
                    # window the future finished just now, so measuring
                    # from submission is the accurate fallback.
                    failed_s = elapsed.get(
                        future, time.perf_counter() - submitted[future]
                    )
                    outcomes[name] = ExperimentOutcome(
                        name,
                        None,
                        failed_s,
                        error=f"{type(exc).__name__}: {exc}",
                    )
                else:
                    outcomes[name] = ExperimentOutcome(name, artifact, seconds)
