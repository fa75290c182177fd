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

import numpy as np

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


# ----------------------------------------------------------------------
# Zero-copy process sharding of one columnar serving simulation.
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SharedTableHandle:
    """Address of a ``RequestTable`` living in POSIX shared memory.

    Picklable and tiny: the segment name, the row count, and the spec
    list.  Workers :func:`map_request_table` it to get zero-copy numpy
    views over the columns -- no per-shard pickling of array data,
    which is what made the historical process-pool path lose to serial
    on array-native work.
    """

    name: str
    rows: int
    specs: tuple
    #: Generative tables carry a fifth ``output_len`` column.
    generative: bool = False


#: Column order inside a shared segment; every column is 8 bytes/row.
#: Generative tables append ``output_len`` after these.
_SHARED_COLUMNS = (
    ("request_id", np.int64),
    ("arrival_s", np.float64),
    ("spec_idx", np.int64),
    ("valid_len", np.int64),
)
_GENERATIVE_COLUMN = ("output_len", np.int64)


def _segment_columns(generative: bool):
    if generative:
        return _SHARED_COLUMNS + (_GENERATIVE_COLUMN,)
    return _SHARED_COLUMNS


def share_request_table(table) -> Tuple[Any, SharedTableHandle]:
    """Copy a table's columns into one shared-memory segment.

    Returns ``(segment, handle)``; the caller owns the segment and
    must ``close()`` + ``unlink()`` it when every worker is done.
    Generative tables (``output_len`` column present) share that
    column too; the handle records the layout.
    """
    from multiprocessing import shared_memory

    generative = getattr(table, "output_len", None) is not None
    columns = _segment_columns(generative)
    rows = len(table)
    segment = shared_memory.SharedMemory(
        create=True, size=max(rows * 8 * len(columns), 1)
    )
    offset = 0
    for column, dtype in columns:
        view = np.ndarray((rows,), dtype=dtype, buffer=segment.buf, offset=offset)
        view[:] = getattr(table, column)
        offset += rows * 8
    return segment, SharedTableHandle(
        name=segment.name,
        rows=rows,
        specs=tuple(table.specs),
        generative=generative,
    )


def map_request_table(handle: SharedTableHandle) -> Tuple[Any, Any]:
    """Map a shared segment back into a zero-copy ``RequestTable``.

    Returns ``(table, segment)``.  The table's columns are views over
    the segment's buffer: the caller must keep ``segment`` referenced
    while the table is alive, and drop every column reference before
    closing it.
    """
    from multiprocessing import shared_memory

    from repro.serving.requests import RequestTable

    segment = shared_memory.SharedMemory(name=handle.name)
    columns = {}
    offset = 0
    for column, dtype in _segment_columns(handle.generative):
        columns[column] = np.ndarray(
            (handle.rows,), dtype=dtype, buffer=segment.buf, offset=offset
        )
        offset += handle.rows * 8
    return RequestTable(specs=list(handle.specs), **columns), segment


def _form_queue_shard(
    handle: SharedTableHandle,
    queue_ids: Sequence[int],
    cost_args: Tuple[Any, ...],
    max_batch_size: int,
    max_wait_s: float,
    setup_cycles: int,
) -> List[Tuple[int, Any]]:
    """Worker: phase 1 (batch formation + cost pricing) for some queues.

    The table arrives as a shared-memory handle (zero-copy mapping);
    only the per-*batch* result arrays -- roughly ``rows / mean batch
    size`` entries -- travel back through pickling.  The table was
    canonically sorted by the parent, so row grouping, formation, and
    costs are computed on exactly the arrays the parent would use.
    """
    from repro.serving import engine
    from repro.serving.devices import shared_cost_model

    cost_model = shared_cost_model(*cost_args)
    table, segment = map_request_table(handle)
    try:
        queue_specs, queue_of_spec = engine._queue_map(table.specs)
        rows_list = engine._group_rows(table.spec_idx, queue_of_spec, len(queue_specs))
        last_arrival_s = float(table.arrival_s[-1])
        frequency_hz = cost_model.config.frequency_ghz * 1e9
        out = []
        for qid in queue_ids:
            rows = rows_list[qid]
            # Fancy indexing copies, so every array below is fresh --
            # nothing shipped back references the shared buffer.
            out.append(
                (
                    qid,
                    engine._form_queue(
                        table.arrival_s[rows],
                        table.request_id[rows],
                        table.valid_len[rows],
                        queue_specs[qid],
                        cost_model,
                        max_batch_size,
                        max_wait_s,
                        setup_cycles,
                        frequency_hz,
                        last_arrival_s=last_arrival_s,
                    ),
                )
            )
        return out
    finally:
        del table
        segment.close()


def _decode_vector_shard(
    handle: SharedTableHandle,
    queue_ids: Sequence[int],
    cost_args: Tuple[Any, ...],
) -> List[Tuple[Tuple[int, bool], Tuple[Any, Any]]]:
    """Worker: phase 1 (per-queue cost vectors) for a generative table.

    The expensive part of a decode simulation's setup is pricing every
    (queue, decode?, context) the event loop will touch -- each cold
    bucket runs the exact cycle model.  Workers map the shared columns
    zero-copy, compute each assigned queue's context ceiling
    (``valid_len + output_len - 1`` over its rows), and ship back only
    the two cost vectors per (queue, decode?) key -- a few KB each.
    Values are memoized pure functions of (model, bucket), so shard
    assignment cannot change any priced cost.
    """
    from repro.serving.decode import _build_cost_vectors
    from repro.serving.devices import shared_cost_model
    from repro.serving.engine import _queue_map

    cost_model = shared_cost_model(*cost_args)
    table, segment = map_request_table(handle)
    try:
        queue_specs, queue_of_spec = _queue_map(table.specs)
        qids = queue_of_spec[table.spec_idx]
        ctx_hi = table.valid_len + table.output_len - 1
        out = []
        for qid in queue_ids:
            hi = int(ctx_hi[qids == qid].max())
            spec = queue_specs[qid]
            for decode in (True, False):
                cyc, en = _build_cost_vectors(cost_model, spec, decode, hi)
                out.append(((qid, decode), (cyc, en)))
        return out
    finally:
        del qids, ctx_hi
        del table
        segment.close()


def simulate_decode_table_sharded(
    table,
    cost_model,
    jobs: int,
    num_devices: int = 1,
    max_batch_size: int = 8,
    max_wait_s: float = 2e-3,
    setup_cycles: Optional[int] = None,
    mp_context: Optional[mp.context.BaseContext] = None,
    recorder=None,
):
    """Process-sharded :func:`repro.serving.decode.simulate_decode_table`.

    Phase 1 (per-queue cost-vector construction, including the exact
    cycle-model passes behind cold cost buckets) fans out across
    processes that map the request columns -- including the generative
    ``output_len`` column -- from one zero-copy shared-memory segment;
    the event loop runs in-parent with every cost pre-priced.  The
    result is **bitwise identical** to the serial call at every
    ``jobs`` value: vectors are memoized pure functions of (model,
    bucket), and the parent injects them without touching the event
    order.

    Same ``cost_model`` constraint as :func:`simulate_table_sharded`
    (describable by its ``(config, mode, len_bucket, seed)`` key).
    The unit of parallelism is the model queue, so single-queue tables
    fall through to the serial path.
    """
    from repro.serving.decode import simulate_decode_table
    from repro.serving.devices import DEFAULT_SETUP_CYCLES
    from repro.serving.engine import _queue_map

    if setup_cycles is None:
        setup_cycles = DEFAULT_SETUP_CYCLES
    if len(table) == 0:
        raise ValueError("request stream must not be empty")
    if getattr(table, "output_len", None) is None:
        raise ValueError("table has no output_len column; use simulate_table_sharded")
    serial_kwargs = dict(
        num_devices=num_devices,
        max_batch_size=max_batch_size,
        max_wait_s=max_wait_s,
        setup_cycles=setup_cycles,
        recorder=recorder,
    )
    queue_specs, queue_of_spec = _queue_map(table.specs)
    qids = queue_of_spec[table.spec_idx]
    counts = np.bincount(qids, minlength=len(queue_specs))
    active = [q for q in range(len(queue_specs)) if counts[q]]
    if jobs <= 1 or len(active) <= 1:
        return simulate_decode_table(table, cost_model, **serial_kwargs)

    # Deterministic balanced assignment: queues by descending row
    # count (id-tie-broken), dealt round-robin onto the shards.
    ranked = sorted(active, key=lambda q: (-int(counts[q]), q))
    buckets: List[List[int]] = [[] for _ in range(min(jobs, len(active)))]
    for i, qid in enumerate(ranked):
        buckets[i % len(buckets)].append(qid)

    if mp_context is None:
        methods = mp.get_all_start_methods()
        mp_context = mp.get_context("fork" if "fork" in methods else methods[0])
    cost_args = (
        cost_model.config,
        cost_model.mode,
        cost_model.len_bucket,
        cost_model.seed,
    )
    segment, handle = share_request_table(table)
    try:
        with ProcessPoolExecutor(
            max_workers=len(buckets), mp_context=mp_context
        ) as executor:
            futures = [
                executor.submit(_decode_vector_shard, handle, bucket, cost_args)
                for bucket in buckets
            ]
            vectors = {}
            for future in futures:
                vectors.update(dict(future.result()))
    finally:
        segment.close()
        segment.unlink()
    return simulate_decode_table(
        table, cost_model, _vectors=vectors, **serial_kwargs
    )


def simulate_table_sharded(
    table,
    cost_model,
    jobs: int,
    num_devices: int = 1,
    max_batch_size: int = 8,
    max_wait_s: float = 2e-3,
    setup_cycles: Optional[int] = None,
    mp_context: Optional[mp.context.BaseContext] = None,
    recorder=None,
):
    """Process-sharded :func:`repro.serving.engine.simulate_table`.

    Phase 1 (per-model-queue batch formation + cost lookup) fans out
    across processes that map the request columns from shared memory
    instead of unpickling them; phases 2-3 run in-parent on the
    shipped-back per-batch arrays.  The result is **bitwise identical**
    to the serial call at every ``jobs`` value: workers run the same
    phase-1 code on the same canonically sorted rows, and assembly
    consumes their parts in the serial queue order.

    ``cost_model`` must be describable by its ``(config, mode,
    len_bucket, seed)`` key (the :func:`~repro.serving.devices.
    shared_cost_model` constructor workers rebuild it from); models
    with custom ``system_kwargs`` are not shardable.  Sharding pays
    off only for multi-model mixes -- the unit of parallelism is the
    model queue -- so single-queue tables fall through to the serial
    path.
    """
    from repro.serving import engine
    from repro.serving.devices import DEFAULT_SETUP_CYCLES
    from repro.serving.requests import RequestTable

    if setup_cycles is None:
        setup_cycles = DEFAULT_SETUP_CYCLES
    if len(table) == 0:
        raise ValueError("request stream must not be empty")
    if getattr(table, "output_len", None) is not None:
        # Generative batch formation depends on device timing, so the
        # shardable phase 1 is cost-vector pricing instead of batch
        # formation -- route to the decode-specific entry point.
        return simulate_decode_table_sharded(
            table,
            cost_model,
            jobs,
            num_devices=num_devices,
            max_batch_size=max_batch_size,
            max_wait_s=max_wait_s,
            setup_cycles=setup_cycles,
            mp_context=mp_context,
            recorder=recorder,
        )
    order = np.lexsort((table.request_id, table.arrival_s))
    table = RequestTable(
        specs=table.specs,
        request_id=table.request_id[order],
        arrival_s=table.arrival_s[order],
        spec_idx=table.spec_idx[order],
        valid_len=table.valid_len[order],
    )
    queue_specs, queue_of_spec = engine._queue_map(table.specs)
    rows_list = engine._group_rows(table.spec_idx, queue_of_spec, len(queue_specs))
    active = [q for q in range(len(queue_specs)) if rows_list[q].size]
    serial_kwargs = dict(
        num_devices=num_devices,
        max_batch_size=max_batch_size,
        max_wait_s=max_wait_s,
        setup_cycles=setup_cycles,
        recorder=recorder,
    )
    if jobs <= 1 or len(active) <= 1:
        return engine.simulate_table(table, cost_model, **serial_kwargs)

    # Deterministic balanced assignment: queues by descending row
    # count (id-tie-broken), dealt round-robin onto the shards.
    ranked = sorted(active, key=lambda q: (-rows_list[q].size, q))
    buckets: List[List[int]] = [[] for _ in range(min(jobs, len(active)))]
    for i, qid in enumerate(ranked):
        buckets[i % len(buckets)].append(qid)

    if mp_context is None:
        methods = mp.get_all_start_methods()
        mp_context = mp.get_context("fork" if "fork" in methods else methods[0])
    cost_args = (
        cost_model.config,
        cost_model.mode,
        cost_model.len_bucket,
        cost_model.seed,
    )
    segment, handle = share_request_table(table)
    try:
        with ProcessPoolExecutor(
            max_workers=len(buckets), mp_context=mp_context
        ) as executor:
            futures = [
                executor.submit(
                    _form_queue_shard,
                    handle,
                    bucket,
                    cost_args,
                    max_batch_size,
                    max_wait_s,
                    setup_cycles,
                )
                for bucket in buckets
            ]
            formed = {}
            for future in futures:
                formed.update(dict(future.result()))
    finally:
        segment.close()
        segment.unlink()
    return engine.simulate_table(table, cost_model, _formed=formed, **serial_kwargs)
