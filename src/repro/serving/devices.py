"""Device model: a SPRINT chip serving batches, with a cycle-cost cache.

A :class:`ServiceCostModel` turns (model, input length) into per-sample
cycles and energy by rolling the existing per-head cycle model
(:class:`repro.core.system.SprintSystem`) up to whole-model granularity
through :class:`repro.core.multihead.MultiHeadSimulator`.  Input lengths
are bucketed, so a 100k-request simulation prices each model at a few
dozen lengths at most.  The cold buckets of one model are filled
together: their keep masks come from one seeded normal draw, sliced
per bucket, and each bucket then takes one exact cycle-model pass.

A :class:`SprintDevice` is one chip: it executes one batch at a time,
serializing the batch's samples through the accelerator and charging a
fixed per-batch setup (threshold/projection reprogramming, pipeline
drain) that dynamic batching amortizes.

:class:`SprintDevice` objects serve the per-request reference loop,
one token-step batch at a time; the columnar fast paths price whole
batch columns at once through :meth:`ServiceCostModel.cost_arrays` and
:meth:`ServiceCostModel.decode_cost_arrays` (array indexing into the
same primed bucket cache) and model devices as k free-times, so every
path charges bitwise-identical cycles and energy.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Iterable, Tuple

import numpy as np

from repro.core.configs import SprintConfig
from repro.core.multihead import MultiHeadSimulator
from repro.core.system import ExecutionMode
from repro.models.zoo import ModelSpec
from repro.workloads.generator import bucket_workloads


#: Per-batch setup cost (threshold/projection reprogramming, pipeline
#: fill/drain) in cycles.  Shared by :class:`SprintDevice` and the fast
#: engine's :func:`~repro.serving.engine.simulate_table` so the two
#: paths cannot drift apart on this physical-model parameter.
DEFAULT_SETUP_CYCLES = 4096


@dataclass(frozen=True)
class SampleCost:
    """Whole-model cost of one sample at one (bucketed) input length."""

    cycles: float
    energy_pj: float


class ServiceCostModel:
    """Memoized (model, length, mode) -> per-sample cycles/energy.

    Parameters
    ----------
    config:
        The chip configuration (Table I column).
    mode:
        Execution mode every request in this simulation runs under.
    len_bucket:
        Input lengths round up to multiples of this before hitting the
        cycle model; smaller buckets are more precise but slower.
    seed:
        Seed for the calibrated masks behind each cache entry (the cost
        cache is deterministic under it).
    """

    def __init__(
        self,
        config: SprintConfig,
        mode: ExecutionMode,
        len_bucket: int = 32,
        seed: int = 0,
        **system_kwargs,
    ):
        if len_bucket < 1:
            raise ValueError("len_bucket must be positive")
        self.config = config
        self.mode = mode
        self.len_bucket = len_bucket
        self.seed = seed
        self._simulator = MultiHeadSimulator(config, **system_kwargs)
        self._cache: Dict[Tuple[str, int], SampleCost] = {}
        self._decode_cache: Dict[Tuple[str, int], SampleCost] = {}

    # ------------------------------------------------------------------
    def bucket_len(self, spec: ModelSpec, valid_len: int) -> int:
        """Round a request length up to its simulation bucket."""
        if valid_len < 1:
            raise ValueError("valid_len must be positive")
        rounded = -(-valid_len // self.len_bucket) * self.len_bucket
        return min(spec.seq_len, max(2, rounded))

    def sample_cost(self, spec: ModelSpec, valid_len: int) -> SampleCost:
        """Whole-model cycles/energy for one sample of ``valid_len``."""
        length = self.bucket_len(spec, valid_len)
        key = (spec.name, length)
        cached = self._cache.get(key)
        if cached is None:
            self._fill(spec, [length])
            cached = self._cache[key]
        return cached

    def _fill(self, spec: ModelSpec, buckets) -> None:
        """Price every cold bucket among ``buckets`` (bucket lengths).

        The one path into the cycle model.  The buckets' workloads come
        lazily from one seeded draw
        (:func:`~repro.workloads.generator.bucket_workloads`), each equal
        to the single-sample workload ``generate_workload`` makes at that
        length, and each runs once through the batched
        :meth:`~repro.core.system.SprintSystem.simulate_workload` core.
        The batch runs with padding stripped to the bucket length: the
        serving layer, unlike the figure workloads, knows each
        request's true length.
        """
        cold = [
            length
            for length in map(int, buckets)
            if (spec.name, length) not in self._cache
        ]
        workloads = bucket_workloads(
            cold,
            spec.pruning_rate,
            locality=spec.locality,
            causal=spec.causal,
            seed=self.seed,
        )
        for workload in workloads:
            report = self._simulator.simulate_workload(spec, self.mode, workload)
            self._cache[(spec.name, workload.seq_len)] = SampleCost(
                cycles=float(report.total_cycles),
                energy_pj=float(report.total_energy_pj),
            )

    def decode_cost(self, spec: ModelSpec, context_len: int) -> SampleCost:
        """Per-token decode cost at a (bucketed) attention context.

        One decode step emits a single token attending over
        ``context_len`` prior tokens.  The cycle model prices whole
        forward passes, so a step is charged the bucketed full-pass
        cost amortized over the bucket length -- the per-token share of
        a pass at that context.  The quadratic attention term makes
        this share grow with context (and lets SPRINT's pruning flatten
        it), which is exactly the decode-phase interaction the
        generative experiment measures.  Derived from the same memoized
        :meth:`sample_cost` buckets, so both serving engines see
        bitwise-identical decode prices.
        """
        length = self.bucket_len(spec, context_len)
        key = (spec.name, length)
        cached = self._decode_cache.get(key)
        if cached is None:
            per_pass = self.sample_cost(spec, length)
            cached = SampleCost(
                cycles=per_pass.cycles / length,
                energy_pj=per_pass.energy_pj / length,
            )
            self._decode_cache[key] = cached
        return cached

    def bucket_lens(self, spec: ModelSpec, valid_lens) -> np.ndarray:
        """Vectorized :meth:`bucket_len` over a column of lengths."""
        lens = np.asarray(valid_lens, dtype=np.int64)
        if lens.size and lens.min() < 1:
            raise ValueError("valid_len must be positive")
        rounded = -(-lens // self.len_bucket) * self.len_bucket
        return np.minimum(spec.seq_len, np.maximum(2, rounded))

    def cost_arrays(self, spec: ModelSpec, valid_lens) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorized (cycles, energy) columns for a column of lengths.

        Buckets the lengths, fills the cold buckets in one pass (one
        seeded draw for all of them, then one exact cycle-model pass
        each), then answers the whole column by array indexing -- the
        fast engine's per-batch cost lookup never touches Python-level
        memo dicts per row.
        """
        buckets = self.bucket_lens(spec, valid_lens)
        uniq, inverse = np.unique(buckets, return_inverse=True)
        self._fill(spec, uniq)
        costs = [self._cache[(spec.name, length)] for length in uniq.tolist()]
        cycles = np.array([c.cycles for c in costs], dtype=np.float64)
        energy = np.array([c.energy_pj for c in costs], dtype=np.float64)
        return cycles[inverse], energy[inverse]

    def decode_cost_arrays(
        self, spec: ModelSpec, context_lens
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorized decode (cycles, energy) columns for contexts.

        The decode twin of :meth:`cost_arrays`: buckets the contexts,
        fills the cold full-pass buckets in one pass, takes each
        bucket's :meth:`decode_cost` (per-token share of a full pass at
        the bucketed context), then answers the whole column by array
        indexing.  Values are bitwise equal to the scalar
        :meth:`decode_cost` at every context, so the macro-stepping
        decode engine can precompute per-queue cost vectors over the
        full context range and stay on the reference loop's exact
        prices.
        """
        buckets = self.bucket_lens(spec, context_lens)
        uniq, inverse = np.unique(buckets, return_inverse=True)
        self._fill(spec, uniq)
        costs = [self.decode_cost(spec, length) for length in uniq.tolist()]
        cycles = np.array([c.cycles for c in costs], dtype=np.float64)
        energy = np.array([c.energy_pj for c in costs], dtype=np.float64)
        return cycles[inverse], energy[inverse]

    def prime(self, spec: ModelSpec, valid_lens: Iterable[int]) -> int:
        """Fill the cost cache for every bucket a request stream touches.

        Serving simulations know each request's length up front, so the
        (slow, exact) cycle model can be run for all distinct buckets
        before the event loop starts instead of faulting in mid-run.
        The cold ones are filled together: one seeded draw for all of
        them, then one pass each through the batched
        :meth:`~repro.core.system.SprintSystem.simulate_workload` core.
        Returns the number of distinct buckets in ``valid_lens`` (cached
        before or not).
        """
        lens = np.fromiter(valid_lens, dtype=np.int64) if not isinstance(
            valid_lens, np.ndarray
        ) else valid_lens
        buckets = np.unique(self.bucket_lens(spec, lens))
        self._fill(spec, buckets)
        return int(buckets.size)

    @property
    def cache_entries(self) -> int:
        return len(self._cache)


@lru_cache(maxsize=32)
def shared_cost_model(
    config: SprintConfig,
    mode: ExecutionMode,
    len_bucket: int = 32,
    seed: int = 0,
) -> ServiceCostModel:
    """Process-level memoized cost model, one per (config, mode, bucket,
    seed).

    The serving sweep's work units group by mode precisely so that a
    worker shard warms a single cost model: the shard's first point
    pays the (slow, exact) cycle-model passes for its length buckets
    and every later point reuses them.  Sharing is sound because a
    :class:`ServiceCostModel` is deterministic under its key — its
    memoized costs are pure values, identical no matter which process
    or sweep point computed them first.  The memo is LRU-bounded so a
    long-lived process sweeping many seeds or configs cannot
    accumulate simulators without limit (a worker shard only ever
    touches one entry).
    """
    return ServiceCostModel(config, mode, len_bucket=len_bucket, seed=seed)


class SprintDevice:
    """One accelerator chip executing sealed batches serially.

    Samples within a batch serialize through the CORELET pipelines (a
    CORELET is a per-head pipeline, so there is no cross-sample
    parallelism to exploit); every sample pays the cost of the batch's
    longest member (dynamic batching pads to the maximum length).  The
    per-batch ``setup_cycles`` covers reprogramming learned thresholds
    and projection weights plus pipeline fill/drain.
    """

    def __init__(
        self,
        device_id: int,
        cost_model: ServiceCostModel,
        setup_cycles: int = DEFAULT_SETUP_CYCLES,
    ):
        if setup_cycles < 0:
            raise ValueError("setup_cycles must be non-negative")
        self.device_id = device_id
        self.cost_model = cost_model
        self.setup_cycles = setup_cycles
        self.busy_until_s: float = 0.0
        self.busy_s: float = 0.0
        self.batches_done: int = 0
        self.samples_done: int = 0
        self.energy_pj: float = 0.0

    # ------------------------------------------------------------------
    @property
    def frequency_hz(self) -> float:
        return self.cost_model.config.frequency_ghz * 1e9

    def is_idle(self, now_s: float) -> bool:
        return now_s >= self.busy_until_s

    def _step_cost(
        self, spec: ModelSpec, context_len: int, size: int, decode: bool
    ) -> Tuple[float, SampleCost]:
        """(service seconds, per-sample cost) of one token-step batch."""
        if decode:
            per_sample = self.cost_model.decode_cost(spec, context_len)
        else:
            per_sample = self.cost_model.sample_cost(spec, context_len)
        cycles = self.setup_cycles + per_sample.cycles * size
        return cycles / self.frequency_hz, per_sample

    def step_service_time_s(
        self, spec: ModelSpec, context_len: int, size: int, decode: bool
    ) -> float:
        """Wall-clock seconds one token-step batch would occupy."""
        return self._step_cost(spec, context_len, size, decode)[0]

    def lose_step_batch(
        self,
        spec: ModelSpec,
        context_len: int,
        size: int,
        decode: bool,
        now_s: float,
        fail_s: float,
    ) -> float:
        """The device dies at ``fail_s`` mid-step: occupy it until the
        failure and return the energy wasted on the partial work.

        The lost work counts toward neither ``batches_done`` nor
        ``energy_pj`` -- it delivered nothing -- but the device was
        genuinely busy until the failure instant.
        """
        service, per_sample = self._step_cost(spec, context_len, size, decode)
        self.busy_until_s = fail_s
        self.busy_s += fail_s - now_s
        return per_sample.energy_pj * size * ((fail_s - now_s) / service)

    def start_step_batch(
        self,
        spec: ModelSpec,
        context_len: int,
        size: int,
        decode: bool,
        now_s: float,
    ) -> float:
        """Begin one token-step batch at ``now_s``; returns finish time.

        The scheduler's unit of device work: ``size`` same-model
        requests advancing one token together, padded to the batch's
        longest context.  A *prefill* step charges a full forward pass
        at ``context_len``; a *decode* step charges the per-token
        :meth:`ServiceCostModel.decode_cost` share.  Both pay the
        per-batch ``setup_cycles``.
        """
        if not self.is_idle(now_s):
            raise RuntimeError(
                f"device {self.device_id} busy until {self.busy_until_s}"
            )
        service, per_sample = self._step_cost(spec, context_len, size, decode)
        self.busy_until_s = now_s + service
        self.busy_s += service
        self.batches_done += 1
        self.samples_done += size
        self.energy_pj += per_sample.energy_pj * size
        return self.busy_until_s
