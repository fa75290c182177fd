"""The SPRINT system simulator (event-count + cycle model, section VII).

Simulates one attention head's execution under four execution modes and
produces event counts, a Figure 13-style energy breakdown, and a latency
estimate:

- ``BASELINE``     -- iso-resource design, no pruning, no mask filtering;
- ``MASK_ONLY``    -- baseline plus two-dimensional sequence reduction;
- ``PRUNING_ONLY`` -- on-chip learned runtime pruning (LeOPArd-style):
  every key still streams on chip and every Q.K dot product happens, but
  Softmax and the V pipeline run only on the unpruned subset;
- ``SPRINT``       -- in-memory thresholding + SLD-driven delta fetches +
  on-chip recompute + two-dimensional sequence reduction.

The cycle model follows the paper's performance simulator: per-query
latency is the worst case across CORELETs of the pipelined
QK -> Softmax -> V work, overlapped with the memory system's delta
fetches (prefetched by the controller), with ``tAxTh`` charged for the
in-memory thresholding handshake.

The heavy lifting lives in :mod:`repro.core.batched`: workloads are
simulated as one stacked batch through per-mode strategy classes, so
sweeps, the multi-head roll-up, and the serving cost cache all share a
single vectorized workload-level code path.  :meth:`SprintSystem.simulate_sample`
is the same engine run on a batch of one.  A :class:`Workload` keeps its
packed batches between calls, so every config and mode that simulates
it shares one set of row statistics.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.batched import (
    BatchedKernel,
    BatchedWorkload,
    ExecutionMode,
    ModeStrategy,
    _pack_rows,
    simulate_sld_traffic,
    strategy_for,
)
from repro.core.configs import PIPELINE_OVERHEAD_CYCLES, SprintConfig
from repro.core.results import HeadReport, SimulationReport
from repro.memory.timing import DEFAULT_TIMING
from repro.models.zoo import ModelSpec
from repro.workloads.generator import Workload, WorkloadSample, generate_workload

__all__ = [
    "ExecutionMode",
    "PIPELINE_OVERHEAD_CYCLES",
    "SprintSystem",
    "simulate_sld_traffic",
]


#: Sample positions sharing one seq_len, and their batch.
_Bucket = Tuple[List[int], BatchedWorkload]


def _buckets(samples: Sequence[WorkloadSample]) -> List[_Bucket]:
    """``samples`` grouped by seq_len (first-seen order) and batched."""
    groups: Dict[int, List[int]] = {}
    for i, sample in enumerate(samples):
        groups.setdefault(sample.seq_len, []).append(i)
    return [
        (indices, BatchedWorkload.from_samples([samples[i] for i in indices]))
        for indices in groups.values()
    ]


def _workload_buckets(workload: Workload, check_masks: bool) -> List[_Bucket]:
    """``workload``'s buckets, memoized on it for every config and mode.

    The memo records the samples it was built from and each one's
    seq_len, valid length and causal flag, and is rebuilt when any of
    them differ.  Callers that read the masks (``check_masks``) also
    re-pack every mask and rebuild a bucket whose packed rows changed,
    so a mask edited in place is never served stale statistics.
    """
    samples = list(workload.samples)
    shape = [(id(s), s.seq_len, s.valid_len, s.causal) for s in samples]
    if workload._batches is None or workload._batches[1] != shape:
        # The memo holds its samples, so no other object can take
        # their ids while it lives.
        workload._batches = (samples, shape, _buckets(samples))
    elif check_masks:
        buckets = workload._batches[2]
        for pos, (indices, batch) in enumerate(buckets):
            members = [samples[i] for i in indices]
            if not all(
                np.array_equal(_pack_rows(np.asarray(s.keep_mask, dtype=bool)), rows)
                for s, rows in zip(members, batch.words)
            ):
                buckets[pos] = (indices, BatchedWorkload.from_samples(members))
    return workload._batches[2]


class SprintSystem:
    """Simulate a :class:`SprintConfig` over calibrated workloads.

    Parameters
    ----------
    config:
        Hardware configuration (Table I).
    timing:
        Memory timing table (tAxTh etc.).
    enable_sld:
        Ablation knob: ``False`` disables the Spatial Locality Detection
        reuse, so every unpruned key/value is re-fetched per query.
    enable_interleaving:
        Ablation knob: ``False`` maps keys to CORELETs in sequential
        blocks instead of token interleaving (Figure 8's comparison).
    sld_slow_exact:
        ``True`` routes SLD traffic through the retained query-by-query
        LRU reference loop instead of the vectorized residency sweep
        (identical counts; used by parity tests and benchmarks).
    """

    def __init__(
        self,
        config: SprintConfig,
        timing=DEFAULT_TIMING,
        enable_sld: bool = True,
        enable_interleaving: bool = True,
        sld_slow_exact: bool = False,
    ):
        self.config = config
        self.timing = timing
        self.enable_sld = enable_sld
        self.enable_interleaving = enable_interleaving
        self.kernel = BatchedKernel(
            config,
            timing=timing,
            enable_sld=enable_sld,
            enable_interleaving=enable_interleaving,
            sld_slow_exact=sld_slow_exact,
        )

    # ------------------------------------------------------------------
    # simulation entry points
    # ------------------------------------------------------------------
    def simulate_sample(
        self, sample: WorkloadSample, mode: ExecutionMode
    ) -> HeadReport:
        """Simulate one attention head on one input sample."""
        return self.simulate_heads([sample], mode)[0]

    def simulate_heads(
        self, samples: Sequence[WorkloadSample], mode: ExecutionMode
    ) -> List[HeadReport]:
        """Per-sample head reports for ``samples``, batched by seq_len.

        Samples sharing a sequence length are stacked and simulated as
        one :class:`~repro.core.batched.BatchedWorkload`; the returned
        list preserves input order.
        """
        strategy = strategy_for(mode)
        samples = list(samples)
        return self._simulate_buckets(strategy, _buckets(samples), len(samples))

    def simulate_workload(
        self,
        workload: Workload,
        mode: ExecutionMode,
        model_name: str = "custom",
    ) -> SimulationReport:
        """Simulate a whole workload in one batched pass.

        The workload's packed batches and their row statistics are
        memoized on it, so later calls under any config or mode reuse
        them (see :func:`_workload_buckets`).
        """
        strategy = strategy_for(mode)
        buckets = _workload_buckets(workload, check_masks=strategy.reads_masks)
        heads = self._simulate_buckets(strategy, buckets, len(workload))
        return SimulationReport.from_heads(
            model=model_name,
            config=self.config.name,
            mode=mode.value,
            heads=heads,
        )

    def _simulate_buckets(
        self, strategy: ModeStrategy, buckets: List[_Bucket], count: int
    ) -> List[HeadReport]:
        reports: List[Optional[HeadReport]] = [None] * count
        for indices, batch in buckets:
            for i, report in zip(indices, strategy.simulate_batch(self.kernel, batch)):
                reports[i] = report
        return reports

    def simulate_modes(
        self,
        workload: Workload,
        modes: Sequence[ExecutionMode],
        model_name: str = "custom",
    ) -> Dict[str, SimulationReport]:
        """One workload under several execution modes, keyed by mode value.

        Convenience wrapper for the base-vs-SPRINT comparison pattern
        the experiment sweeps use: one call, one workload object, every
        mode simulated over the identical masks (each mode is one
        batched :meth:`simulate_workload` pass).
        """
        return {
            mode.value: self.simulate_workload(workload, mode, model_name)
            for mode in modes
        }

    def simulate_model(
        self,
        spec: ModelSpec,
        mode: ExecutionMode,
        num_samples: int = 3,
        seed: int = 0,
        locality: Optional[float] = None,
    ) -> SimulationReport:
        """Generate the model's calibrated workload and simulate it."""
        workload = generate_workload(
            seq_len=spec.seq_len,
            pruning_rate=spec.pruning_rate,
            padding_ratio=spec.padding_ratio,
            num_samples=num_samples,
            locality=spec.locality if locality is None else locality,
            causal=spec.causal,
            seed=seed,
        )
        return self.simulate_workload(workload, mode, model_name=spec.name)
