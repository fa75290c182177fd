"""Batched, vectorized simulation core.

This module is the engine behind :class:`repro.core.system.SprintSystem`:
instead of walking a workload one sample (and one query) at a time in
Python, samples are stacked into a :class:`BatchedWorkload` and each
execution mode's :class:`ModeStrategy` computes per-query keep counts,
SLD fetch/reuse traffic, pipeline cycles, and energy event tallies for
the whole workload with array-level bookkeeping.

The layering is:

- :class:`BatchedWorkload` -- samples of one sequence length, their
  keep rows bit-packed once into ``(B, S, ceil(S / 64))`` uint64 words.
  Every per-query count the strategies read (unpruned keys, each
  CORELET's interleave class, value fetches past the pinned keys) is a
  popcount over those words, memoized on the batch; the system keeps
  one batch per workload bucket, so the counts are shared by every
  config and mode.  The bool ``(B, S, S)`` stack is unpacked only for
  the reference paths (sequential-block ablation, ``slow_exact`` LRU);
- :class:`BatchedKernel` -- the shared vectorized primitives (CORELET
  imbalance, pipeline cycles, SLD residency traffic, fetch latency);
- :class:`DenseStrategy` / :class:`PruningOnlyStrategy` /
  :class:`SprintStrategy` -- one strategy per :class:`ExecutionMode`,
  each producing per-sample :class:`~repro.core.results.HeadReport`\\ s
  that are bit-identical to the historical per-sample simulator.

Exactness is a hard contract *within this module*: every strategy
transcribes the per-sample arithmetic into elementwise array arithmetic
(identical IEEE operations in identical order), and the packed SLD
residency sweep is provably equivalent to the retained query-by-query
LRU reference (``slow_exact=True``) -- see :func:`simulate_sld_traffic`.
One deliberate semantic change vs the pre-refactor simulator: LRU
eviction ties (equally-old vectors) used to be broken in unspecified
``np.argpartition`` order; they are now canonicalized to evict the
lowest key index first.  That makes residency well-defined (and
reproducible across numpy versions) but shifts SPRINT-mode fetch/reuse
counts, cycles, and energy by ~0.1-1% on some workloads relative to
pre-refactor outputs; the golden reports in ``tests/data/`` pin the
canonicalized semantics.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core.configs import SprintConfig
from repro.core.results import HeadReport
from repro.energy.model import EnergyModel
from repro.memory.timing import DEFAULT_TIMING
from repro.workloads.generator import WorkloadSample


class ExecutionMode(enum.Enum):
    """The four evaluation scenarios of the paper."""

    BASELINE = "baseline"
    MASK_ONLY = "mask_only"
    PRUNING_ONLY = "pruning_only"
    SPRINT = "sprint"


# ----------------------------------------------------------------------
# SLD residency traffic
# ----------------------------------------------------------------------
def _sld_traffic_loop(
    keep: np.ndarray, capacity_vectors: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Reference query-by-query LRU walk (the ``slow_exact`` path).

    Eviction is least-recently-used with a deterministic tie-break:
    among equally-old vectors the lowest key index is evicted first
    (vectors needed by the current query are preferred survivors).
    """
    keep = np.asarray(keep, dtype=bool)
    num_queries, num_keys = keep.shape
    resident = np.zeros(num_keys, dtype=bool)
    last_use = np.full(num_keys, -1, dtype=np.int64)
    fetches = np.zeros(num_queries, dtype=np.int64)
    reuses = np.zeros(num_queries, dtype=np.int64)
    for t in range(num_queries):
        needed = keep[t]
        if not needed.any():
            continue
        hits = needed & resident
        misses = needed & ~resident
        fetches[t] = int(misses.sum())
        reuses[t] = int(hits.sum())
        last_use[needed] = t
        resident |= needed
        over = int(resident.sum()) - capacity_vectors
        if over > 0:
            res_idx = np.nonzero(resident)[0]
            # Prefer evicting vectors the current query does not need.
            cold = res_idx[~needed[res_idx]]
            pool = cold if cold.size >= over else res_idx
            order = np.argsort(last_use[pool], kind="stable")[:over]
            resident[pool[order]] = False
    return fetches, reuses


#: ``_LOW_SET_BITS[m, r]`` masks the ``r`` least-significant set bits of
#: byte ``m`` -- the boundary-group survivors inside one packed byte
#: (``np.packbits`` is big-endian, so higher key indices sit toward the
#: least-significant bits).
_LOW_SET_BITS = np.zeros((256, 9), dtype=np.uint8)
for _m in range(256):
    _mask = 0
    _r = 0
    for _bit in range(8):  # LSB upward = highest key index first
        if _m & (1 << _bit):
            _r += 1
            _mask |= 1 << _bit
        _LOW_SET_BITS[_m, _r:] = _mask
del _m, _mask, _r, _bit


def _popcount(rows: np.ndarray) -> np.ndarray:
    """Set bits per packed row, as ``int64``."""
    return np.bitwise_count(rows).sum(axis=-1, dtype=np.int64)


def _pack_rows(keep: np.ndarray) -> np.ndarray:
    """Boolean ``(..., K)`` rows as ``(..., ceil(K / 64))`` uint64 words.

    Bits follow ``np.packbits`` (big-endian within each byte, bytes in
    key order); each row is zero-padded to whole 64-bit words, so key
    ``k`` always lands in word ``k // 64`` whatever ``K`` is.
    """
    keys = keep.shape[-1]
    packed = np.zeros(keep.shape[:-1] + (8 * -(-keys // 64),), dtype=np.uint8)
    packed[..., : -(-keys // 8)] = np.packbits(keep, axis=-1)
    return packed.view(np.uint64)


def _sld_traffic_packed(
    keep: np.ndarray, capacity_vectors: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Bit-packed residency sweep (the fast path) over a bool mask."""
    return _sld_traffic_words(
        _pack_rows(np.asarray(keep, dtype=bool)), capacity_vectors
    )


def _sld_traffic_words(
    words: np.ndarray, capacity_vectors: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Bit-packed residency sweep over :func:`_pack_rows` words.

    The LRU-with-index-tie-break buffer admits a closed form: trimming
    the residency set to capacity at every step under the total order
    ``(last_use, key_index)`` leaves exactly the top-``capacity`` keys
    of that order resident.  So key ``k`` is a reuse at query ``t`` iff
    it was used before ``t`` and fewer than ``capacity`` keys rank above
    it by ``(last use strictly before t, key index)``.  In window terms,
    the resident set before query ``t`` is the union of the last
    ``w*[t]`` queries' keys, ``w*[t]`` being the largest window whose
    distinct-key count fits capacity, plus the highest-index keys of the
    query just before that window (the boundary query) that fill the
    remaining room.

    With keep masks packed to bits (rows padded to 64-bit words), window
    unions are word ORs and distinct counts are popcounts.  ``w*`` comes
    from binary lifting: level ``j`` holds the OR of every run of
    ``2**j`` consecutive rows, built only up to the first level where
    every run overflows capacity (no window can be that long), and each
    row's window then grows by descending the levels, taking a run
    whenever the union still fits.  The boundary query contributes its
    whole words while they fit plus part of one straddling word, split
    through a 256-entry byte mask table, so any capacity resolves in
    O(log w*) packed passes.

    Trailing zero words (keys past the mask's width, e.g. a padded
    sample's columns) change no count, so a sample's rows can be swept
    at the batch's word width.
    """
    num_queries = words.shape[0]
    fetches = _popcount(words)
    reuses = np.zeros(num_queries, dtype=np.int64)
    if num_queries <= 1 or words.shape[1] == 0 or capacity_vectors <= 0:
        return fetches, reuses
    row_ids = np.arange(num_queries, dtype=np.int64)
    # -- levels[j][r]: OR of rows [r, r + 2**j) of the history (every
    #    row but the last, which precedes no query).
    history = num_queries - 1
    levels = [words[:history]]
    while True:
        size = 1 << (len(levels) - 1)
        if (_popcount(levels[-1]) > capacity_vectors).all():
            levels.pop()  # every window of `size` rows overflows
            break
        if 2 * size > history:
            break
        levels.append(levels[-1][:-size] | levels[-1][size:])
    # -- descend for w*[t]: the largest w <= t such that the keys of
    #    queries [t-w, t) number at most `capacity`.
    w_star = np.zeros(num_queries, dtype=np.int64)
    window_at = np.zeros_like(words)
    distinct_at = np.zeros(num_queries, dtype=np.int64)
    for j in range(len(levels) - 1, -1, -1):
        start = row_ids - w_star - (1 << j)
        rows = np.flatnonzero(start >= 0)
        union = window_at[rows] | levels[j][start[rows]]
        distinct = _popcount(union)
        fits = distinct <= capacity_vectors
        rows = rows[fits]
        w_star[rows] += 1 << j
        window_at[rows] = union[fits]
        distinct_at[rows] = distinct[fits]
    # Keys used inside the window are unconditionally resident.
    reuses = _popcount(words & window_at)
    # The boundary query adds its `room` highest-index keys not already
    # inside the window: whole words from the top while they fit, then
    # the highest set bits of the one word straddling the cut.
    rows = np.flatnonzero(w_star < row_ids)
    needed = words[rows]
    members = words[rows - w_star[rows] - 1] & ~window_at[rows]
    counts = np.bitwise_count(members)
    from_here = np.cumsum(counts[:, ::-1], axis=1, dtype=np.int64)[:, ::-1]
    room = capacity_vectors - distinct_at[rows]
    whole = from_here <= room[:, None]
    reuses[rows] += _popcount(needed & np.where(whole, members, 0))
    # The words that are not whole form a prefix; its last one straddles
    # the cut and keeps the room its higher words leave.
    cut_words = np.count_nonzero(~whole, axis=1)
    at = (np.arange(rows.size), np.maximum(cut_words - 1, 0))
    left = np.where(cut_words > 0, room - from_here[at] + counts[at], 0)
    straddle = members[at].view(np.uint8).reshape(-1, 8)
    byte_counts = np.bitwise_count(straddle).astype(np.int64)
    after = byte_counts[:, ::-1].cumsum(axis=1)[:, ::-1] - byte_counts
    survivors = _LOW_SET_BITS[straddle, np.clip(left[:, None] - after, 0, 8)]
    needed_bytes = needed[at].view(np.uint8).reshape(-1, 8)
    reuses[rows] += _popcount(needed_bytes & survivors)
    return fetches - reuses, reuses


def simulate_sld_traffic(
    keep_mask: np.ndarray,
    capacity_vectors: int,
    slow_exact: bool = False,
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-query (fetch, reuse) vector counts under LRU residency.

    Each query's unpruned keys are either resident (reuse, Eq. 5) or
    fetched (Eq. 4); the buffer evicts least-recently-used vectors
    beyond ``capacity_vectors``, lowest key index first among ties.
    Exactly the SLD-engine behaviour with a capacity-aware residency
    set.

    Parameters
    ----------
    keep_mask:
        Boolean ``(queries, keys)`` keep mask.
    capacity_vectors:
        K (equivalently V) buffer capacity in vectors.
    slow_exact:
        ``True`` runs the retained query-by-query LRU reference loop
        instead of the packed residency sweep.  Both return identical
        counts; the loop exists as the executable specification the
        sweep is tested against.
    """
    if slow_exact:
        return _sld_traffic_loop(keep_mask, capacity_vectors)
    return _sld_traffic_packed(keep_mask, capacity_vectors)


# ----------------------------------------------------------------------
# batched workload view
# ----------------------------------------------------------------------
@dataclass
class BatchedWorkload:
    """Samples of equal ``seq_len``, their keep rows bit-packed once.

    Every per-query statistic the strategies read is a count of kept
    keys over some key subset, so it comes from :attr:`words` by
    ``np.bitwise_count`` (:meth:`row_counts`) and is memoized here.
    A :class:`~repro.core.system.SprintSystem` keeps one instance per
    workload bucket, so the statistics are shared by every config and
    mode that simulates the workload; only the SLD sweep, which depends
    on the chip's capacity, runs per config.

    Attributes
    ----------
    words:
        Read-only uint64 ``(B, S, ceil(S / 64))``: each query's keep row
        packed by :func:`_pack_rows`; padded rows/columns are zero bits.
    valid_len:
        ``(B,)`` non-padded token counts.
    causal:
        ``(B,)`` causal flags (drives the mask-aware dense reduction).
    seq_len:
        The shared model sequence length ``S``.
    """

    words: np.ndarray
    valid_len: np.ndarray
    causal: np.ndarray
    seq_len: int
    _counts: Dict[Tuple[int, int, int], np.ndarray] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @classmethod
    def from_samples(cls, samples: Sequence[WorkloadSample]) -> "BatchedWorkload":
        if not samples:
            raise ValueError("at least one sample required")
        seq_lens = {s.seq_len for s in samples}
        if len(seq_lens) != 1:
            raise ValueError(
                f"samples must share seq_len; got {sorted(seq_lens)}"
            )
        words = np.stack(
            [_pack_rows(np.asarray(s.keep_mask, dtype=bool)) for s in samples]
        )
        words.flags.writeable = False
        return cls(
            words=words,
            valid_len=np.array([s.valid_len for s in samples], dtype=np.int64),
            causal=np.array([s.causal for s in samples], dtype=bool),
            seq_len=seq_lens.pop(),
        )

    def __len__(self) -> int:
        return self.words.shape[0]

    @property
    def keep(self) -> np.ndarray:
        """Boolean ``(B, S, S)`` keep masks, unpacked on every access.

        Only the bool reference paths (the sequential-block ablation and
        the ``slow_exact`` LRU loop) read it; it is never kept.
        """
        rows = self.words.view(np.uint8)
        return np.unpackbits(rows, axis=-1, count=self.seq_len).view(bool)

    def row_counts(self, keys: slice = slice(None)) -> np.ndarray:
        """Per-query kept keys among ``range(S)[keys]``, ``(B, S)`` int64.

        Equal to ``keep[:, :, keys].sum(axis=2)``: a popcount of the
        packed rows under a word mask of the selected keys.  Memoized
        per key selection and read-only.
        """
        span = keys.indices(self.seq_len)
        counts = self._counts.get(span)
        if counts is None:
            words = self.words
            if span != (0, self.seq_len, 1):
                selected = np.zeros(self.seq_len, dtype=bool)
                selected[keys] = True
                words = words & _pack_rows(selected)
            counts = _popcount(words)
            counts.flags.writeable = False
            self._counts[span] = counts
        return counts


# ----------------------------------------------------------------------
# shared vectorized primitives
# ----------------------------------------------------------------------
class BatchedKernel:
    """Vectorized primitives shared by the mode strategies.

    Holds the hardware configuration, memory timing, and the two
    ablation knobs; every method operates on whole-batch arrays.
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
        self.sld_slow_exact = sld_slow_exact

    # -- CORELET imbalance ---------------------------------------------
    def per_corelet_worst(
        self, batch: BatchedWorkload, num_cols: np.ndarray = None
    ) -> np.ndarray:
        """Per-query worst-case unpruned tokens on any CORELET, ``(B, S)``.

        Token interleaving sends key ``k`` to CORELET ``k % n``, so each
        CORELET's load is one of the batch's memoized strided
        :meth:`~BatchedWorkload.row_counts` (width-agnostic because
        padded columns are all ``False``).  ``num_cols`` gives each
        sample's mapped key count (its valid length); it only matters
        for the sequential-block ablation, where block boundaries depend
        on the mapped width and the counts come from the bool masks.
        """
        n = self.config.num_corelets
        if self.enable_interleaving:
            worst = batch.row_counts(slice(0, None, n))
            for c in range(1, n):
                worst = np.maximum(worst, batch.row_counts(slice(c, None, n)))
            return worst
        keep = batch.keep
        batch_size, _, keys = keep.shape
        widths = (
            np.full(batch_size, keys, dtype=np.int64)
            if num_cols is None
            else np.asarray(num_cols, dtype=np.int64)
        )
        out = np.zeros(keep.shape[:2], dtype=np.int64)
        for i in range(batch_size):
            block = -(-int(widths[i]) // n)
            counts = np.stack(
                [
                    keep[i, :, c * block : (c + 1) * block].sum(axis=1)
                    for c in range(n)
                ],
                axis=1,
            )
            out[i] = counts.max(axis=1)
        return out

    # -- cycle model ----------------------------------------------------
    def pipeline_cycles(
        self, worst_tokens: np.ndarray, row_totals: np.ndarray
    ) -> np.ndarray:
        """Per-query compute cycles for QK -> Softmax -> V (elementwise)."""
        cfg = self.config
        per_key = -(-cfg.head_dim // cfg.mac_taps)
        n = cfg.num_corelets
        softmax_tokens = -(-row_totals // n)
        softmax = softmax_tokens + -(-softmax_tokens // 2)  # 2 dividers
        return (
            worst_tokens * per_key * 2 + softmax + cfg.pipeline_overhead_cycles
        )

    def fetch_cycles(self, vectors: np.ndarray) -> np.ndarray:
        """Memory-channel cycles to move per-query vector counts."""
        return self.config.vector_fetch_cycles_array(vectors)

    # -- SLD traffic ----------------------------------------------------
    def sld_traffic(
        self, batch: BatchedWorkload
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-sample, per-query (fetch, reuse) counts, each ``(B, S)``.

        Queries beyond a sample's valid length contribute zeros.  The
        residency sweep runs per sample (its output depends on that
        sample's full mask history) but is internally loop-free, over
        the batch's packed rows; ``sld_slow_exact`` walks the bool masks
        through the reference loop instead.
        """
        capacity = self.config.kv_capacity_vectors
        fetches = np.zeros((len(batch), batch.seq_len), dtype=np.int64)
        reuses = np.zeros_like(fetches)
        keep = batch.keep if self.sld_slow_exact else None
        for i in range(len(batch)):
            valid = int(batch.valid_len[i])
            if keep is None:
                f, r = _sld_traffic_words(batch.words[i, :valid], capacity)
            else:
                f, r = _sld_traffic_loop(keep[i, :valid, :valid], capacity)
            fetches[i, :valid] = f
            reuses[i, :valid] = r
        return fetches, reuses


# ----------------------------------------------------------------------
# mode strategies
# ----------------------------------------------------------------------
class ModeStrategy:
    """One execution mode's batched event/cycle/energy accounting."""

    mode: ExecutionMode
    #: Whether the mode reads the keep masks (the dense modes only read
    #: lengths and causal flags).
    reads_masks = True

    def simulate_batch(
        self, kernel: BatchedKernel, batch: BatchedWorkload
    ) -> List[HeadReport]:
        """Per-sample head reports, in batch order."""
        raise NotImplementedError


class DenseStrategy(ModeStrategy):
    """BASELINE / MASK_ONLY: no pruning; optional 2-D sequence reduction.

    Dense cost depends only on the effective sequence length and the
    causal flag, never on the mask contents, so identical samples share
    one report computation.
    """

    reads_masks = False

    def __init__(self, mask_aware: bool):
        self.mask_aware = mask_aware
        self.mode = (
            ExecutionMode.MASK_ONLY if mask_aware else ExecutionMode.BASELINE
        )

    def simulate_batch(
        self, kernel: BatchedKernel, batch: BatchedWorkload
    ) -> List[HeadReport]:
        cache: Dict[Tuple[int, bool], HeadReport] = {}
        reports = []
        for i in range(len(batch)):
            s = int(batch.valid_len[i]) if self.mask_aware else batch.seq_len
            causal = self.mask_aware and bool(batch.causal[i])
            key = (s, causal)
            if key not in cache:
                cache[key] = self._dense_report(kernel, s, causal)
            reports.append(cache[key])
        return reports

    def _dense_report(
        self, kernel: BatchedKernel, s: int, causal: bool
    ) -> HeadReport:
        cfg = kernel.config
        capacity = cfg.kv_capacity_vectors
        resident = min(capacity, s)
        # Per-query key counts: dense unless the mask-aware config can
        # exploit a static causal mask (two-dimensional reduction).
        if causal:
            keys_per_query = np.arange(1, s + 1, dtype=np.int64)
        else:
            keys_per_query = np.full(s, s, dtype=np.int64)
        streamed_per_query = np.maximum(keys_per_query - resident, 0)
        key_fetches = int(streamed_per_query.sum()) + resident
        value_fetches = int(streamed_per_query.sum()) + resident
        query_fetches = s
        qk = int(keys_per_query.sum())
        energy = EnergyModel(vector_bytes=cfg.vector_bytes)
        energy.count_reram_vector_reads(
            key_fetches + value_fetches + query_fetches
        )
        energy.count_reram_vector_writes(3 * s)
        energy.count_buffer_vector_reads(2 * qk)
        energy.count_buffer_vector_writes(key_fetches + value_fetches)
        energy.count_qk_dot_products(qk)
        energy.count_softmax_elements(qk)
        energy.count_v_mac_rows(qk)
        # Cycles: every query scores its keys; fetches overlap compute.
        # Dense per-CORELET load is the even split ceil(keys/n), so the
        # shared pipeline model applies with row totals = key counts.
        worst = -(-keys_per_query // cfg.num_corelets)
        compute = kernel.pipeline_cycles(worst, keys_per_query)
        memory = kernel.fetch_cycles(2 * streamed_per_query)
        cycles = int(np.maximum(compute, memory).sum())
        counts = {
            "key_fetches": float(key_fetches),
            "value_fetches": float(value_fetches),
            "query_fetches": float(query_fetches),
            "reram_writes": float(3 * s),
            "qk_dot_products": float(qk),
            "softmax_elements": float(qk),
            "v_mac_rows": float(qk),
            "unpruned_total": float(qk),
            "queries": float(s),
        }
        return HeadReport(
            mode=self.mode.value, cycles=cycles,
            energy=energy.breakdown, counts=counts,
        )


class PruningOnlyStrategy(ModeStrategy):
    """On-chip learned runtime pruning without in-memory support.

    Every key still streams on chip and every Q.K dot product happens,
    but Softmax and the V pipeline run only on the unpruned subset.
    """

    mode = ExecutionMode.PRUNING_ONLY

    def simulate_batch(
        self, kernel: BatchedKernel, batch: BatchedWorkload
    ) -> List[HeadReport]:
        cfg = kernel.config
        s = batch.seq_len
        capacity = cfg.kv_capacity_vectors
        resident = min(capacity, s)
        streamed = s - resident
        # Every key still streams on chip for the full Q.K computation.
        key_fetches = s * streamed + resident
        query_fetches = s
        # Values fetch only when unpruned and outside the pinned region.
        v_fetch_per_query = batch.row_counts(slice(resident, None))
        value_fetches = v_fetch_per_query.sum(axis=1) + resident
        unpruned = batch.row_counts()
        total_unpruned = unpruned.sum(axis=1)
        qk = s * s
        energy = EnergyModel(vector_bytes=cfg.vector_bytes)
        energy.count_reram_vector_reads(
            key_fetches + value_fetches + query_fetches
        )
        energy.count_reram_vector_writes(3 * s)
        energy.count_buffer_vector_reads(qk + total_unpruned)
        energy.count_buffer_vector_writes(key_fetches + value_fetches)
        energy.count_qk_dot_products(qk)
        energy.count_softmax_elements(total_unpruned)
        energy.count_v_mac_rows(total_unpruned)
        per_key = -(-cfg.head_dim // cfg.mac_taps)
        worst_qk = -(-s // cfg.num_corelets)
        worst_v = kernel.per_corelet_worst(batch)
        softmax_tokens = -(-unpruned // cfg.num_corelets)
        softmax = softmax_tokens + -(-softmax_tokens // 2)
        compute = (
            worst_qk * per_key + softmax + worst_v * per_key
            + cfg.pipeline_overhead_cycles
        )
        memory = kernel.fetch_cycles(streamed + v_fetch_per_query)
        cycles = np.maximum(compute, memory).sum(axis=1)
        breakdowns = energy.breakdown.split()
        reports = []
        for i in range(len(batch)):
            counts = {
                "key_fetches": float(key_fetches),
                "value_fetches": float(value_fetches[i]),
                "query_fetches": float(query_fetches),
                "reram_writes": float(3 * s),
                "qk_dot_products": float(qk),
                "softmax_elements": float(total_unpruned[i]),
                "v_mac_rows": float(total_unpruned[i]),
                "unpruned_total": float(total_unpruned[i]),
                "queries": float(s),
            }
            reports.append(
                HeadReport(
                    mode=self.mode.value, cycles=int(cycles[i]),
                    energy=breakdowns[i], counts=counts,
                )
            )
        return reports


class SprintStrategy(ModeStrategy):
    """SPRINT: in-memory thresholding + SLD delta fetches + recompute."""

    mode = ExecutionMode.SPRINT

    def simulate_batch(
        self, kernel: BatchedKernel, batch: BatchedWorkload
    ) -> List[HeadReport]:
        cfg = kernel.config
        valid = batch.valid_len
        unpruned = batch.row_counts()
        if kernel.enable_sld:
            fetches, reuses = kernel.sld_traffic(batch)
        else:
            # Ablation: no locality reuse -- every unpruned vector is a
            # fresh fetch for every query.
            fetches = unpruned
            reuses = np.zeros_like(fetches)
        total_unpruned = unpruned.sum(axis=1)
        total_fetches = fetches.sum(axis=1)
        key_fetches = total_fetches
        value_fetches = total_fetches  # pruning vectors identical for K/V
        query_fetches = valid
        # In-memory thresholding events: one analog pass per column tile
        # per row tile per query, comparators across the valid columns.
        rows, cols = cfg.transposable_array
        col_tiles = -(-valid // cols)
        row_tiles = -(-cfg.head_dim // rows)
        array_ops = valid * col_tiles * row_tiles
        comparator_ops = valid * valid
        energy = EnergyModel(vector_bytes=cfg.vector_bytes)
        energy.count_reram_vector_reads(
            key_fetches + value_fetches + query_fetches
        )
        energy.count_reram_vector_writes(3 * valid)
        energy.count_inmemory_array_ops(array_ops)
        energy.count_comparator_ops(comparator_ops)
        energy.count_buffer_vector_reads(2 * total_unpruned)
        energy.count_buffer_vector_writes(key_fetches + value_fetches)
        energy.count_qk_dot_products(total_unpruned)
        energy.count_softmax_elements(total_unpruned)
        energy.count_v_mac_rows(total_unpruned)
        worst = kernel.per_corelet_worst(batch, num_cols=valid)
        compute = kernel.pipeline_cycles(worst, unpruned)
        memory = kernel.fetch_cycles(2 * fetches) + kernel.timing.t_axth
        in_valid = (
            np.arange(batch.seq_len, dtype=np.int64)[None, :] < valid[:, None]
        )
        cycles = np.where(in_valid, np.maximum(compute, memory), 0).sum(axis=1)
        sld_reuses = reuses.sum(axis=1)
        breakdowns = energy.breakdown.split()
        reports = []
        for i in range(len(batch)):
            counts = {
                "key_fetches": float(total_fetches[i]),
                "value_fetches": float(total_fetches[i]),
                "query_fetches": float(valid[i]),
                "reram_writes": float(3 * valid[i]),
                "qk_dot_products": float(total_unpruned[i]),
                "softmax_elements": float(total_unpruned[i]),
                "v_mac_rows": float(total_unpruned[i]),
                "unpruned_total": float(total_unpruned[i]),
                "inmemory_array_ops": float(array_ops[i]),
                "comparator_ops": float(comparator_ops[i]),
                "sld_reuses": float(sld_reuses[i]),
                "queries": float(valid[i]),
            }
            reports.append(
                HeadReport(
                    mode=self.mode.value, cycles=int(cycles[i]),
                    energy=breakdowns[i], counts=counts,
                )
            )
        return reports


_STRATEGIES: Dict[ExecutionMode, ModeStrategy] = {
    ExecutionMode.BASELINE: DenseStrategy(mask_aware=False),
    ExecutionMode.MASK_ONLY: DenseStrategy(mask_aware=True),
    ExecutionMode.PRUNING_ONLY: PruningOnlyStrategy(),
    ExecutionMode.SPRINT: SprintStrategy(),
}


def strategy_for(mode: ExecutionMode) -> ModeStrategy:
    """The (stateless, shared) strategy instance for ``mode``."""
    try:
        return _STRATEGIES[mode]
    except (KeyError, TypeError):
        raise ValueError(f"unknown mode {mode!r}") from None
