"""Pruning/padding mask generation calibrated to published model stats.

:func:`generate_workload` is the entry point used by the performance
experiments: given a model's sequence length, pruning rate, and padding
ratio it produces keep masks whose adjacent-query overlap is 2-3x the
random expectation (Figure 3), alongside matched *random* masks at the
same pruning rate for the locality comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, List, Optional

import numpy as np

from repro.attention.functional import NEG_INFINITY
from repro.attention.pruning import calibrate_threshold, threshold_keep_mask
from repro.workloads.distributions import (
    calibrated_score_matrices,
    calibrated_score_matrix,
)


@dataclass
class WorkloadSample:
    """One input's worth of masks for a single attention head.

    Attributes
    ----------
    keep_mask:
        Boolean ``(s, s)``; ``True`` where the key survives pruning for
        that query.  Padded rows/columns are already ``False``.
    valid_len:
        Number of non-padded tokens at the head of the sequence.
    seq_len:
        Model (maximum) sequence length ``s``.
    """

    keep_mask: np.ndarray
    valid_len: int
    seq_len: int
    causal: bool = False

    @property
    def pruning_rate(self) -> float:
        """Pruning rate measured over the *scoreable* region only.

        For causal models the scoreable region is the lower triangle of
        the valid area; for encoders it is the full valid square.
        """
        valid = self.keep_mask[: self.valid_len, : self.valid_len]
        if valid.size == 0:
            return 0.0
        if self.causal:
            region = np.tril(np.ones_like(valid, dtype=bool))
            return 1.0 - float(valid[region].mean())
        return 1.0 - float(np.mean(valid))

    def pruning_vectors(self) -> np.ndarray:
        """Hardware-convention binary vectors ('1' -> pruned)."""
        return (~self.keep_mask).astype(np.uint8)


@dataclass
class Workload:
    """A batch of :class:`WorkloadSample` plus generation metadata."""

    samples: List[WorkloadSample] = field(default_factory=list)
    seq_len: int = 0
    target_pruning_rate: float = 0.0
    padding_ratio: float = 0.0
    #: The simulator's memo of the samples' bit-packed keep rows and row
    #: statistics, shared by every config and mode that simulates this
    #: workload (owned by :meth:`repro.core.system.SprintSystem.
    #: simulate_workload`, which re-validates it on every call).
    _batches: Any = field(default=None, init=False, repr=False, compare=False)

    def __iter__(self):
        return iter(self.samples)

    def __len__(self) -> int:
        return len(self.samples)

    def mean_pruning_rate(self) -> float:
        rates = [s.pruning_rate for s in self.samples]
        return float(np.mean(rates)) if rates else 0.0


def _keep_mask(scores: np.ndarray, pruning_rate: float, causal: bool) -> np.ndarray:
    """The threshold step: the keep mask of a calibrated score matrix.

    For ``causal`` models the upper triangle of ``scores`` is first
    overwritten with ``NEG_INFINITY``, so the threshold is calibrated
    within the causal region (at offset ranks of the whole matrix, see
    :func:`~repro.attention.pruning.calibrate_threshold`).  Those
    entries then sit below the threshold, so the kept keys never leave
    the lower triangle.
    """
    if causal:
        np.copyto(scores, NEG_INFINITY, where=~np.tri(len(scores), dtype=bool))
    threshold = calibrate_threshold(scores, pruning_rate)
    return threshold_keep_mask(scores, threshold, keep_self=True)


def structured_keep_mask(
    seq_len: int,
    pruning_rate: float,
    *,
    locality: float = 0.8,
    causal: bool = False,
    rng: Optional[np.random.Generator] = None,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """One ``(s, s)`` keep mask with calibrated rate and spatial locality.

    For ``causal`` models the upper triangle is masked before threshold
    calibration, so the pruning rate is met within the causal region.
    ``out`` is the scratch buffer of the score matrix, as in
    :func:`~repro.workloads.distributions.calibrated_score_matrix`.
    """
    rng = rng or np.random.default_rng(0)
    scores = calibrated_score_matrix(
        seq_len, pruning_rate, locality=locality, rng=rng, out=out
    )
    return _keep_mask(scores, pruning_rate, causal)


def generate_random_masks(
    seq_len: int,
    pruning_rate: float,
    count: int = 1,
    rng: Optional[np.random.Generator] = None,
) -> List[np.ndarray]:
    """Keep masks with the same rate but *no* structure (Fig. 3 baseline).

    Each query keeps an independent uniformly-random subset of keys, so
    adjacent-query overlap matches the Eq. 1 expectation.  The subsets
    come from one batched argpartition over random keys per mask:
    ranking i.i.d. uniforms and keeping each row's ``k`` smallest is a
    uniform draw without replacement, with no per-query Python loop.
    """
    rng = rng or np.random.default_rng(0)
    keep_per_query = max(1, round(seq_len * (1.0 - pruning_rate)))
    masks = []
    for _ in range(count):
        ranks = rng.random((seq_len, seq_len))
        kept = np.argpartition(ranks, keep_per_query - 1, axis=1)
        mask = np.zeros((seq_len, seq_len), dtype=bool)
        np.put_along_axis(mask, kept[:, :keep_per_query], True, axis=1)
        masks.append(mask)
    return masks


#: Half-width of the uniform jitter around a workload's padding ratio.
_PADDING_JITTER = 0.05


def _valid_len(seq_len: int, padding_ratio: float) -> int:
    """Tokens left of ``seq_len`` at ``padding_ratio``, at least 2."""
    return max(2, int(round(seq_len * (1.0 - padding_ratio))))


def generate_workload(
    seq_len: int,
    pruning_rate: float,
    *,
    padding_ratio: float = 0.0,
    num_samples: int = 4,
    locality: float = 0.8,
    causal: bool = False,
    seed: int = 0,
) -> Workload:
    """Generate a calibrated workload for one model / one attention head.

    Parameters
    ----------
    seq_len:
        Maximum sequence length of the model.
    pruning_rate:
        Target fraction of (query, key) pairs pruned in the valid region
        (paper section VII reports 64.4%-75.5% across models).
    padding_ratio:
        Mean fraction of the sequence that is padding (e.g. 0.46 for
        BERT-B on SQUAD).  Sample valid lengths are drawn around this mean.
    num_samples:
        Number of independent inputs to generate.
    locality:
        Spatial-locality knob passed to the score generator; the default
        reproduces the 2-3x over-random overlap of Figure 3.
    seed:
        Deterministic seed.
    """
    if seq_len < 1:
        raise ValueError(f"seq_len must be >= 1, got {seq_len}")
    if not 0.0 <= padding_ratio < 1.0:
        raise ValueError("padding_ratio must be in [0, 1)")
    rng = np.random.default_rng(seed)
    samples: List[WorkloadSample] = []
    # Every sample's scores are built in one buffer, sized for the longest
    # valid length the jitter can draw, so its size depends on the model,
    # not on the seed.  glibc raises its mmap threshold to the size of a
    # freed large block; a block whose size moves with the seed decides
    # whether later large arrays stay resident on the heap, and the peak
    # RSS of a run of workloads then jumps by up to 30 MB between seeds.
    longest = seq_len
    if padding_ratio > 0.0:
        longest = _valid_len(seq_len, max(0.0, padding_ratio - _PADDING_JITTER))
    buffer = np.empty(longest * longest)
    for _ in range(num_samples):
        if padding_ratio > 0.0:
            jitter = rng.uniform(-_PADDING_JITTER, _PADDING_JITTER)
            ratio = float(np.clip(padding_ratio + jitter, 0.0, 0.95))
            valid_len = _valid_len(seq_len, ratio)
        else:
            valid_len = seq_len
        keep = structured_keep_mask(
            valid_len, pruning_rate, locality=locality, causal=causal, rng=rng,
            out=buffer,
        )
        if valid_len < seq_len:
            padded = np.zeros((seq_len, seq_len), dtype=bool)
            padded[:valid_len, :valid_len] = keep
            keep = padded
        samples.append(
            WorkloadSample(
                keep_mask=keep, valid_len=valid_len,
                seq_len=seq_len, causal=causal,
            )
        )
    return Workload(
        samples=samples,
        seq_len=seq_len,
        target_pruning_rate=pruning_rate,
        padding_ratio=padding_ratio,
    )


def bucket_workloads(
    lengths: Iterable[int],
    pruning_rate: float,
    *,
    locality: float = 0.8,
    causal: bool = False,
    seed: int = 0,
) -> Iterator[Workload]:
    """One single-sample, unpadded workload per length, from one draw.

    Lazily yields, in ascending order of the distinct ``lengths``, the
    workload that ``generate_workload(L, pruning_rate,
    padding_ratio=0.0, num_samples=1, locality=locality, causal=causal,
    seed=seed)`` returns, byte for byte.  Every such call reads a prefix
    of one seeded normal stream, so the score matrices come from
    :func:`~repro.workloads.distributions.calibrated_score_matrices`,
    which draws the longest prefix once.  Nothing of an earlier length
    is kept, so a consumer that drops each workload before taking the
    next holds one keep mask at a time.
    """
    for length, scores in calibrated_score_matrices(
        lengths, locality=locality, seed=seed
    ):
        keep = _keep_mask(scores, pruning_rate, causal)
        yield Workload(
            samples=[
                WorkloadSample(
                    keep_mask=keep, valid_len=length, seq_len=length, causal=causal
                )
            ],
            seq_len=length,
            target_pruning_rate=pruning_rate,
            padding_ratio=0.0,
        )
