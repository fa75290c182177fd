"""Learned-threshold runtime pruning (the mechanism SPRINT accelerates).

The paper builds on LeOPArd-style *learned runtime pruning*: a per-layer
threshold, learned during fine-tuning, is compared against every
pre-softmax score.  Scores below the threshold are replaced by a large
negative constant so the softmax drives their probability to zero
(Eq. 3).  SPRINT moves the *comparison* into ReRAM using approximate
scores; this module provides both the exact comparison and the
approximate variant used for in-memory thresholding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.attention.functional import NEG_INFINITY, softmax
from repro.attention.quantization import quantize_scores


@dataclass(frozen=True)
class PruningResult:
    """Outcome of a runtime-pruning pass over a score matrix.

    Attributes
    ----------
    keep_mask:
        Boolean ``(s, s)``; ``True`` where the key survives for that query.
    scores:
        The ``(s, s)`` score matrix with pruned entries nullified.
    probabilities:
        Softmax over :attr:`scores`.
    threshold:
        The threshold the comparison used.
    """

    keep_mask: np.ndarray
    scores: np.ndarray
    probabilities: np.ndarray
    threshold: float

    @property
    def pruning_rate(self) -> float:
        """Fraction of (query, key) score entries removed."""
        return 1.0 - float(np.mean(self.keep_mask))

    def unpruned_counts(self) -> np.ndarray:
        """Number of surviving keys per query (length ``s``)."""
        return self.keep_mask.sum(axis=1)

    def pruning_vectors(self) -> np.ndarray:
        """Binary pruning vectors as the hardware emits them.

        Follows the paper's memory-controller convention ('1' -> pruned,
        '0' -> unpruned, section V-C).
        """
        return (~self.keep_mask).astype(np.uint8)


#: Arrays smaller than this go straight to ``np.quantile``: below it the
#: whole-array partition costs less than sampling and counting.
SELECT_MIN_SIZE = 1 << 15
#: Size of the sample that brackets each needed order statistic.
SELECT_SAMPLE_SIZE = 1 << 14
#: Bracket half-width, in binomial standard deviations of the sample rank,
#: plus a fixed slack of sample positions.
_SELECT_SIGMAS = 5.0
_SELECT_SLACK = 4


def _splitmix64(counter: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer of each uint64 counter (wrapping math)."""
    z = counter + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


_STRATA = np.arange(SELECT_SAMPLE_SIZE, dtype=np.uint64)
#: The sample's positions as fractions of the array length: one point
#: per equal stratum, offset inside it by the stratum index's hash (its
#: top 53 bits as a fraction in [0, 1)).
_SAMPLE_FRACTIONS = (
    _STRATA + (_splitmix64(_STRATA) >> np.uint64(11)) * 2.0**-53
) / SELECT_SAMPLE_SIZE


def _sample_positions(n: int) -> np.ndarray:
    """Where :func:`select_quantile` samples an array of ``n`` values.

    A jittered (stratified) sample: the array is cut into
    :data:`SELECT_SAMPLE_SIZE` equal strata and each gives one value, at
    a fixed hashed offset.  It is deterministic and draws no RNG.  Equal
    strata keep every stretch of the array (every row of a score
    matrix) equally represented; the hashed offsets keep the sample
    from locking onto the columns, which a fixed stride does whenever
    it shares a factor with the row length.
    """
    return (_SAMPLE_FRACTIONS * n).astype(np.intp)


def _bracket(values: np.ndarray, lo: float, hi: float):
    """``(count of values < lo, values in [lo, hi] plus any NaN)``.

    An infinite bound skips its comparison.  NaN compares false on both
    sides, so it always lands in the window, where the caller sees it.
    """
    below = values < lo if lo > -np.inf else None
    above = values > hi if hi < np.inf else None
    if below is None and above is None:
        return 0, values.copy()
    if below is None:
        return 0, values[~above]
    if above is None:
        return int(np.count_nonzero(below)), values[~below]
    return int(np.count_nonzero(below)), values[below == above]


def select_quantile(values: np.ndarray, q, *, floor: Optional[float] = None):
    """``np.quantile(values, q)`` (linear method), byte for byte.

    Instead of partitioning the whole array, each needed pair of order
    statistics is selected from a small window of it.  The virtual
    index ``(n - 1) * q``, its floor and the interpolation weight
    ``gamma`` are computed exactly as numpy computes them.  A
    deterministic sample (no RNG draws) gives bounds
    ``[lo, hi]`` expected to bracket the pair; exact counts of the
    values below ``lo`` and inside the bounds check that they do, and
    only the values inside are partitioned.  numpy's two-sided lerp is
    then reproduced on the selected pair.

    With ``floor``, the values at or below it are left out: the result
    is ``np.quantile(values[values > floor], q)``, selected without that
    copy.  Every left-out value sorts below every counted one, so order
    statistic ``k`` of the counted values is order statistic
    ``k + left_out`` of the whole array.

    Every other case is handed to ``np.quantile`` itself, so the result
    is always numpy's: arrays of fewer than :data:`SELECT_MIN_SIZE`
    counted values, non-float64 values or ``q``, ``q`` that is not a
    scalar or 1-d in ``[0, 1]``, a bracket the counts refute, any NaN,
    and an order statistic equal to zero (``+0.0`` and ``-0.0`` compare
    equal, so which one a partition puts in place is not determined by
    the values).
    """
    values = np.asarray(values)
    q_arr = np.asanyarray(q)
    size = values.size
    counted = None if floor is None else values > floor
    n = size if counted is None else int(np.count_nonzero(counted))
    # Ranks of the counted values in the whole array start here.  A NaN
    # is left out too but does not sort low; it always lands in the
    # bracket's window, which hands the call to numpy.
    offset = size - n
    if counted is not None and n == 0:
        raise ValueError(f"no values above floor {floor}")

    def numpy_quantile():
        return np.quantile(values if offset == 0 else values[counted], q)

    if (
        n < SELECT_MIN_SIZE
        or values.dtype != np.float64
        or q_arr.dtype != np.float64
        or q_arr.ndim > 1
        or not ((q_arr >= 0.0) & (q_arr <= 1.0)).all()
    ):
        return numpy_quantile()
    flat = values.reshape(-1)
    # numpy's virtual index, floor, top clamp and gamma, in its order.
    virtual = np.atleast_1d(np.asanyarray((n - 1) * q_arr))
    previous = np.floor(virtual)
    top = virtual >= n - 1
    previous[top] = -1
    gamma = virtual - previous
    lower = np.where(top, n - 1, previous).astype(np.intp) + offset
    upper = np.where(top, n - 1, previous + 1).astype(np.intp) + offset

    sample = np.sort(flat[_sample_positions(size)])
    m = sample.size
    a = np.empty(virtual.shape)
    b = np.empty(virtual.shape)
    for i, (k0, k1) in enumerate(zip(lower.tolist(), upper.tolist())):
        p = k0 / size
        margin = int(_SELECT_SIGMAS * (m * p * (1.0 - p)) ** 0.5) + _SELECT_SLACK
        j0 = k0 * m // size - margin
        j1 = -(-(k1 + 1) * m // size) + margin
        lo = sample[j0] if j0 >= 0 else -np.inf
        hi = sample[j1] if j1 < m else np.inf
        below, window = _bracket(flat, lo, hi)
        if (
            not below <= k0 <= k1 < below + window.size
            or np.isnan(window).any()
        ):
            return numpy_quantile()
        window.partition([k0 - below, k1 - below])
        a[i] = window[k0 - below]
        b[i] = window[k1 - below]
    if not (a.all() and b.all()):
        return numpy_quantile()
    # numpy's _lerp: from below when gamma < 0.5, from above otherwise.
    diff = b - a
    result = a + diff * gamma
    np.subtract(b, diff * (1 - gamma), out=result, where=gamma >= 0.5)
    return result[0] if q_arr.ndim == 0 else result


def calibrate_threshold(scores: np.ndarray, target_pruning_rate: float) -> float:
    """Pick the threshold that yields ``target_pruning_rate`` on ``scores``.

    The paper *learns* thresholds during task fine-tuning and reports the
    resulting pruning rate per model (section VII).  Without the original
    fine-tuning pipeline we invert the relationship: given a calibration
    score sample, choose the quantile that reproduces the published rate.
    Scores at or below ``NEG_INFINITY / 2`` (masked entries) are left
    out.  The threshold is byte-equal to ``np.quantile`` over the
    remaining scores: :func:`select_quantile` computes it at offset
    ranks of the whole matrix, so the masked entries cost no copy.  A
    matrix with no unmasked score raises ``ValueError``.
    """
    if not 0.0 <= target_pruning_rate < 1.0:
        raise ValueError("target_pruning_rate must be in [0, 1)")
    scores = np.asarray(scores, dtype=np.float64)
    return float(
        select_quantile(scores, target_pruning_rate, floor=NEG_INFINITY / 2)
    )


def threshold_keep_mask(
    decision_scores: np.ndarray, threshold: float, *, keep_self: bool = True
) -> np.ndarray:
    """The comparison half of Eq. 3: the ``(s, s)`` keep mask alone.

    A key survives where its decision score reaches ``threshold``;
    ``keep_self`` always keeps the diagonal.  This is exactly
    :attr:`PruningResult.keep_mask` of :func:`prune_scores`, without the
    nullified scores and softmax, for callers that need only the mask.
    """
    decision_scores = np.asarray(decision_scores, dtype=np.float64)
    keep = decision_scores >= threshold
    if keep_self:
        np.fill_diagonal(keep, True)
    # Never prune everything in a row: keep the row maximum so softmax has
    # at least one finite entry (hardware equivalently falls back to the
    # strongest key when the analog comparator rejects all columns).
    empty_rows = ~keep.any(axis=1)
    if np.any(empty_rows):
        best = np.argmax(decision_scores[empty_rows], axis=1)
        keep[np.nonzero(empty_rows)[0], best] = True
    return keep


def prune_scores(
    scores: np.ndarray,
    threshold: float,
    *,
    decision_scores: Optional[np.ndarray] = None,
    keep_self: bool = True,
) -> PruningResult:
    """Apply Eq. 3: threshold-compare, nullify, softmax.

    Parameters
    ----------
    scores:
        Full-precision ``(s, s)`` pre-softmax scores.  These are the values
        the surviving entries keep (the *recompute* path).
    threshold:
        Learned threshold ``Th``.
    decision_scores:
        Scores used for the *comparison* only.  Pass the b-bit / noisy
        in-memory scores to model SPRINT's approximate thresholding; by
        default the exact scores decide (ideal runtime pruning).
    keep_self:
        Always keep the diagonal (a query's own key), which self-attention
        pruning schemes preserve to keep every row's softmax well defined.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if decision_scores is None:
        decision_scores = scores
    decision_scores = np.asarray(decision_scores, dtype=np.float64)
    if decision_scores.shape != scores.shape:
        raise ValueError("decision_scores shape must match scores")
    keep = threshold_keep_mask(decision_scores, threshold, keep_self=keep_self)
    pruned = np.where(keep, scores, NEG_INFINITY)
    return PruningResult(
        keep_mask=keep,
        scores=pruned,
        probabilities=softmax(pruned, axis=-1),
        threshold=float(threshold),
    )


def runtime_prune(
    scores: np.ndarray,
    target_pruning_rate: float,
    *,
    decision_bits: Optional[int] = None,
    noise_sigma: float = 0.0,
    rng: Optional[np.random.Generator] = None,
    keep_self: bool = True,
) -> PruningResult:
    """Calibrate a threshold and prune, optionally with approximate scores.

    ``decision_bits`` quantizes the comparison scores to ``b`` bits (Fig. 5
    sensitivity study); ``noise_sigma`` adds Gaussian analog noise relative
    to the score standard deviation (circuit inaccuracies, section III-A).
    """
    scores = np.asarray(scores, dtype=np.float64)
    threshold = calibrate_threshold(scores, target_pruning_rate)
    decision = scores
    if decision_bits is not None:
        decision = quantize_scores(decision, decision_bits)
    if noise_sigma > 0.0:
        rng = rng or np.random.default_rng(0)
        decision = decision + rng.normal(
            0.0, noise_sigma * float(np.std(scores)), size=scores.shape
        )
    return prune_scores(
        scores, threshold, decision_scores=decision, keep_self=keep_self
    )
