"""Attention-score distributions with realistic heavy tails.

Real pre-softmax attention scores concentrate most mass near zero with a
small set of strongly-correlated pairs -- which is precisely why runtime
pruning works.  We model scores as a mixture: a dense Gaussian background
plus sparse lognormal "relevance spikes" placed with column structure
(some keys matter to many queries), which also produces the
adjacent-query spatial locality of Figure 3.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Tuple

import numpy as np

from repro.attention.pruning import select_quantile


def heavy_tailed_scores(
    seq_len: int,
    *,
    spike_fraction: float = 0.15,
    spike_scale: float = 3.0,
    background_sigma: float = 0.5,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Draw an ``(s, s)`` score matrix from the background+spike mixture."""
    rng = rng or np.random.default_rng(0)
    scores = rng.normal(0.0, background_sigma, size=(seq_len, seq_len))
    spikes = rng.random((seq_len, seq_len)) < spike_fraction
    scores[spikes] += rng.lognormal(0.0, 0.6, size=int(spikes.sum())) * (
        spike_scale / np.e
    )
    return scores


#: Standard deviation of each query's drift off the shared key profile.
_DRIFT_SIGMA = 0.25
#: Spreads below this are rounding noise: such a profile or matrix is
#: flat and is not scaled up.
_MIN_SPREAD = 1e-12
#: Elements per row block of the score build: a block's passes run in
#: cache, and the one-draw path scales its independent term through a
#: buffer of this size.
_BLOCK_ELEMENTS = 1 << 16


def _check_locality(locality: float) -> None:
    if not 0.0 <= locality <= 1.0:
        raise ValueError("locality must be in [0, 1]")


def _smoothed_profile(key_profile: np.ndarray) -> np.ndarray:
    """The key-importance profile, smoothed and scaled to unit spread.

    Importance varies gradually along the sequence, as contiguous
    phrases do in language inputs.  The smoothing is entries
    ``[2, 2 + L)`` of the full 5-tap convolution: what ``mode="same"``
    returns for ``L >= 5``, and still ``L`` entries below that.  Below
    4 tokens every entry sums the same keys, so the spread is rounding
    noise at most.  A profile that flat marks no key as important: it
    becomes all zeros, because scaling its noise up to unit spread would
    push every score past the ``NEG_INFINITY / 2`` mask cut-off.
    """
    length = key_profile.size
    smoothed = np.convolve(key_profile, np.ones(5) / 5.0, mode="full")
    smoothed = smoothed[2 : 2 + length]
    spread = float(np.std(smoothed))
    if spread < _MIN_SPREAD:
        return np.zeros(length)
    return smoothed / spread


def _assemble_scores(scores, key_profile, drift, independent, locality):
    """Build the calibrated score matrix into ``scores``, in place.

    ``scores`` becomes ``locality * (profile + drift) + (1 - locality) *
    independent`` in that operation order, one row block at a time,
    then is scaled by its 0.001/0.999 quantiles.  ``key_profile`` is
    the raw profile draw and ``drift`` a column.  ``independent(rows)``
    returns the independent term's rows; they are scaled in place, so
    they must be the caller's to overwrite.
    """
    profile = _smoothed_profile(key_profile)
    step = max(1, _BLOCK_ELEMENTS // profile.size)
    for start in range(0, profile.size, step):
        rows = slice(start, start + step)
        block = scores[rows]
        # profile + drift, filled row-wise: addition is commutative, so
        # these are the bits of the broadcast sum, which is slower.
        block[...] = profile
        block += drift[rows]
        block *= locality
        term = independent(rows)
        term *= 1.0 - locality
        block += term
    # Scale so that thresholding at the pruning-rate quantile leaves a
    # realistic dynamic range above the threshold.  A matrix without one
    # (a single token) stays as it is, for the reason the profile does.
    low, high = select_quantile(scores, [0.001, 0.999])
    if high - low >= _MIN_SPREAD:
        scores *= 6.0 / (high - low)
    return scores


def calibrated_score_matrix(
    seq_len: int,
    pruning_rate: float,
    *,
    locality: float = 0.8,
    rng: Optional[np.random.Generator] = None,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Score matrix whose top ``1 - pruning_rate`` entries show locality.

    A shared per-key "importance profile" contributes ``locality`` of each
    entry's magnitude, so adjacent queries mostly agree on which keys are
    strong -- reproducing the vertical stripes of the paper's Figure 2.
    Each query sees the profile shifted by its own drift, so overlap
    decays with query distance instead of being total.  The remaining
    ``1 - locality`` is independent per (query, key) pair.

    The matrix is built in place, in the operation order of
    ``locality * (profile + drift) + (1 - locality) * independent``, and
    scaled by its 0.001/0.999 quantiles; those come from
    :func:`~repro.attention.pruning.select_quantile`, which is byte-equal
    to ``np.quantile``.  So the result is bit-identical to the
    expression evaluated with temporaries.  The independent term is
    drawn one row block at a time, in row order: ``rng`` hands out the
    same normals as one ``(seq_len, seq_len)`` draw and ends in the same
    state, without a second matrix-sized array.

    With ``out``, a contiguous 1-d float64 array of at least
    ``seq_len ** 2`` elements, the matrix is built in its first
    ``seq_len ** 2`` elements and returned as a view of them.
    """
    _check_locality(locality)
    square = seq_len * seq_len
    if out is None:
        out = np.empty(square)
    elif not (
        out.dtype == np.float64
        and out.ndim == 1
        and out.flags.c_contiguous
        and out.size >= square
    ):
        raise ValueError(
            f"out must be a contiguous 1-d float64 array of at least {square} elements"
        )
    rng = rng or np.random.default_rng(0)
    key_profile = rng.normal(0.0, 1.0, size=seq_len)
    drift = rng.normal(0.0, _DRIFT_SIGMA, size=(seq_len, 1))

    def independent_rows(rows: slice) -> np.ndarray:
        count = len(range(*rows.indices(seq_len)))
        return rng.normal(0.0, 1.0, size=(count, seq_len))

    scores = out[:square].reshape(seq_len, seq_len)
    return _assemble_scores(scores, key_profile, drift, independent_rows, locality)


def _normal(draws: np.ndarray, loc: float, scale: float, out=None) -> np.ndarray:
    """``Generator.normal(loc, scale)`` from its standard-normal draws.

    numpy computes each normal as ``loc + scale * z`` from the next
    standard normal ``z`` (so ``loc = 0.0`` turns ``-0.0`` into ``+0.0``);
    this is that arithmetic, element for element.
    """
    out = np.multiply(draws, scale, out=out)
    return np.add(loc, out, out=out)


def calibrated_score_matrices(
    lengths: Iterable[int],
    *,
    locality: float = 0.8,
    seed: int = 0,
) -> Iterator[Tuple[int, np.ndarray]]:
    """``(L, calibrated_score_matrix(L, ...))`` per length, from one draw.

    Yields, in ascending order of the distinct ``lengths``, the matrix
    that :func:`calibrated_score_matrix` returns for a fresh
    ``np.random.default_rng(seed)``, byte for byte.  That call's
    profile, drift and independent draws are standard normals
    ``[0, L)``, ``[L, 2L)`` and ``[2L, 2L + L**2)`` of the seeded
    stream, so one draw of the longest prefix serves every length.

    Each matrix is built in one reused buffer and is overwritten by the
    next: consume it before advancing the generator.  The independent
    term goes in by row blocks, through a small buffer, because the
    shared draw is never scaled in place.
    """
    _check_locality(locality)
    lengths = sorted({int(length) for length in lengths})
    if not lengths:
        return
    longest = lengths[-1]
    draws = np.random.default_rng(seed).standard_normal(
        2 * longest + longest * longest
    )
    buffer = np.empty(longest * longest)
    block = np.empty(max(_BLOCK_ELEMENTS, longest))
    for length in lengths:
        square = length * length
        independent = draws[2 * length : 2 * length + square].reshape(length, length)

        def independent_rows(rows, independent=independent):
            draw = independent[rows]
            out = block[: draw.size].reshape(draw.shape)
            return _normal(draw, 0.0, 1.0, out=out)

        key_profile = _normal(draws[:length], 0.0, 1.0)
        drift = _normal(draws[length : 2 * length], 0.0, _DRIFT_SIGMA)
        scores = buffer[:square].reshape(length, length)
        yield length, _assemble_scores(
            scores, key_profile, drift.reshape(length, 1), independent_rows, locality
        )
