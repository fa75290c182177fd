"""Attention-score distributions with realistic heavy tails.

Real pre-softmax attention scores concentrate most mass near zero with a
small set of strongly-correlated pairs -- which is precisely why runtime
pruning works.  We model scores as a mixture: a dense Gaussian background
plus sparse lognormal "relevance spikes" placed with column structure
(some keys matter to many queries), which also produces the
adjacent-query spatial locality of Figure 3.
"""

from __future__ import annotations

from typing import Optional

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


def calibrated_score_matrix(
    seq_len: int,
    pruning_rate: float,
    *,
    locality: float = 0.8,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Score matrix whose top ``1 - pruning_rate`` entries show locality.

    A shared per-key "importance profile" contributes ``locality`` of each
    entry's magnitude, so adjacent queries mostly agree on which keys are
    strong -- reproducing the vertical stripes of the paper's Figure 2.
    The remaining ``1 - locality`` is independent per (query, key) pair.

    The matrix is built in place, in the operation order of
    ``locality * (profile + drift) + (1 - locality) * independent``, and
    scaled by its 0.001/0.999 quantiles; those come from
    :func:`~repro.attention.pruning.select_quantile`, which is byte-equal
    to ``np.quantile``.  So the result is bit-identical to the
    expression evaluated with temporaries.
    """
    if not 0.0 <= locality <= 1.0:
        raise ValueError("locality must be in [0, 1]")
    rng = rng or np.random.default_rng(0)
    key_profile = rng.normal(0.0, 1.0, size=seq_len)
    # Smooth the profile so importance varies gradually along the sequence,
    # as contiguous phrases do in language inputs.
    kernel = np.ones(5) / 5.0
    key_profile = np.convolve(key_profile, kernel, mode="same")
    key_profile = key_profile / max(float(np.std(key_profile)), 1e-12)
    # Per-query drift: each query sees a slightly shifted view of the
    # profile so overlap decays with query distance instead of being total.
    drift = rng.normal(0.0, 0.25, size=(seq_len, 1))
    independent = rng.normal(0.0, 1.0, size=(seq_len, seq_len))
    scores = key_profile[None, :] + drift
    scores *= locality
    independent *= 1.0 - locality
    scores += independent
    # Scale so that thresholding at the pruning-rate quantile leaves a
    # realistic dynamic range above the threshold.
    low, high = select_quantile(scores, [0.001, 0.999])
    scores *= 6.0 / max(high - low, 1e-12)
    return scores
