"""Unit tests for repro.attention.pruning."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attention.functional import NEG_INFINITY
from repro.attention.pruning import (
    SELECT_MIN_SIZE,
    _sample_positions,
    calibrate_threshold,
    prune_scores,
    runtime_prune,
    select_quantile,
)


class TestCalibrateThreshold:
    def test_hits_target_rate(self, small_scores):
        for rate in (0.3, 0.5, 0.75, 0.9):
            th = calibrate_threshold(small_scores, rate)
            measured = np.mean(small_scores < th)
            assert abs(measured - rate) < 0.05

    def test_ignores_masked_entries(self, small_scores):
        masked = small_scores.copy()
        masked[:, :10] = NEG_INFINITY
        th_masked = calibrate_threshold(masked, 0.5)
        th_clean = calibrate_threshold(small_scores[:, 10:], 0.5)
        assert np.isclose(th_masked, th_clean)

    def test_rejects_bad_rate(self, small_scores):
        with pytest.raises(ValueError):
            calibrate_threshold(small_scores, 1.0)
        with pytest.raises(ValueError):
            calibrate_threshold(small_scores, -0.1)

    def test_rejects_all_masked(self):
        with pytest.raises(ValueError):
            calibrate_threshold(np.full((4, 4), NEG_INFINITY), 0.5)


class TestPruneScores:
    def test_keep_mask_matches_threshold(self, small_scores):
        th = calibrate_threshold(small_scores, 0.6)
        result = prune_scores(small_scores, th, keep_self=False)
        expected = small_scores >= th
        # Rows that would be empty get their max back; exclude them.
        nonempty = expected.any(axis=1)
        np.testing.assert_array_equal(
            result.keep_mask[nonempty], expected[nonempty]
        )

    def test_pruned_entries_nullified(self, small_scores):
        th = calibrate_threshold(small_scores, 0.7)
        result = prune_scores(small_scores, th)
        assert np.all(result.scores[~result.keep_mask] == NEG_INFINITY)

    def test_probabilities_zero_on_pruned(self, small_scores):
        th = calibrate_threshold(small_scores, 0.7)
        result = prune_scores(small_scores, th)
        assert np.all(result.probabilities[~result.keep_mask] < 1e-12)

    def test_rows_never_empty(self, small_scores):
        result = prune_scores(small_scores, 1e9, keep_self=False)
        assert result.keep_mask.any(axis=1).all()

    def test_keep_self_preserves_diagonal(self, small_scores):
        th = calibrate_threshold(small_scores, 0.9)
        result = prune_scores(small_scores, th, keep_self=True)
        assert np.all(np.diag(result.keep_mask))

    def test_decision_scores_decouple(self, small_scores, rng):
        th = calibrate_threshold(small_scores, 0.5)
        noisy = small_scores + rng.normal(0, 0.5, small_scores.shape)
        result = prune_scores(
            small_scores, th, decision_scores=noisy, keep_self=False
        )
        # Kept values come from the exact scores even when decisions
        # come from the noisy ones.
        kept = result.keep_mask
        np.testing.assert_array_equal(
            result.scores[kept], small_scores[kept]
        )

    def test_decision_shape_mismatch(self, small_scores):
        with pytest.raises(ValueError):
            prune_scores(small_scores, 0.0,
                         decision_scores=small_scores[:4])

    def test_pruning_rate_property(self, small_scores):
        th = calibrate_threshold(small_scores, 0.6)
        result = prune_scores(small_scores, th, keep_self=False)
        assert 0.5 <= result.pruning_rate <= 0.7

    def test_pruning_vectors_convention(self, small_scores):
        th = calibrate_threshold(small_scores, 0.5)
        result = prune_scores(small_scores, th)
        vectors = result.pruning_vectors()
        # '1' -> pruned per the paper's memory-controller convention.
        np.testing.assert_array_equal(vectors == 1, ~result.keep_mask)

    def test_unpruned_counts(self, small_scores):
        th = calibrate_threshold(small_scores, 0.5)
        result = prune_scores(small_scores, th)
        np.testing.assert_array_equal(
            result.unpruned_counts(), result.keep_mask.sum(axis=1)
        )


class TestRuntimePrune:
    def test_reaches_target_rate(self, small_scores):
        result = runtime_prune(small_scores, 0.7, keep_self=False)
        assert abs(result.pruning_rate - 0.7) < 0.08

    def test_quantized_decisions_change_mask(self, small_scores):
        exact = runtime_prune(small_scores, 0.7, keep_self=False)
        coarse = runtime_prune(
            small_scores, 0.7, decision_bits=2, keep_self=False
        )
        assert not np.array_equal(exact.keep_mask, coarse.keep_mask)

    def test_noise_changes_mask(self, small_scores, rng):
        exact = runtime_prune(small_scores, 0.7, keep_self=False)
        noisy = runtime_prune(
            small_scores, 0.7, noise_sigma=0.5, rng=rng, keep_self=False
        )
        assert not np.array_equal(exact.keep_mask, noisy.keep_mask)

    def test_noise_without_rng_is_seeded(self, small_scores):
        first = runtime_prune(small_scores, 0.7, noise_sigma=0.5)
        second = runtime_prune(small_scores, 0.7, noise_sigma=0.5)
        np.testing.assert_array_equal(first.keep_mask, second.keep_mask)

    def test_fine_quantization_preserves_mask(self, small_scores):
        exact = runtime_prune(small_scores, 0.7, keep_self=False)
        fine = runtime_prune(
            small_scores, 0.7, decision_bits=12, keep_self=False
        )
        agreement = np.mean(exact.keep_mask == fine.keep_mask)
        assert agreement > 0.98


def _assert_same_bytes(got, want):
    """Same Python type, dtype, shape and bytes (``-0.0 != 0.0`` here)."""
    assert type(got) is type(want)
    got, want = np.asarray(got), np.asarray(want)
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes()


@pytest.fixture
def quantile_calls(monkeypatch):
    """Sizes of the arrays handed to ``np.quantile`` while it is patched."""
    calls = []
    original = np.quantile

    def recording(values, q, *args, **kwargs):
        calls.append(np.asarray(values).size)
        return original(values, q, *args, **kwargs)

    monkeypatch.setattr(np, "quantile", recording)
    return calls


_EDGE_QS = st.sampled_from([0.0, 0.001, 0.5, 0.999, 1.0, 0, 1])


@st.composite
def _quantile_cases(draw):
    """An array either side of the small-array cutoff, and a ``q``."""
    n = draw(
        st.sampled_from([SELECT_MIN_SIZE - 1, SELECT_MIN_SIZE])
        | st.integers(SELECT_MIN_SIZE // 4, 3 * SELECT_MIN_SIZE)
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(
        st.sampled_from(
            ["normal", "duplicates", "signed_zeros", "infinities", "nans",
             "sorted", "constant"]
        )
    )
    if kind == "normal":
        values = rng.normal(size=n)
    elif kind == "duplicates":
        # Few distinct values; the sign flips turn some zeros into -0.0.
        values = rng.integers(-3, 4, size=n) * rng.choice([-1.0, 1.0], size=n)
    elif kind == "signed_zeros":
        values = rng.normal(size=n)
        zeros = rng.random(n) < draw(st.floats(0.0, 0.9))
        values[zeros] = rng.choice([-0.0, 0.0], size=int(zeros.sum()))
    elif kind == "infinities":
        values = rng.normal(size=n)
        tails = rng.random(n) < draw(st.floats(0.0, 0.01))
        values[tails] = rng.choice([-np.inf, np.inf], size=int(tails.sum()))
    elif kind == "nans":
        values = rng.normal(size=n)
        values[rng.random(n) < draw(st.floats(0.0, 0.01))] = np.nan
    elif kind == "sorted":
        values = np.sort(rng.normal(size=n))
        if draw(st.booleans()):
            values = values[::-1].copy()
    else:
        values = np.full(n, draw(st.sampled_from([-0.0, 0.0, 1.5, -np.inf])))
    q = draw(
        _EDGE_QS
        | st.floats(0.0, 1.0)
        | st.lists(_EDGE_QS | st.floats(0.0, 1.0), min_size=1, max_size=4)
    )
    return values, q


class TestSelectQuantile:
    @settings(max_examples=60, deadline=None)
    @given(case=_quantile_cases())
    def test_bytes_equal_numpy(self, case):
        values, q = case
        with np.errstate(invalid="ignore"):
            want = np.quantile(values, q)
            got = select_quantile(values, q)
        _assert_same_bytes(got, want)

    def test_half_gamma_interpolates_from_above(self):
        # At gamma == 0.5 numpy's lerp takes b - (b - a) * 0.5, which for
        # this pair differs from a + (b - a) * 0.5 in the last bit.
        a, b = -0.09217253762584195, 2.109778697074652
        rng = np.random.default_rng(6)
        values = np.concatenate(
            [
                a - 1.0 - rng.random(SELECT_MIN_SIZE - 1),
                [a, b],
                b + 1.0 + rng.random(SELECT_MIN_SIZE - 1),
            ]
        )
        rng.shuffle(values)
        want = np.quantile(values, 0.5)
        assert want == b - (b - a) * 0.5 != a + (b - a) * 0.5
        _assert_same_bytes(select_quantile(values, 0.5), want)

    def test_large_array_skips_the_full_partition(self, quantile_calls):
        values = np.random.default_rng(3).normal(size=(512, 512))
        got = select_quantile(values, [0.001, 0.75, 0.999])
        assert quantile_calls == []
        _assert_same_bytes(got, np.quantile(values, [0.001, 0.75, 0.999]))

    def test_small_array_uses_numpy(self, quantile_calls):
        values = np.random.default_rng(3).normal(size=SELECT_MIN_SIZE - 1)
        select_quantile(values, 0.75)
        assert quantile_calls == [SELECT_MIN_SIZE - 1]

    @pytest.mark.parametrize("shift", [10.0, -10.0])
    def test_sample_defeating_array_takes_full_partition(
        self, quantile_calls, shift
    ):
        # Every sampled position holds a value above (or below) all the
        # others, so the sample's median brackets nothing near the
        # array's median: the counts refute the bracket from below (or
        # above) and numpy partitions the whole array.
        n = 2 * SELECT_MIN_SIZE
        values = np.arange(1.0, n + 1.0)
        values[_sample_positions(n)] += shift * n
        got = select_quantile(values, 0.5)
        assert quantile_calls == [n]
        _assert_same_bytes(got, np.quantile(values, 0.5))

    def test_zero_order_statistic_takes_numpy(self, quantile_calls):
        values = np.random.default_rng(4).normal(size=2 * SELECT_MIN_SIZE)
        values[: SELECT_MIN_SIZE + 10] = -0.0
        got = select_quantile(values, 0.5)
        assert quantile_calls == [values.size]
        _assert_same_bytes(got, np.quantile(values, 0.5))


class TestCalibrateThresholdExact:
    @pytest.mark.parametrize("masked", [False, True])
    def test_equals_numpy_quantile_of_finite_scores(self, masked):
        scores = np.random.default_rng(5).normal(size=(300, 300))
        if masked:
            scores[~np.tri(300, dtype=bool)] = NEG_INFINITY
        finite = scores[scores > NEG_INFINITY / 2]
        want = float(np.quantile(finite, 0.739))
        assert calibrate_threshold(scores, 0.739) == want


@st.composite
def _triangular_cases(draw):
    """A square score matrix with one triangle masked, and a ``q``.

    The unmasked count ``L (L + 1) / 2`` (or ``L (L - 1) / 2`` with the
    diagonal masked too) falls either side of :data:`SELECT_MIN_SIZE`.
    """
    size = draw(st.sampled_from([255, 256]) | st.integers(200, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["normal", "duplicates", "signed_zeros", "nans"]))
    if kind == "duplicates":
        values = rng.integers(-3, 4, size=(size, size)) * 1.0
    else:
        values = rng.normal(size=(size, size))
    if kind == "signed_zeros":
        zeros = rng.random(values.shape) < draw(st.floats(0.0, 0.9))
        values[zeros] = rng.choice([-0.0, 0.0], size=int(zeros.sum()))
    elif kind == "nans":
        values[rng.random(values.shape) < draw(st.floats(0.0, 0.01))] = np.nan
    masked = ~np.tri(size, k=draw(st.sampled_from([0, -1])), dtype=bool)
    if draw(st.booleans()):
        masked = masked.T
    np.copyto(values, NEG_INFINITY, where=masked)
    q = draw(
        _EDGE_QS
        | st.floats(0.0, 1.0)
        | st.lists(_EDGE_QS | st.floats(0.0, 1.0), min_size=1, max_size=3)
    )
    return values, q


class TestOffsetSelection:
    @settings(max_examples=60, deadline=None)
    @given(case=_triangular_cases())
    def test_bytes_equal_numpy_over_unmasked(self, case):
        values, q = case
        with np.errstate(invalid="ignore"):
            want = np.quantile(values[values > NEG_INFINITY / 2], q)
            got = select_quantile(values, q, floor=NEG_INFINITY / 2)
        _assert_same_bytes(got, want)

    def test_selects_without_copying_the_unmasked_scores(self, quantile_calls):
        values = np.random.default_rng(7).normal(size=(400, 400))
        values[~np.tri(400, dtype=bool)] = NEG_INFINITY
        got = select_quantile(values, 0.7, floor=NEG_INFINITY / 2)
        assert quantile_calls == []
        _assert_same_bytes(
            got, np.quantile(values[values > NEG_INFINITY / 2], 0.7)
        )
