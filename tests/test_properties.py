"""Property-based tests (hypothesis) on core data structures/invariants."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.attention.functional import softmax
from repro.attention.locality import expected_random_overlap
from repro.attention.pruning import (
    calibrate_threshold,
    prune_scores,
    threshold_keep_mask,
)
from repro.attention.quantization import (
    combine_msb_lsb,
    quantize_scores,
    split_msb_lsb,
    symmetric_quantize,
)
from repro.core.system import simulate_sld_traffic
from repro.memory.layout import KVLayout
from repro.memory.sld import SpatialLocalityDetector

finite_floats = st.floats(
    min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False
)


@st.composite
def score_matrices(draw, max_side=12):
    side = draw(st.integers(min_value=2, max_value=max_side))
    return draw(
        arrays(np.float64, (side, side), elements=finite_floats)
    )


class TestSoftmaxProperties:
    @given(score_matrices())
    @settings(max_examples=50, deadline=None)
    def test_rows_are_distributions(self, scores):
        p = softmax(scores, axis=-1)
        assert np.all(p >= 0)
        np.testing.assert_allclose(p.sum(axis=-1), 1.0, atol=1e-9)

    @given(score_matrices(), st.floats(min_value=-50, max_value=50))
    @settings(max_examples=30, deadline=None)
    def test_shift_invariance(self, scores, shift):
        np.testing.assert_allclose(
            softmax(scores), softmax(scores + shift), atol=1e-9
        )


class TestQuantizationProperties:
    @given(
        arrays(np.float64, st.integers(1, 64), elements=finite_floats),
        st.integers(min_value=2, max_value=10),
    )
    @settings(max_examples=60, deadline=None)
    def test_symmetric_roundtrip_bound(self, x, bits):
        q = symmetric_quantize(x, bits)
        err = np.abs(q.codes * q.scale - x)
        assert np.all(err <= q.scale / 2 + 1e-9)

    @given(
        arrays(
            np.float64,
            st.integers(1, 64),
            elements=st.floats(allow_nan=False, allow_infinity=False),
        ),
        st.integers(min_value=1, max_value=16),
    )
    @example(np.array([5e-324, -5e-324, 0.0]), 8)
    @example(np.array([5e-324, -5e-324, 0.0]), 1)
    @settings(max_examples=100, deadline=None)
    def test_symmetric_codes_in_range(self, x, bits):
        # Any finite input, subnormal maxima included: a positive finite
        # scale, no division by zero, zero maps to code 0, and every
        # code is signed-range with the sign of its input.  One bit
        # stores the sign, so its codes span {-1, 0, 1}.
        with np.errstate(divide="raise", invalid="raise", over="raise"):
            q = symmetric_quantize(x, bits)
        lo, hi = (-1, 1) if bits == 1 else (-(2 ** (bits - 1)), 2 ** (bits - 1) - 1)
        assert 0.0 < q.scale < np.inf
        assert q.codes.min() >= lo
        assert q.codes.max() <= hi
        assert np.all(q.codes[x == 0] == 0)
        assert np.all(q.codes * np.sign(x) >= 0)

    @given(
        arrays(np.int64, st.integers(1, 32),
               elements=st.integers(-128, 127)),
        st.integers(min_value=1, max_value=7),
    )
    @settings(max_examples=60, deadline=None)
    def test_msb_lsb_roundtrip(self, codes, msb_bits):
        msb, lsb = split_msb_lsb(codes, bits=8, msb_bits=msb_bits)
        np.testing.assert_array_equal(
            combine_msb_lsb(msb, lsb, bits=8, msb_bits=msb_bits), codes
        )

    @given(score_matrices(), st.integers(min_value=1, max_value=10))
    @settings(max_examples=40, deadline=None)
    def test_quantize_scores_stays_in_range(self, scores, bits):
        q = quantize_scores(scores, bits)
        assert q.min() >= scores.min() - 1e-9
        assert q.max() <= scores.max() + 1e-9


class TestPruningProperties:
    @given(
        score_matrices(),
        st.floats(min_value=0.05, max_value=0.9),
    )
    @settings(max_examples=40, deadline=None)
    def test_no_empty_rows_ever(self, scores, rate):
        th = calibrate_threshold(scores, rate)
        result = prune_scores(scores, th, keep_self=False)
        assert result.keep_mask.any(axis=1).all()

    @given(score_matrices(), st.floats(min_value=0.05, max_value=0.9))
    @settings(max_examples=40, deadline=None)
    def test_probability_mass_on_kept_only(self, scores, rate):
        th = calibrate_threshold(scores, rate)
        result = prune_scores(scores, th)
        pruned_mass = result.probabilities[~result.keep_mask].sum()
        assert pruned_mass < 1e-9 * scores.shape[0]

    @given(score_matrices())
    @settings(max_examples=30, deadline=None)
    def test_lower_threshold_keeps_more(self, scores):
        th = calibrate_threshold(scores, 0.5)
        more = prune_scores(scores, th - 1.0, keep_self=False)
        fewer = prune_scores(scores, th + 1.0, keep_self=False)
        assert more.keep_mask.sum() >= fewer.keep_mask.sum()


    @given(
        score_matrices(),
        st.one_of(st.none(), st.floats(min_value=0.0, max_value=0.95)),
        st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_threshold_keep_mask_is_prune_scores_mask(
        self, scores, rate, keep_self
    ):
        # rate None: a threshold above every score, so each row keeps only
        # its diagonal (keep_self) or falls back to its argmax.
        if rate is None:
            threshold = float(scores.max()) + 1.0
        else:
            threshold = calibrate_threshold(scores, rate)
        np.testing.assert_array_equal(
            threshold_keep_mask(scores, threshold, keep_self=keep_self),
            prune_scores(scores, threshold, keep_self=keep_self).keep_mask,
        )


class TestLocalityProperties:
    @given(st.integers(2, 200), st.data())
    @settings(max_examples=50, deadline=None)
    def test_expected_overlap_bounds(self, seq_len, data):
        unpruned = data.draw(st.integers(0, seq_len))
        e = expected_random_overlap(seq_len, unpruned)
        assert -1e-9 <= e <= unpruned + 1e-9

    @given(st.integers(1, 100))
    @settings(max_examples=30, deadline=None)
    def test_full_keep_full_overlap(self, seq_len):
        e = expected_random_overlap(seq_len, seq_len)
        assert abs(e - seq_len) < 1e-6


@st.composite
def keep_masks(draw):
    q = draw(st.integers(2, 10))
    k = draw(st.integers(2, 16))
    return draw(arrays(np.bool_, (q, k)))


class TestSldProperties:
    @given(keep_masks(), st.integers(min_value=1, max_value=32))
    @settings(max_examples=60, deadline=None)
    def test_fetch_plus_reuse_equals_needed(self, keep, capacity):
        fetches, reuses = simulate_sld_traffic(keep, capacity)
        np.testing.assert_array_equal(
            fetches + reuses, keep.sum(axis=1)
        )

    @given(keep_masks())
    @settings(max_examples=40, deadline=None)
    def test_larger_capacity_never_fetches_more(self, keep):
        small, _ = simulate_sld_traffic(keep, 2)
        large, _ = simulate_sld_traffic(keep, 64)
        assert large.sum() <= small.sum()

    @given(keep_masks())
    @settings(max_examples=40, deadline=None)
    def test_stateless_detector_matches_unlimited_capacity(self, keep):
        # With capacity >= all keys, the SLD engine's Eq. 4/5 outputs
        # match the capacity-aware residency simulation... except that
        # Eq. 4/5 only remember ONE previous query; the residency model
        # remembers everything.  So Eq. 4/5 fetches >= residency fetches.
        sld = SpatialLocalityDetector(keep.shape[1])
        eq_fetches = []
        for row in keep:
            out = sld.step((~row).astype(np.uint8))
            eq_fetches.append(out.fetch_count)
        res_fetches, _ = simulate_sld_traffic(keep, keep.shape[1] + 1)
        assert sum(eq_fetches) >= res_fetches.sum()


class TestLayoutProperties:
    @given(
        st.integers(min_value=1, max_value=32),
        st.integers(min_value=1, max_value=16),
        st.lists(st.integers(0, 5000), min_size=1, max_size=50),
    )
    @settings(max_examples=50, deadline=None)
    def test_addresses_unique(self, channels, banks, tokens):
        layout = KVLayout(num_channels=channels, banks_per_channel=banks)
        addrs = {layout.address_of(t) for t in set(tokens)}
        assert len(addrs) == len(set(tokens))

    @given(st.integers(min_value=1, max_value=32), st.integers(0, 10000))
    @settings(max_examples=50, deadline=None)
    def test_channel_is_token_mod_channels(self, channels, token):
        layout = KVLayout(num_channels=channels)
        assert layout.address_of(token).channel == token % channels
