"""Unit tests for repro.workloads."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attention.locality import measure_adjacent_overlap
from repro.experiments import sweep
from repro.models.zoo import get_model
from repro.workloads.distributions import (
    calibrated_score_matrix,
    heavy_tailed_scores,
)
from repro.workloads.generator import (
    bucket_workloads,
    generate_random_masks,
    generate_workload,
    structured_keep_mask,
)


class TestDistributions:
    def test_heavy_tailed_shape(self, rng):
        scores = heavy_tailed_scores(32, rng=rng)
        assert scores.shape == (32, 32)

    def test_heavy_tail_present(self, rng):
        scores = heavy_tailed_scores(64, rng=rng)
        # Spikes push the right tail well beyond a pure Gaussian.
        assert np.max(scores) > 3 * np.std(scores)

    def test_calibrated_shape(self, rng):
        scores = calibrated_score_matrix(48, 0.7, rng=rng)
        assert scores.shape == (48, 48)

    def test_locality_bounds(self, rng):
        with pytest.raises(ValueError):
            calibrated_score_matrix(16, 0.5, locality=1.5, rng=rng)

    def test_deterministic_with_rng(self):
        a = calibrated_score_matrix(16, 0.5, rng=np.random.default_rng(3))
        b = calibrated_score_matrix(16, 0.5, rng=np.random.default_rng(3))
        np.testing.assert_array_equal(a, b)

    def test_out_buffer_holds_the_same_matrix(self):
        rng_a, rng_b = np.random.default_rng(5), np.random.default_rng(5)
        buffer = np.full(40 * 40, np.nan)
        for length in (40, 23):
            a = calibrated_score_matrix(length, 0.6, rng=rng_a)
            b = calibrated_score_matrix(length, 0.6, rng=rng_b, out=buffer)
            assert np.shares_memory(b, buffer) and b.shape == (length, length)
            assert a.tobytes() == b.tobytes()
        assert rng_a.bit_generator.state == rng_b.bit_generator.state

    @pytest.mark.parametrize(
        "out",
        [
            np.empty(16 * 16 - 1),
            np.empty(16 * 16, dtype=np.float32),
            np.empty((16, 16)),
            np.empty(2 * 16 * 16)[::2],
        ],
        ids=["short", "float32", "2-d", "strided"],
    )
    def test_out_buffer_validated(self, out):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="out must be"):
            calibrated_score_matrix(16, 0.5, rng=rng, out=out)
        assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state


class TestStructuredKeepMask:
    def test_pruning_rate_calibrated(self, rng):
        for rate in (0.5, 0.7, 0.8):
            keep = structured_keep_mask(128, rate, rng=rng)
            measured = 1.0 - keep.mean()
            assert abs(measured - rate) < 0.06

    def test_diagonal_kept(self, rng):
        keep = structured_keep_mask(64, 0.9, rng=rng)
        assert np.all(np.diag(keep))

    @pytest.mark.parametrize("causal", [False, True])
    def test_shortest_lengths(self, causal):
        # Fewer than 5 tokens: the 5-tap profile smoothing must still
        # give one entry per token (it used to return 5, which crashed
        # at 2-4 tokens and gave a (1, 5) mask at one).
        for length in range(1, 9):
            keep = generate_workload(
                length, 0.7, num_samples=1, causal=causal, seed=length
            ).samples[0].keep_mask
            assert keep.shape == (length, length)
            assert np.diag(keep).all()

    def test_causal_upper_triangle_empty(self, rng):
        keep = structured_keep_mask(48, 0.6, causal=True, rng=rng)
        upper = ~np.tril(np.ones((48, 48), dtype=bool))
        assert not keep[upper].any()

    def test_causal_rate_in_lower_triangle(self, rng):
        keep = structured_keep_mask(128, 0.7, causal=True, rng=rng)
        lower = np.tril(np.ones((128, 128), dtype=bool))
        rate = 1.0 - keep[lower].mean()
        assert abs(rate - 0.7) < 0.08

    def test_locality_increases_overlap(self, rng):
        low = structured_keep_mask(
            128, 0.7, locality=0.1, rng=np.random.default_rng(7)
        )
        high = structured_keep_mask(
            128, 0.7, locality=0.9, rng=np.random.default_rng(7)
        )
        assert (
            measure_adjacent_overlap(high) > measure_adjacent_overlap(low)
        )


class TestRandomMasks:
    def test_count_and_shape(self, rng):
        masks = generate_random_masks(32, 0.75, count=3, rng=rng)
        assert len(masks) == 3
        assert masks[0].shape == (32, 32)

    def test_exact_keep_count_per_row(self, rng):
        masks = generate_random_masks(40, 0.75, count=1, rng=rng)
        keep_per_row = masks[0].sum(axis=1)
        assert np.all(keep_per_row == 10)


class TestGenerateWorkload:
    def test_sample_count(self):
        wl = generate_workload(64, 0.7, num_samples=3, seed=0)
        assert len(wl) == 3

    def test_mean_pruning_rate(self):
        wl = generate_workload(128, 0.75, num_samples=3, seed=0)
        assert abs(wl.mean_pruning_rate() - 0.75) < 0.06

    def test_padding_zeroes_tail(self):
        wl = generate_workload(
            64, 0.7, padding_ratio=0.5, num_samples=2, seed=0
        )
        for sample in wl:
            assert not sample.keep_mask[sample.valid_len:, :].any()
            assert not sample.keep_mask[:, sample.valid_len:].any()

    def test_valid_len_tracks_padding(self):
        wl = generate_workload(
            100, 0.7, padding_ratio=0.4, num_samples=4, seed=2
        )
        for sample in wl:
            assert abs(sample.valid_len - 60) <= 12

    def test_no_padding_full_valid(self):
        wl = generate_workload(64, 0.7, num_samples=1, seed=0)
        assert wl.samples[0].valid_len == 64

    def test_causal_samples(self):
        wl = generate_workload(
            64, 0.7, causal=True, num_samples=1, seed=0
        )
        sample = wl.samples[0]
        assert sample.causal
        upper = ~np.tril(np.ones((64, 64), dtype=bool))
        assert not sample.keep_mask[upper].any()

    def test_deterministic(self):
        a = generate_workload(48, 0.6, num_samples=2, seed=9)
        b = generate_workload(48, 0.6, num_samples=2, seed=9)
        for sa, sb in zip(a, b):
            np.testing.assert_array_equal(sa.keep_mask, sb.keep_mask)

    def test_score_buffer_size_is_independent_of_the_seed(self, monkeypatch):
        # One buffer per workload, sized for the longest valid length the
        # jitter can draw (round(64 * (1 - 0.35)) = 42), whatever the seed.
        from repro.workloads import generator

        built = []
        original = generator.calibrated_score_matrix

        def spy(seq_len, *args, out=None, **kwargs):
            built.append((seq_len, out))
            return original(seq_len, *args, out=out, **kwargs)

        monkeypatch.setattr(generator, "calibrated_score_matrix", spy)
        for seed in range(8):
            built.clear()
            generate_workload(64, 0.7, padding_ratio=0.4, num_samples=3, seed=seed)
            assert len(built) == 3
            assert all(out is built[0][1] for _, out in built)
            assert built[0][1].size == 42 * 42
            assert all(length <= 42 for length, _ in built)

    def test_rejects_bad_padding(self):
        with pytest.raises(ValueError):
            generate_workload(32, 0.5, padding_ratio=1.0)

    def test_rejects_empty_sequence(self):
        with pytest.raises(ValueError, match="seq_len"):
            generate_workload(0, 0.7)

    def test_pruning_vectors_convention(self):
        wl = generate_workload(32, 0.5, num_samples=1, seed=0)
        sample = wl.samples[0]
        vectors = sample.pruning_vectors()
        np.testing.assert_array_equal(vectors == 1, ~sample.keep_mask)


#: sha256 of the bit-packed keep masks ``generate_workload`` produces for
#: every model of the figure grid at ``samples_for(model, 2)``, per grid
#: seed: seed 1 is the ``sprint-experiments`` default grid, seed 2 the
#: next bench pass (causal GPT-2-L and 4096-long Synth-2 included).  Mask
#: generation must stay bit-exact: every figure, golden report and
#: benchmark digest is computed from these masks.
GRID_KEEP_MASK_SHA256 = {
    "BERT-B": {
        1: "4b163b634993246d783fc648af84a36dda50f63f4aedadcaeb9c6d9c0bab0aab",
        2: "960cfb166155288b0916c085bc84d3c5ea43466ac5ece31948205ae2f41774c0",
    },
    "BERT-L": {
        1: "ec4228ab8cdc559d0ae0b67111244d9b5ac891ebdfda2332f64fb9fa6c4fbf54",
        2: "5720c8c36a04c1a43d4fef18c75c740dd8185ea88ae4f9cd43ed9eb1d4e9a6c5",
    },
    "ALBERT-XL": {
        1: "9bffe5a38ac89d4522aba22b65ef3057e6685af8a9bed75327917fb3e906a6d6",
        2: "91770acdffff0561455fafa31ba09e148c58b349853ea48c7be49adaf4134e76",
    },
    "ALBERT-XXL": {
        1: "f832fb34514400360f74a012df8405bd85942869bdfec1af30bb96f3bbd22480",
        2: "f484ff85e9d62b029a118c18f1f8277e0062942f4360c3a4c087abcc8d19975a",
    },
    "ViT-B": {
        1: "7bd3a7e753f5651a762f5f0410be36c5dfa577f219acb8c4b34ace7c49d0301d",
        2: "594fa258afd4ff654b1b27ff2b89298c4a417c1465838df8df8fa4130a04f406",
    },
    "GPT-2-L": {
        1: "2b1d58ebad2519e379164d849dde713541a8b9ea4b9e4accb2cf86fdb2409967",
        2: "b68128b09663a4d13cdf51d19885130f521a158fb466a42592f16af5d7d639a4",
    },
    "Synth-1": {
        1: "bce0242b241ec1d7c783094895c0ef04a8adf2a079b22fc433d34df73e0e6661",
        2: "61bc85ead74e1ee466b36e03f1d5b18d6bc2ed2e658915a6825f21c3282442b5",
    },
    "Synth-2": {
        1: "646fa0c7d32e1af7a9080083fa7737a3db66a17d595c75389a140e54c5ae8293",
        2: "813e943a61d68611caee502db0f715ce39e4b1808ddaeda93f50e12304d6c10d",
    },
}


class TestGridKeepMaskPins:
    def test_pins_cover_every_grid_model(self):
        assert set(GRID_KEEP_MASK_SHA256) == set(sweep.ALL_MODELS)

    @pytest.mark.parametrize("model", sweep.ALL_MODELS)
    def test_keep_masks_bit_exact(self, model):
        spec = get_model(model)
        for seed, pin in GRID_KEEP_MASK_SHA256[model].items():
            wl = generate_workload(
                seq_len=spec.seq_len,
                pruning_rate=spec.pruning_rate,
                padding_ratio=spec.padding_ratio,
                num_samples=sweep.samples_for(model, 2),
                locality=spec.locality,
                causal=spec.causal,
                seed=seed,
            )
            digest = hashlib.sha256()
            for sample in wl:
                digest.update(np.packbits(sample.keep_mask).tobytes())
            assert digest.hexdigest() == pin, f"grid seed {seed}"


#: sha256 of the bit-packed, unpadded seed-0 keep mask behind a
#: ``ServiceCostModel`` length bucket (one sample at the bucket length):
#: causal GPT-2-L at 32, 256 and 1024 tokens, and BERT-B at its full 384.
#: Every serving price is computed from these masks.
SERVICE_BUCKET_MASK_SHA256 = {
    ("GPT-2-L", 32): "c9505c52e31ef2b79752b8fa6b5f5088a0e7e5121cda1310e21a85230d1f9588",
    ("GPT-2-L", 256): "b46e13c15d033b93cafed7aa19eda88f943060f7fdb5def54257fc7ece8edc5c",
    ("GPT-2-L", 1024): "b3cb5151e76aa6a9519940329e9d1edf6bb2e0e1d9b7936081896c0dd4537a76",
    ("BERT-B", 384): "8e09d23d96b755987f4c6369082cf1232c1b215d865fdc9872d13f6ce1bed4f6",
}


class TestServiceBucketMaskPins:
    @pytest.mark.parametrize(
        "model,length", sorted(SERVICE_BUCKET_MASK_SHA256)
    )
    def test_bucket_mask_bit_exact(self, model, length):
        spec = get_model(model)
        wl = generate_workload(
            seq_len=length,
            pruning_rate=spec.pruning_rate,
            padding_ratio=0.0,
            num_samples=1,
            locality=spec.locality,
            causal=spec.causal,
            seed=0,
        )
        digest = hashlib.sha256(np.packbits(wl.samples[0].keep_mask).tobytes())
        assert digest.hexdigest() == SERVICE_BUCKET_MASK_SHA256[(model, length)]


class TestBucketWorkloads:
    @settings(max_examples=25, deadline=None)
    @given(
        lengths=st.lists(st.integers(2, 300), min_size=1, max_size=6),
        causal=st.booleans(),
        locality=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_generate_workload_per_length(
        self, lengths, causal, locality, seed
    ):
        # Unsorted and duplicated lengths: one workload per distinct
        # length, ascending, each byte-equal to its own seeded draw.
        lengths = lengths + lengths[:1]
        got = list(
            bucket_workloads(
                lengths, 0.7, locality=locality, causal=causal, seed=seed
            )
        )
        assert [wl.seq_len for wl in got] == sorted(set(lengths))
        for wl in got:
            want = generate_workload(
                wl.seq_len,
                0.7,
                padding_ratio=0.0,
                num_samples=1,
                locality=locality,
                causal=causal,
                seed=seed,
            )
            (sample,), (expected,) = wl.samples, want.samples
            assert sample.keep_mask.shape == expected.keep_mask.shape
            assert sample.keep_mask.tobytes() == expected.keep_mask.tobytes()
            assert (sample.valid_len, sample.seq_len, sample.causal) == (
                expected.valid_len,
                expected.seq_len,
                expected.causal,
            )
            assert (wl.target_pruning_rate, wl.padding_ratio) == (0.7, 0.0)

    def test_no_lengths_draw_nothing(self):
        assert list(bucket_workloads([], 0.7)) == []
