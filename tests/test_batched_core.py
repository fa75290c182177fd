"""Parity tests for the batched simulation core (repro.core.batched).

The batched workload-level path must be *bit-identical* to the
per-sample path: same counts, same cycles, same per-category energy.
Golden reports captured from the per-sample simulator pin the absolute
numbers; the remaining tests check internal consistency (batching vs
singles, the packed SLD sweep and the LRU closed form vs the
reference LRU loop, packed row statistics vs the bool reductions they
replace, the per-workload memo vs fresh copies, array vs scalar energy
tallies).
"""

import copy
import dataclasses
import json
import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.batched import (
    BatchedKernel,
    BatchedWorkload,
    _sld_traffic_loop,
    _sld_traffic_packed,
)
from repro.core.configs import (
    L_SPRINT,
    M_SPRINT,
    PIPELINE_OVERHEAD_CYCLES,
    S_SPRINT,
)
from repro.core.multihead import MultiHeadSimulator
from repro.core.system import ExecutionMode, SprintSystem, _workload_buckets
from repro.energy.model import EnergyModel
from repro.models.zoo import get_model
from repro.workloads.generator import Workload, WorkloadSample, generate_workload

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "data", "golden_system_reports.json"
)


def _golden_workloads():
    """The exact (system, workload, mode) cases the goldens recorded."""
    spec = get_model("BERT-B")
    wl = generate_workload(
        seq_len=spec.seq_len, pruning_rate=spec.pruning_rate,
        padding_ratio=spec.padding_ratio, num_samples=2,
        locality=spec.locality, causal=spec.causal, seed=1,
    )
    for cfg in (S_SPRINT, M_SPRINT):
        system = SprintSystem(cfg)
        for mode in ExecutionMode:
            yield system, wl, mode
    wl_causal = generate_workload(
        seq_len=128, pruning_rate=0.7, padding_ratio=0.3,
        num_samples=3, causal=True, seed=7,
    )
    system = SprintSystem(L_SPRINT)
    for mode in ExecutionMode:
        yield system, wl_causal, mode
    wl_small = generate_workload(
        seq_len=96, pruning_rate=0.746, padding_ratio=0.2,
        num_samples=3, seed=11,
    )
    yield (
        SprintSystem(S_SPRINT, enable_sld=False), wl_small,
        ExecutionMode.SPRINT,
    )
    yield (
        SprintSystem(L_SPRINT, enable_interleaving=False), wl_small,
        ExecutionMode.SPRINT,
    )


class TestGoldenParity:
    def test_batched_reports_match_per_sample_goldens(self):
        """Exact (==, not approx) equality with the recorded per-sample
        simulator output: cycles, every count, every energy category."""
        with open(GOLDEN_PATH) as f:
            goldens = json.load(f)
        cases = list(_golden_workloads())
        assert len(cases) == len(goldens)
        for (system, workload, mode), golden in zip(cases, goldens):
            report = system.simulate_workload(workload, mode)
            assert report.mode == golden["mode"]
            assert report.samples == golden["samples"]
            assert report.cycles == golden["cycles"]
            assert report.counts == golden["counts"]
            assert report.energy.pj == golden["energy_pj"]


class TestBatchedVsSingles:
    @pytest.mark.parametrize("mode", list(ExecutionMode))
    def test_workload_equals_sample_loop(self, mode):
        """One batched pass == N single-sample passes, bit for bit."""
        wl = generate_workload(
            seq_len=80, pruning_rate=0.7, padding_ratio=0.4,
            num_samples=4, seed=13,
        )
        system = SprintSystem(S_SPRINT)
        batched = system.simulate_heads(list(wl), mode)
        singles = [system.simulate_sample(s, mode) for s in wl]
        for b, s in zip(batched, singles):
            assert b.cycles == s.cycles
            assert b.counts == s.counts
            assert b.energy.pj == s.energy.pj

    def test_mixed_seq_len_buckets_preserve_order(self):
        wl_a = generate_workload(48, 0.6, num_samples=2, seed=1)
        wl_b = generate_workload(64, 0.6, num_samples=2, seed=2)
        samples = [
            wl_a.samples[0], wl_b.samples[0],
            wl_a.samples[1], wl_b.samples[1],
        ]
        system = SprintSystem(S_SPRINT)
        batched = system.simulate_heads(samples, ExecutionMode.SPRINT)
        singles = [
            system.simulate_sample(s, ExecutionMode.SPRINT) for s in samples
        ]
        for b, s in zip(batched, singles):
            assert b.cycles == s.cycles and b.counts == s.counts

    def test_slow_exact_system_matches_default(self):
        wl = generate_workload(
            96, 0.746, padding_ratio=0.2, num_samples=3, seed=5
        )
        fast = SprintSystem(S_SPRINT).simulate_workload(
            wl, ExecutionMode.SPRINT
        )
        slow = SprintSystem(S_SPRINT, sld_slow_exact=True).simulate_workload(
            wl, ExecutionMode.SPRINT
        )
        assert fast.cycles == slow.cycles
        assert fast.counts == slow.counts
        assert fast.energy.pj == slow.energy.pj

    def test_simulate_modes_matches_individual_calls(self):
        wl = generate_workload(64, 0.7, num_samples=2, seed=9)
        system = SprintSystem(M_SPRINT)
        modes = (ExecutionMode.BASELINE, ExecutionMode.SPRINT)
        combined = system.simulate_modes(wl, modes, "m")
        for mode in modes:
            solo = system.simulate_workload(wl, mode, "m")
            assert combined[mode.value].cycles == solo.cycles
            assert combined[mode.value].counts == solo.counts

    def test_unknown_mode_raises(self):
        wl = generate_workload(16, 0.5, num_samples=1, seed=0)
        with pytest.raises(ValueError):
            SprintSystem(S_SPRINT).simulate_workload(wl, "sprint")


class TestBatchedWorkload:
    def test_rejects_mixed_seq_len(self):
        a = generate_workload(32, 0.5, num_samples=1, seed=0).samples[0]
        b = generate_workload(48, 0.5, num_samples=1, seed=0).samples[0]
        with pytest.raises(ValueError, match="seq_len"):
            BatchedWorkload.from_samples([a, b])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            BatchedWorkload.from_samples([])

    def test_stacks_fields(self):
        wl = generate_workload(
            32, 0.5, padding_ratio=0.3, num_samples=3, seed=4
        )
        batch = BatchedWorkload.from_samples(wl.samples)
        assert len(batch) == 3
        assert batch.keep.shape == (3, 32, 32)
        assert batch.valid_len.tolist() == [s.valid_len for s in wl]


@st.composite
def sld_keep_masks(draw):
    """Keep masks up to 160 x 160 at any density, causal or not.

    Long enough that LRU windows reach well past 64 queries; the mask
    comes from a drawn seed, since drawing 25k booleans one by one is
    slow to generate and to shrink.
    """
    queries = draw(st.integers(1, 160))
    keys = draw(st.integers(0, 160))
    density = draw(st.floats(0.0, 1.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    keep = rng.random((queries, keys)) < density
    if draw(st.booleans()):
        keep &= np.tri(queries, keys, dtype=bool)
    return keep


def _sld_traffic_closed_form(keep, capacity):
    """The LRU closed form, evaluated key by key before every query.

    The resident keys before query ``t`` are the top-``capacity`` keys
    used so far, ranked by ``(last use, key index)``.
    """
    num_queries, num_keys = keep.shape
    last_use = np.full(num_keys, -1, dtype=np.int64)
    fetches = np.zeros(num_queries, dtype=np.int64)
    reuses = np.zeros(num_queries, dtype=np.int64)
    for t in range(num_queries):
        used = np.flatnonzero(last_use >= 0)
        rank = last_use[used] * num_keys + used
        resident = np.zeros(num_keys, dtype=bool)
        resident[used[np.argsort(-rank)][:capacity]] = True
        fetches[t] = np.count_nonzero(keep[t] & ~resident)
        reuses[t] = np.count_nonzero(keep[t] & resident)
        last_use[keep[t]] = t
    return fetches, reuses


class TestSldSweepImplementations:
    """The packed sweep and the closed form equal the loop, which is the
    specification."""

    @pytest.mark.parametrize("seed", range(4))
    def test_three_way_agreement(self, seed):
        rng = np.random.default_rng(seed)
        for queries, keys, cap in (
            (40, 40, 9), (61, 33, 16), (33, 61, 100), (28, 28, 3),
        ):
            keep = rng.random((queries, keys)) < rng.uniform(0.1, 0.7)
            loop = _sld_traffic_loop(keep, cap)
            closed = _sld_traffic_closed_form(keep, cap)
            packed = _sld_traffic_packed(keep, cap)
            for other in (closed, packed):
                np.testing.assert_array_equal(loop[0], other[0])
                np.testing.assert_array_equal(loop[1], other[1])

    def test_packed_falls_back_when_capacity_exceeds_history(self):
        # 128 queries over 11 keys at huge capacity: nothing is ever
        # evicted, so traffic falls back to compulsory misses -- each
        # key is fetched on its first use and reused on every later one.
        rng = np.random.default_rng(0)
        keep = rng.random((128, 11)) < 0.3
        first_use = np.zeros_like(keep)
        used = keep.any(axis=0)
        first_use[keep.argmax(axis=0)[used], np.flatnonzero(used)] = True
        for impl in (_sld_traffic_loop, _sld_traffic_packed):
            fetches, reuses = impl(keep, 4096)
            assert fetches.tolist() == first_use.sum(axis=1).tolist()
            assert reuses.tolist() == (keep & ~first_use).sum(axis=1).tolist()

    @given(keep=sld_keep_masks(), capacity=st.integers(0, 200))
    @example(
        # 128 queries over 11 keys: the whole history always fits.
        keep=np.random.default_rng(0).random((128, 11)) < 0.3,
        capacity=4096,
    )
    @settings(max_examples=200, deadline=None)
    def test_packed_matches_loop(self, keep, capacity):
        loop = _sld_traffic_loop(keep, capacity)
        packed = _sld_traffic_packed(keep, capacity)
        np.testing.assert_array_equal(loop[0], packed[0])
        np.testing.assert_array_equal(loop[1], packed[1])

    def test_single_query_and_empty(self):
        one = np.ones((1, 9), dtype=bool)
        for impl in (_sld_traffic_loop, _sld_traffic_packed):
            fetches, reuses = impl(one, 4)
            assert fetches.tolist() == [9] and reuses.tolist() == [0]
        empty = np.zeros((5, 8), dtype=bool)
        for impl in (_sld_traffic_loop, _sld_traffic_packed):
            fetches, reuses = impl(empty, 4)
            assert fetches.sum() == 0 and reuses.sum() == 0


@st.composite
def padded_samples(draw):
    """1-3 samples of one drawn ``seq_len`` (mostly not a multiple of
    64): padded to drawn valid lengths, causal or not, any density."""
    seq_len = draw(st.integers(1, 200))
    causal = draw(st.booleans())
    density = draw(st.floats(0.0, 1.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    samples = []
    for _ in range(draw(st.integers(1, 3))):
        valid = draw(st.integers(1, seq_len))
        keep = np.zeros((seq_len, seq_len), dtype=bool)
        keep[:valid, :valid] = rng.random((valid, valid)) < density
        if causal:
            keep &= np.tri(seq_len, dtype=bool)
        samples.append(
            WorkloadSample(
                keep_mask=keep, valid_len=valid, seq_len=seq_len, causal=causal
            )
        )
    return samples


class TestPackedRowStatistics:
    """Every statistic read off the packed rows equals the bool
    reduction it replaced."""

    @given(
        samples=padded_samples(),
        num_corelets=st.integers(1, 8),
        resident=st.integers(0, 210),
        cache_kb=st.integers(0, 25),
    )
    @settings(max_examples=150, deadline=None)
    def test_statistics_equal_bool_reductions(
        self, samples, num_corelets, resident, cache_kb
    ):
        keep = np.stack([s.keep_mask for s in samples])
        batch = BatchedWorkload.from_samples(samples)
        np.testing.assert_array_equal(batch.keep, keep)
        np.testing.assert_array_equal(batch.row_counts(), keep.sum(axis=2))
        np.testing.assert_array_equal(
            batch.row_counts(slice(resident, None)),
            keep[:, :, resident:].sum(axis=2),
        )
        config = dataclasses.replace(
            S_SPRINT, num_corelets=num_corelets, onchip_cache_kb=cache_kb
        )
        classes = [keep[:, :, c::num_corelets].sum(axis=2) for c in range(num_corelets)]
        np.testing.assert_array_equal(
            BatchedKernel(config).per_corelet_worst(batch),
            np.stack(classes, axis=2).max(axis=2),
        )
        # The packed sweep runs each sample at the batch's word width;
        # the reference loop walks the sample's valid square.
        packed = BatchedKernel(config).sld_traffic(batch)
        loop = BatchedKernel(config, sld_slow_exact=True).sld_traffic(batch)
        np.testing.assert_array_equal(packed[0], loop[0])
        np.testing.assert_array_equal(packed[1], loop[1])


def _mixed_workload():
    """Two seq_len buckets: padded encoder samples and causal ones."""
    padded = generate_workload(96, 0.7, padding_ratio=0.3, num_samples=2, seed=3)
    causal = generate_workload(
        80, 0.6, padding_ratio=0.2, num_samples=2, causal=True, seed=4
    )
    return Workload(samples=[padded.samples[0], causal.samples[0],
                             padded.samples[1], causal.samples[1]])


def _fresh(workload):
    """An unsimulated copy: its own samples and no memo."""
    return Workload(samples=copy.deepcopy(workload.samples))


def _assert_same_report(a, b):
    assert a.cycles == b.cycles
    assert a.counts == b.counts
    assert a.energy.pj == b.energy.pj


class TestWorkloadMemo:
    """``simulate_workload`` memoizes a workload's packed batches and row
    statistics for every config and mode; the memo must never change a
    report."""

    def test_every_cell_equals_a_fresh_copy(self):
        workload = _mixed_workload()
        pristine = _fresh(workload)
        for config in (S_SPRINT, M_SPRINT, L_SPRINT):
            for enable_sld in (True, False):
                for enable_interleaving in (True, False):
                    for slow_exact in (False, True):
                        system = SprintSystem(
                            config,
                            enable_sld=enable_sld,
                            enable_interleaving=enable_interleaving,
                            sld_slow_exact=slow_exact,
                        )
                        for mode in ExecutionMode:
                            _assert_same_report(
                                system.simulate_workload(workload, mode),
                                system.simulate_workload(_fresh(pristine), mode),
                            )

    def test_changed_masks_are_not_served_stale(self):
        workload = _mixed_workload()
        spare = generate_workload(96, 0.5, padding_ratio=0.1, num_samples=1, seed=9)

        def clear_rows_in_place(wl):
            wl.samples[0].keep_mask[:40] = False

        def flip_in_place(wl):
            mask = wl.samples[1].keep_mask
            mask[:, :20] = ~mask[:, :20] & np.tri(80, dtype=bool)[:, :20]

        def reassign_mask(wl):
            wl.samples[2].keep_mask = np.eye(96, dtype=bool)

        def shorten(wl):
            wl.samples[2].valid_len = 50

        def replace_sample(wl):
            wl.samples[0] = spare.samples[0]

        def append_sample(wl):
            wl.samples.append(copy.deepcopy(spare.samples[0]))

        system = SprintSystem(M_SPRINT)
        for edit in (
            clear_rows_in_place, flip_in_place, reassign_mask, shorten,
            replace_sample, append_sample,
        ):
            before = system.simulate_workload(workload, ExecutionMode.SPRINT)
            for mode in ExecutionMode:
                system.simulate_workload(workload, mode)
            edit(workload)
            for mode in ExecutionMode:
                _assert_same_report(
                    system.simulate_workload(workload, mode),
                    system.simulate_workload(_fresh(workload), mode),
                )
            after = system.simulate_workload(workload, ExecutionMode.SPRINT)
            assert after.counts != before.counts, edit.__name__

    def test_memo_is_shared_and_read_only(self):
        workload = _mixed_workload()
        SprintSystem(S_SPRINT).simulate_workload(workload, ExecutionMode.SPRINT)
        buckets = _workload_buckets(workload, check_masks=True)
        SprintSystem(L_SPRINT).simulate_workload(
            workload, ExecutionMode.PRUNING_ONLY
        )
        SprintSystem(M_SPRINT).simulate_workload(workload, ExecutionMode.BASELINE)
        assert _workload_buckets(workload, check_masks=True) is buckets
        for _, batch in buckets:
            # The rows, then the counts: unpruned (S-SPRINT's single
            # CORELET class), L-SPRINT's four classes, and its value
            # fetches past the pinned keys.
            arrays = [batch.words] + list(batch._counts.values())
            assert len(arrays) == 7
            for array in arrays:
                assert not array.flags.writeable
                with pytest.raises(ValueError):
                    array[(0,) * array.ndim] = 1


class TestVectorizedEnergyTally:
    def test_array_tally_matches_scalar_loop(self):
        counts = np.array([3, 17, 0, 255], dtype=np.int64)
        batched = EnergyModel(vector_bytes=64)
        batched.count_reram_vector_reads(counts)
        batched.count_qk_dot_products(2 * counts)
        batched.count_inmemory_array_ops(counts)
        batched.count_comparator_ops(counts * counts)
        per_sample = batched.breakdown.split()
        assert len(per_sample) == len(counts)
        for i, n in enumerate(counts):
            scalar = EnergyModel(vector_bytes=64)
            scalar.count_reram_vector_reads(int(n))
            scalar.count_qk_dot_products(2 * int(n))
            scalar.count_inmemory_array_ops(int(n))
            scalar.count_comparator_ops(int(n) * int(n))
            assert per_sample[i].pj == scalar.breakdown.pj

    def test_split_requires_array(self):
        model = EnergyModel()
        model.count_softmax_elements(5)
        with pytest.raises(ValueError):
            model.breakdown.split()

    def test_split_rejects_ragged(self):
        model = EnergyModel()
        model.count_softmax_elements(np.array([1.0, 2.0]))
        model.count_qk_dot_products(np.array([1.0, 2.0, 3.0]))
        with pytest.raises(ValueError):
            model.breakdown.split()


class TestSharedConstants:
    def test_pipeline_overhead_single_source(self):
        from repro.core import system

        assert S_SPRINT.pipeline_overhead_cycles == PIPELINE_OVERHEAD_CYCLES
        assert system.PIPELINE_OVERHEAD_CYCLES == PIPELINE_OVERHEAD_CYCLES

    def test_vector_fetch_cycles_array_matches_scalar(self):
        vectors = np.array([0, 1, 15, 16, 17, 400], dtype=np.int64)
        expected = [S_SPRINT.vector_fetch_cycles(int(v)) for v in vectors]
        got = S_SPRINT.vector_fetch_cycles_array(vectors)
        assert got.tolist() == expected


class TestModelReportVectorBytes:
    def test_data_movement_uses_config_vector_bytes(self):
        sim = MultiHeadSimulator(S_SPRINT)
        report = sim.simulate(
            get_model("ViT-B"), ExecutionMode.SPRINT, num_samples=1, seed=2
        )
        assert report.vector_bytes == S_SPRINT.vector_bytes
        assert report.total_data_movement_bytes() == (
            report.total_data_movement_bytes(S_SPRINT.vector_bytes)
        )
        # An explicit override still wins (and scales linearly).
        assert report.total_data_movement_bytes(128) == pytest.approx(
            2.0 * report.total_data_movement_bytes(64)
        )
