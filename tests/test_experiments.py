"""Tests for the experiment modules: structure and paper-shape claims.

Each experiment runs with reduced sample counts and is checked against
the qualitative claims of the corresponding paper figure (who wins, in
which direction, roughly by how much) -- not against absolute numbers.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.core.configs import M_SPRINT, S_SPRINT
from repro.experiments import (
    decode,
    ffn_end_to_end,
    fig1_memory_energy,
    fig3_overlap,
    fig5_bit_sensitivity,
    fig8_imbalance,
    fig9_accuracy,
    fig10_data_movement,
    fig11_speedup,
    fig12_energy,
    fig13_breakdown,
    sweep,
    table3_comparison,
)
from repro.experiments.runner import EXPERIMENTS, run_experiment, run_structured

FAST_MODELS = ("BERT-B", "ViT-B", "GPT-2-L")
FAST_CONFIGS = (S_SPRINT, M_SPRINT)


class TestFig1:
    @pytest.fixture(scope="class")
    def rows(self):
        return fig1_memory_energy.run(
            seq_lengths=(64, 256), fractions=(0.2, 0.6, 1.0)
        )

    def test_memory_dominates_at_20pct(self, rows):
        # Paper Figure 1: >60% at 20% capacity for the longer sequences
        # (the S=32 point sits near 51% in the paper's own data).
        at20 = [r for r in rows if r.capacity_fraction == 0.2]
        assert all(r.memory_energy_fraction > 0.5 for r in at20)
        longest = max(at20, key=lambda r: r.seq_len)
        assert longest.memory_energy_fraction > 0.6

    def test_monotone_decrease_with_capacity(self, rows):
        for s in (64, 256):
            series = [
                r.memory_energy_fraction
                for r in rows
                if r.seq_len == s
            ]
            assert series == sorted(series, reverse=True)

    def test_small_at_full_capacity(self, rows):
        full = [r for r in rows if r.capacity_fraction == 1.0]
        assert all(r.memory_energy_fraction < 0.35 for r in full)

    def test_format_table(self, rows):
        text = fig1_memory_energy.format_table(rows)
        assert "Figure 1" in text and "S=64" in text


class TestFig3:
    @pytest.fixture(scope="class")
    def rows(self):
        return fig3_overlap.run(models=("BERT-B", "ViT-B"), num_samples=1)

    def test_real_exceeds_random(self, rows):
        for r in rows:
            assert r.real_overlap > r.random_overlap

    def test_bert_ratio_2_to_3x(self, rows):
        bert = next(r for r in rows if r.model == "BERT-B")
        assert 2.0 <= bert.ratio_vs_random <= 3.5

    def test_random_matches_eq1_theory(self, rows):
        for r in rows:
            assert r.random_overlap == pytest.approx(
                r.theoretical_overlap, abs=0.05
            )

    def test_vit_less_locality(self, rows):
        bert = next(r for r in rows if r.model == "BERT-B")
        vit = next(r for r in rows if r.model == "ViT-B")
        assert vit.ratio_vs_random < bert.ratio_vs_random

    def test_format_table(self, rows):
        assert "Figure 3" in fig3_overlap.format_table(rows)


class TestFig8:
    @pytest.fixture(scope="class")
    def rows(self):
        return fig8_imbalance.run(
            models=("BERT-B", "GPT-2-L"), corelet_counts=(2, 8),
            num_samples=1,
        )

    def test_interleaving_beats_sequential(self, rows):
        for r in rows:
            assert r.interleaved_imbalance <= r.sequential_imbalance

    def test_imbalance_at_least_one(self, rows):
        for r in rows:
            assert r.interleaved_imbalance >= 1.0

    def test_more_corelets_harder_to_balance(self, rows):
        for model in ("BERT-B", "GPT-2-L"):
            sel = sorted(
                (r for r in rows if r.model == model),
                key=lambda r: r.num_corelets,
            )
            assert (
                sel[0].interleaved_imbalance <= sel[1].interleaved_imbalance
            )


class TestFig10:
    @pytest.fixture(scope="class")
    def rows(self):
        return fig10_data_movement.run(
            models=FAST_MODELS, configs=FAST_CONFIGS, num_samples=1
        )

    def test_sprint_beats_mask_only(self, rows):
        for r in rows:
            assert r.sprint_reduction >= r.mask_only_reduction - 1e-9

    def test_sprint_reduction_above_90pct(self, rows):
        bert = [r for r in rows if r.model == "BERT-B"]
        assert all(r.sprint_reduction > 0.9 for r in bert)

    def test_averages_structure(self, rows):
        avg = fig10_data_movement.average_reductions(rows)
        assert set(avg) == {"S-SPRINT", "M-SPRINT"}


class TestFig11:
    @pytest.fixture(scope="class")
    def rows(self):
        return fig11_speedup.run(
            models=FAST_MODELS, configs=FAST_CONFIGS, num_samples=1
        )

    def test_all_speedups_above_one(self, rows):
        for r in rows:
            assert r.speedup > 1.0
            assert r.pruning_only_speedup > 1.0

    def test_sprint_beats_pruning_only(self, rows):
        for r in rows:
            assert r.speedup > r.pruning_only_speedup

    def test_vit_minimum(self, rows):
        by_model = {}
        for r in rows:
            by_model.setdefault(r.model, []).append(r.speedup)
        means = {m: np.mean(v) for m, v in by_model.items()}
        assert means["ViT-B"] == min(means.values())

    def test_geomean_in_paper_regime(self, rows):
        g = fig11_speedup.geomeans(rows)
        for config in g:
            assert 2.0 < g[config]["sprint"] < 20.0


class TestFig12:
    @pytest.fixture(scope="class")
    def rows(self):
        return fig12_energy.run(
            models=FAST_MODELS, configs=FAST_CONFIGS, num_samples=1
        )

    def test_all_reductions_above_one(self, rows):
        for r in rows:
            assert r.energy_reduction > 1.0

    def test_vit_minimum(self, rows):
        by_model = {}
        for r in rows:
            by_model.setdefault(r.model, []).append(r.energy_reduction)
        means = {m: np.mean(v) for m, v in by_model.items()}
        assert means["ViT-B"] == min(means.values())

    def test_s_beats_l_for_bert(self):
        from repro.core.configs import L_SPRINT

        rows = fig12_energy.run(
            models=("BERT-B",), configs=(S_SPRINT, L_SPRINT), num_samples=1
        )
        s = next(r for r in rows if r.config == "S-SPRINT")
        l = next(r for r in rows if r.config == "L-SPRINT")
        # Paper: the benefit increases as on-chip resources get scarcer.
        assert s.energy_reduction > l.energy_reduction

    def test_synth_inverts_ordering(self):
        from repro.core.configs import L_SPRINT

        rows = fig12_energy.run(
            models=("Synth-1",), configs=(S_SPRINT, L_SPRINT), num_samples=1
        )
        s = next(r for r in rows if r.config == "S-SPRINT")
        l = next(r for r in rows if r.config == "L-SPRINT")
        # Paper: for Synth models L-SPRINT gains *more* than S-SPRINT.
        assert l.energy_reduction > s.energy_reduction


class TestFig13:
    @pytest.fixture(scope="class")
    def rows(self):
        return fig13_breakdown.run(models=FAST_MODELS, num_samples=1)

    def test_baseline_fractions_sum_to_one(self, rows):
        for r in rows:
            if r.scenario == "baseline":
                assert r.total_fraction == pytest.approx(1.0)

    def test_pruning_only_around_2x(self, rows):
        savings = fig13_breakdown.savings_by_model(rows)
        assert 1.5 < savings["BERT-B"]["pruning_only"] < 2.5
        # ViT saves least (low pruning rate, no padding, less locality).
        assert savings["ViT-B"]["pruning_only"] < savings["BERT-B"]["pruning_only"]

    def test_sprint_writes_dominate(self, rows):
        sprint_bert = next(
            r for r in rows
            if r.model == "BERT-B" and r.scenario == "sprint"
        )
        fr = sprint_bert.fractions
        assert fr["reram_write"] == max(fr.values())

    def test_inmemory_overhead_small(self, rows):
        for r in rows:
            if r.scenario == "sprint":
                assert r.fractions["inmemory_pruning"] < 0.05 * r.total_fraction + 1e-9

    def test_baseline_read_share_high_for_bert(self, rows):
        bert = next(
            r for r in rows
            if r.model == "BERT-B" and r.scenario == "baseline"
        )
        assert bert.fractions["reram_read"] > 0.4


class TestTable3:
    @pytest.fixture(scope="class")
    def rows(self):
        return table3_comparison.run(models=FAST_MODELS, num_samples=1)

    def test_contains_all_designs(self, rows):
        names = {r.name.split(" ")[0] for r in rows}
        assert {"A3", "SpAtten", "LeOPArd", "M-SPRINT"} <= names

    def test_msprint_best_throughput(self, rows):
        msprint = next(r for r in rows if r.simulated)
        others = [r.gops_per_s for r in rows if not r.simulated]
        assert msprint.gops_per_s > max(others)

    def test_msprint_best_area_efficiency(self, rows):
        msprint = next(r for r in rows if r.simulated)
        others = [r.gops_per_s_mm2 for r in rows if not r.simulated]
        assert msprint.gops_per_s_mm2 > max(others)

    def test_a3_beats_on_gops_per_j(self, rows):
        # A3 omits memory cost and uses 40 nm: it wins raw GOPs/J.
        msprint = next(r for r in rows if r.simulated)
        a3 = next(r for r in rows if r.name == "A3")
        assert a3.gops_per_j > msprint.gops_per_j

    def test_dennard_scaling_closes_gap(self, rows):
        scaled = table3_comparison.dennard_scaled_gops_per_j(rows, to_nm=40)
        msprint = next(iter(scaled.values()))
        raw = next(r for r in rows if r.simulated).gops_per_j
        assert msprint > raw


class TestFfn:
    @pytest.fixture(scope="class")
    def rows(self):
        return ffn_end_to_end.run(
            models=("BERT-B", "ViT-B"), num_samples=1
        )

    def test_end_to_end_smaller_than_attention_only(self, rows):
        for r in rows:
            assert r.end_to_end_speedup < r.attention_speedup

    def test_vit_near_unity(self, rows):
        vit = next(r for r in rows if r.model == "ViT-B")
        assert vit.end_to_end_speedup < 1.5
        assert vit.ffn_speedup == pytest.approx(1.0)

    def test_bert_meaningful_benefit(self, rows):
        bert = next(r for r in rows if r.model == "BERT-B")
        assert bert.end_to_end_speedup > 1.5
        assert bert.end_to_end_energy_saving > 1.5


class TestRunner:
    def test_registry_complete(self):
        assert set(EXPERIMENTS) == {
            "fig1", "fig2", "fig3", "fig5", "fig8", "fig9", "fig10",
            "fig11", "fig12", "fig13", "ffn", "table3", "ablations",
            "sensitivity", "serving", "decode", "resilience",
        }

    def test_run_experiment_fast(self):
        out = run_experiment("fig1", fast=True)
        assert "Figure 1" in out

    def test_unknown_experiment(self):
        with pytest.raises(KeyError):
            run_experiment("fig99")


def _forbid(monkeypatch, module, *names):
    """Make each named entry of ``module`` fail: it must not be reached."""

    def reached(*args, **kwargs):
        raise AssertionError("simulation ran before argument validation")

    for name in names:
        monkeypatch.setattr(module, name, reached)


class TestEntryPointValidation:
    """Degenerate sizes fail at the entry point, before any simulation."""

    def test_fig3_rejects_zero_samples(self, monkeypatch):
        _forbid(monkeypatch, fig3_overlap, "generate_workload")
        with pytest.raises(ValueError, match="num_samples"):
            fig3_overlap.run(num_samples=0)

    def test_fig8_rejects_zero_samples(self, monkeypatch):
        _forbid(monkeypatch, fig8_imbalance, "generate_workload")
        with pytest.raises(ValueError, match="num_samples"):
            fig8_imbalance.run(num_samples=0)

    def test_fig5_rejects_zero_samples(self, monkeypatch):
        _forbid(monkeypatch, fig5_bit_sensitivity, "make_classification_task")
        with pytest.raises(ValueError, match="num_samples"):
            fig5_bit_sensitivity.run(num_samples=0)

    def test_fig9_rejects_zero_samples(self, monkeypatch):
        _forbid(monkeypatch, fig9_accuracy, "_evaluate_model")
        for entry in (fig9_accuracy.run, fig9_accuracy.plan):
            with pytest.raises(ValueError, match="num_samples"):
                entry(num_samples=0)

    @pytest.mark.parametrize(
        "module",
        [
            fig10_data_movement,
            fig11_speedup,
            fig12_energy,
            fig13_breakdown,
            ffn_end_to_end,
            table3_comparison,
        ],
        ids=lambda module: module.__name__.rpartition(".")[2],
    )
    def test_grid_figures_reject_zero_samples(self, module, monkeypatch):
        # The grid checks once, in ``sweep``, for every figure on it.
        _forbid(monkeypatch, sweep, "simulate")
        for entry in (module.run, module.plan):
            with pytest.raises(ValueError, match="num_samples") as info:
                entry(num_samples=0)
            assert info.traceback[-1].path.name == "sweep.py"

    def test_decode_rejects_sub_token_output_lens(self):
        for lens in ((0.0,), (2.0, 0.5)):
            for entry in (decode.run, decode.plan):
                with pytest.raises(ValueError, match="mean_output_lens"):
                    entry(mean_output_lens=lens)

    def test_fig1_rejects_empty_sequence(self, monkeypatch):
        _forbid(monkeypatch, fig1_memory_energy, "SprintSystem")
        with pytest.raises(ValueError, match="seq_lengths"):
            fig1_memory_energy.run(seq_lengths=(32, 0))


#: sha256 of each serving study's ``--fast`` artifact: its JSON rows and
#: its table.  A changed digest is a changed result: re-pin it only for a
#: deliberate model or engine change.
SERVING_STUDY_DIGESTS = {
    "serving": (
        "1710b5e9a847c0e987e37a8cb4c472fb84d7d3b2d49850e3d7cd2f586e0dda30",
        "e39ff478e1338b6e18826917fe0a6b0079a122a69c16dd366d3a2d3f7ae77246",
    ),
    "decode": (
        "159b62ab20f6ec1d274ae6191fadb1c5c088a1ab5af696e12445c31056c0d268",
        "3cd6d6f90bbff66b6cff573cf0aa9b2e53f1656ce3b298bd7a525e531a67a1cd",
    ),
    "resilience": (
        "023245f3918d17f10d0f49a13a9210739c0372153f554e664893b7db71a9d8fe",
        "7a61e5a40770fe69086fcd3d9d062d73153c76545d6b87e9bedfa05d41a2d130",
    ),
}


class TestServingStudiesPinned:
    @pytest.mark.parametrize("name", sorted(SERVING_STUDY_DIGESTS))
    def test_fast_artifact_digests(self, name):
        artifact = run_structured(name, fast=True)
        rows = hashlib.sha256(json.dumps(artifact.rows).encode()).hexdigest()
        table = hashlib.sha256(artifact.table.encode()).hexdigest()
        assert (rows, table) == SERVING_STUDY_DIGESTS[name]


#: sha256 of each paper-grid artifact at default arguments (the
#: ``sprint-experiments`` grid: all eight models, two samples, seed 1):
#: its JSON rows and its table.  These rows are computed from the
#: calibrated keep masks, so they pin mask generation end to end.
PAPER_GRID_ARTIFACT_DIGESTS = {
    "fig10": (
        "97a0a4e8e5de5ed3dbff22d21ad07e4bf6c62e392a809a207d076cf3ea9bed32",
        "5780245f08bd73eda729d33aaeeae551c6c0660b66a3853e00dea640c00ee031",
    ),
    "fig11": (
        "91929077600f1675e357db79370e4bcced0a8359a22582548aa642c14b738d0c",
        "4bbaee566d3e108221268e2cb391726517e640f2a0fe74fd9100d08e812a7491",
    ),
    "fig12": (
        "e7a87258e5c587a672bd2776930f83c4548d8339ba8231df5e4c155adf3be580",
        "fbacb0bd946441b23959de38139231c895a695b445ea30ae0b11eb656ce1bc6f",
    ),
    "fig13": (
        "1965f94aaf142ac1804040b7e16ab97969c690971e8a1228ad57092d721624e6",
        "537d13a79d33edc34c9f3746f278a10765c212a17776ed62c4b5439488351ff4",
    ),
    "ffn": (
        "7f5d7816c1a223c6527b7b17e069d693e52dd3392f13fea130e55f56bdc235be",
        "222b8aed79986ee3d5740b454e3eb537fb6f2e652a046a38ec38487aaae3b908",
    ),
    "table3": (
        "0d53cd9dc81aac87efac13698bba79dd8cdf1689c7278b2ce313546244bf8cb0",
        "d9d060d0b3b1cdbebf191191e75f2e28aac387e226ab0661bc51d62fbdf36cd4",
    ),
}


class TestPaperGridArtifactsPinned:
    @pytest.mark.parametrize("name", sorted(PAPER_GRID_ARTIFACT_DIGESTS))
    def test_default_artifact_digests(self, name):
        artifact = run_structured(name)
        rows = hashlib.sha256(json.dumps(artifact.rows).encode()).hexdigest()
        table = hashlib.sha256(artifact.table.encode()).hexdigest()
        assert (rows, table) == PAPER_GRID_ARTIFACT_DIGESTS[name]
