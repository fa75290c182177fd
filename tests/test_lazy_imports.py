"""Import surface and export contract of the lazily bound packages.

Every ``repro`` package resolves its exported names on first access
(:mod:`repro._lazy`) and the experiment registry binds its modules
lazily, so a process executes only the modules it uses.  The surface
tests import one entry point in a fresh interpreter and list the
``repro`` modules that *executed*: a registry module that nothing has
touched yet (an :class:`importlib.util.LazyLoader` stub, whose type is
still the lazy subclass) does not count.

The export contract pins each package's ``__all__`` and the submodule
every name comes from, as the eager ``__init__``s imported them.
"""

import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments import registry
from repro.runtime import supports_units

#: Each package's ``__all__``, in order, as space-separated names.
PINNED_ALL = {
    "repro": (
        "SprintConfig S_SPRINT M_SPRINT L_SPRINT SprintSystem ExecutionMode ModelSpec "
        "MODEL_ZOO get_model"
    ),
    "repro.accelerator": (
        "SprintEngine EngineStats FixedPointFormat saturating_mac lut_exponential "
        "SRAMBuffer IndexBuffer BufferStats QKProcessingUnit VProcessingUnit "
        "SoftmaxUnit Corelet CoreletStats SoftmaxPartial BaselineTraffic "
        "baseline_head_traffic baseline_compute_cycles assign_tokens imbalance_ratio "
        "workload_imbalance"
    ),
    "repro.attention": (
        "MultiHeadRuntime MultiHeadResult HeadStats ScorePolicy ExactPolicy "
        "RuntimePruningPolicy SprintPolicy msb_truncated_scores softmax "
        "scaled_dot_product_attention attention_probabilities multi_head_attention "
        "padding_mask apply_padding_mask two_dimensional_reduction PruningResult "
        "calibrate_threshold prune_scores runtime_prune threshold_keep_mask "
        "QuantizedTensor symmetric_quantize dequantize split_msb_lsb combine_msb_lsb "
        "quantize_scores expected_random_overlap measure_adjacent_overlap "
        "overlap_ratio_vs_random"
    ),
    "repro.core": (
        "BatchedKernel BatchedWorkload simulate_sld_traffic DesignPoint sweep "
        "pareto_frontier best_under_area MultiHeadSimulator ModelReport SprintConfig "
        "S_SPRINT M_SPRINT L_SPRINT SPRINT_CONFIGS BASELINE_SUFFIX SprintSystem "
        "ExecutionMode SimulationReport HeadReport"
    ),
    "repro.energy": (
        "EnergyConstants TABLE_II EnergyModel EnergyBreakdown PriorWork PRIOR_WORK "
        "AcceleratorMetrics dennard_scale_energy"
    ),
    "repro.experiments": (
        "ablations decode fig1_memory_energy fig2_heatmap fig3_overlap "
        "fig5_bit_sensitivity fig8_imbalance fig9_accuracy fig10_data_movement "
        "fig11_speedup fig12_energy fig13_breakdown ffn_end_to_end resilience "
        "sensitivity serving table3_comparison"
    ),
    "repro.memory": (
        "ControllerFrontend FrontendStats CommandKind MemoryCommand MemoryRequest "
        "TimingParameters Bank Channel MemoryDevice KVLayout PhysicalAddress "
        "SpatialLocalityDetector SLDOutput MemoryRequestGenerator KeyIndexGenerator "
        "CommandScheduler SprintMemoryController ControllerStats"
    ),
    "repro.models": (
        "LinearLayer QKVProjection FeedForward ModelSpec MODEL_ZOO get_model "
        "list_models TransformerConfig TransformerClassifier SyntheticTask "
        "make_classification_task make_lm_task evaluate_accuracy evaluate_perplexity"
    ),
    "repro.obs": (
        "MANIFEST_SCHEMA Counter Gauge RunTelemetry StreamingHistogram TraceConfig "
        "TraceRecorder get_telemetry set_telemetry"
    ),
    "repro.reram": (
        "EnduranceTracker BankAllocator BankType MatrixKind Region MLCCellModel "
        "OutputNoiseModel DAC ADC AnalogComparator CrossbarArray CrossbarStats "
        "TransposableArray InMemoryThresholdingUnit ThresholdingStats"
    ),
    "repro.runtime": (
        "ARTIFACT_SCHEMA Artifact ExperimentOutcome ExperimentPool ResultCache "
        "WorkUnit build_artifact cache_key code_version supports_units to_jsonable "
        "unit_cache_key"
    ),
    "repro.serving": (
        "ArrivalCursor ArrivalProcess Batch BatcherStats BurstyProcess "
        "ColumnarServingResult CompletedChunk ContinuousBatcher DEFAULT_CHUNK_SIZE "
        "DecodeColumnarResult DecodeCompletedChunk DecodeRecord DecodeStreamedResult "
        "DeviceFaultTrace DroppedRecord DynamicBatcher Event EventKind EventQueue "
        "FaultColumnarResult FaultCompletedChunk FaultSchedule FaultStreamedResult "
        "GenerativeResult GenerativeServingSimulator LatencyStats PoissonProcess "
        "Request RequestRecord RequestStream RequestTable RetryPolicy SampleCost "
        "ServiceCostModel ServingReport ServingResult ServingSimulator SprintDevice "
        "StepBatch StepItem StreamedServingResult TraceProcess generate_request_table "
        "generate_requests sample_output_lens sample_valid_len shared_cost_model "
        "simulate_decode_stream simulate_decode_table simulate_faulty_stream "
        "simulate_faulty_table simulate_stream simulate_table summarize "
        "summarize_stream"
    ),
    "repro.workloads": (
        "WorkloadSample bucket_workloads generate_workload generate_random_masks "
        "structured_keep_mask calibrated_score_matrix heavy_tailed_scores"
    ),
}

#: Package -> submodule -> the names it supplies; the names of
#: ``repro.experiments`` are its own submodules.
SOURCES = {
    "repro": {
        "core.configs": "SprintConfig L_SPRINT M_SPRINT S_SPRINT",
        "core.system": "ExecutionMode SprintSystem",
        "models.zoo": "MODEL_ZOO ModelSpec get_model",
    },
    "repro.accelerator": {
        "arithmetic": "FixedPointFormat lut_exponential saturating_mac",
        "buffers": "BufferStats IndexBuffer SRAMBuffer",
        "corelet": "Corelet CoreletStats SoftmaxPartial",
        "engine": "EngineStats SprintEngine",
        "baseline": "BaselineTraffic baseline_compute_cycles baseline_head_traffic",
        "interleave": "assign_tokens imbalance_ratio workload_imbalance",
        "qkpu": "QKProcessingUnit",
        "softmax_unit": "SoftmaxUnit",
        "vpu": "VProcessingUnit",
    },
    "repro.attention": {
        "heads": "HeadStats MultiHeadResult MultiHeadRuntime",
        "policies": (
            "ExactPolicy RuntimePruningPolicy ScorePolicy SprintPolicy "
            "msb_truncated_scores"
        ),
        "functional": (
            "attention_probabilities multi_head_attention "
            "scaled_dot_product_attention softmax"
        ),
        "locality": (
            "expected_random_overlap measure_adjacent_overlap overlap_ratio_vs_random"
        ),
        "masking": "apply_padding_mask padding_mask two_dimensional_reduction",
        "pruning": (
            "PruningResult calibrate_threshold prune_scores runtime_prune "
            "threshold_keep_mask"
        ),
        "quantization": (
            "QuantizedTensor combine_msb_lsb dequantize quantize_scores split_msb_lsb "
            "symmetric_quantize"
        ),
    },
    "repro.core": {
        "configs": (
            "BASELINE_SUFFIX L_SPRINT M_SPRINT S_SPRINT SPRINT_CONFIGS SprintConfig"
        ),
        "design_space": "DesignPoint best_under_area pareto_frontier sweep",
        "batched": "BatchedKernel BatchedWorkload simulate_sld_traffic",
        "multihead": "ModelReport MultiHeadSimulator",
        "results": "HeadReport SimulationReport",
        "system": "ExecutionMode SprintSystem",
    },
    "repro.energy": {
        "constants": "EnergyConstants TABLE_II",
        "model": "EnergyBreakdown EnergyModel",
        "area": "PriorWork PRIOR_WORK AcceleratorMetrics dennard_scale_energy",
    },
    "repro.experiments": {},
    "repro.memory": {
        "commands": "CommandKind MemoryCommand MemoryRequest",
        "controller": "ControllerStats SprintMemoryController",
        "dram": "Bank Channel MemoryDevice",
        "layout": "KVLayout PhysicalAddress",
        "mrg": "KeyIndexGenerator MemoryRequestGenerator",
        "scheduler": "CommandScheduler",
        "sld": "SpatialLocalityDetector SLDOutput",
        "timing": "TimingParameters",
        "frontend": "ControllerFrontend FrontendStats",
    },
    "repro.models": {
        "zoo": "MODEL_ZOO ModelSpec get_model list_models",
        "projection": "FeedForward LinearLayer QKVProjection",
        "transformer": "TransformerClassifier TransformerConfig",
        "tasks": (
            "SyntheticTask evaluate_accuracy evaluate_perplexity "
            "make_classification_task make_lm_task"
        ),
    },
    "repro.obs": {
        "streaming": "Counter Gauge StreamingHistogram",
        "telemetry": "MANIFEST_SCHEMA RunTelemetry get_telemetry set_telemetry",
        "trace": "TraceConfig TraceRecorder",
    },
    "repro.reram": {
        "adc": "ADC DAC AnalogComparator",
        "cell": "MLCCellModel",
        "crossbar": "CrossbarArray CrossbarStats",
        "noise": "OutputNoiseModel",
        "thresholding": "InMemoryThresholdingUnit ThresholdingStats",
        "transposable": "TransposableArray",
        "endurance": "EnduranceTracker",
        "mapping": "BankAllocator BankType MatrixKind Region",
    },
    "repro.runtime": {
        "artifacts": "ARTIFACT_SCHEMA Artifact build_artifact to_jsonable",
        "cache": "ResultCache cache_key code_version unit_cache_key",
        "pool": "ExperimentOutcome ExperimentPool",
        "units": "WorkUnit supports_units",
    },
    "repro.serving": {
        "arrivals": (
            "ArrivalCursor ArrivalProcess BurstyProcess PoissonProcess TraceProcess "
            "generate_request_table generate_requests sample_output_lens "
            "sample_valid_len"
        ),
        "batching": "BatcherStats ContinuousBatcher DynamicBatcher StepBatch StepItem",
        "decode": "simulate_decode_stream simulate_decode_table",
        "devices": "SampleCost ServiceCostModel SprintDevice shared_cost_model",
        "engine": (
            "ColumnarServingResult CompletedChunk DecodeColumnarResult "
            "DecodeCompletedChunk DecodeStreamedResult FaultColumnarResult "
            "FaultCompletedChunk FaultStreamedResult StreamedServingResult "
            "simulate_stream simulate_table"
        ),
        "events": "Event EventKind EventQueue",
        "faults": (
            "DeviceFaultTrace DroppedRecord FaultSchedule RetryPolicy "
            "simulate_faulty_stream simulate_faulty_table"
        ),
        "metrics": "LatencyStats ServingReport summarize summarize_stream",
        "requests": "Batch Request RequestRecord RequestTable",
        "scheduler": (
            "DecodeRecord GenerativeResult GenerativeServingSimulator ServingResult "
            "ServingSimulator"
        ),
        "stream": "DEFAULT_CHUNK_SIZE RequestStream",
    },
    "repro.workloads": {
        "generator": (
            "WorkloadSample bucket_workloads generate_random_masks generate_workload "
            "structured_keep_mask"
        ),
        "distributions": "calibrated_score_matrix heavy_tailed_scores",
    },
}

EXPERIMENT_MODULES = {
    f"repro.experiments.{name}" for name in PINNED_ALL["repro.experiments"].split()
}
SRC = Path(__file__).resolve().parent.parent / "src"

_PROBE = """
import json, sys, types
{statement}
print(json.dumps(sorted(
    name for name, module in sys.modules.items()
    if name.partition(".")[0] == "repro" and type(module) is types.ModuleType
)))
"""


def probe(statement: str):
    """What ``statement`` prints in a fresh interpreter (a list of lines),
    and the ``repro`` modules it executes."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    out = subprocess.run(
        [sys.executable, "-c", _PROBE.format(statement=statement)],
        check=True,
        env=env,
        capture_output=True,
        text=True,
    )
    lines = out.stdout.splitlines()
    return lines[:-1], set(json.loads(lines[-1]))


def executed(statement: str) -> set:
    """The ``repro`` modules a fresh interpreter executes for ``statement``."""
    return probe(statement)[1]


def under(modules: set, *prefixes: str) -> set:
    """The members of ``modules`` that are, or sit under, a prefix."""
    return {
        name
        for name in modules
        for prefix in prefixes
        if name == prefix or name.startswith(prefix + ".")
    }


class TestImportSurface:
    def test_import_repro_executes_only_the_root(self):
        # ``repro._lazy`` is the export helper every ``__init__`` calls.
        assert executed("import repro") == {"repro", "repro._lazy"}

    def test_import_subpackage_adds_only_its_init(self):
        assert executed("import repro.serving") == {
            "repro",
            "repro._lazy",
            "repro.serving",
        }

    def test_submodule_attribute_imports_on_first_access(self):
        mods = executed("import repro.serving; repro.serving.engine")
        assert "repro.serving.engine" in mods

    def test_serving_entry_points_skip_unused_layers(self):
        mods = executed("from repro.serving import simulate_table, summarize")
        assert {"repro.serving.engine", "repro.serving.metrics"} <= mods
        assert not under(
            mods,
            "repro.accelerator",
            "repro.reram",
            "repro.models.transformer",
            "repro.models.tasks",
            "repro.models.projection",
            "repro.runtime.pool",
            "repro.serving.decode",
            "repro.serving.stream",
            "repro.experiments",
        )
        assert under(mods, "repro.memory") - {"repro.memory"} <= {
            "repro.memory.timing",
            "repro.memory.commands",
        }

    def test_runner_executes_no_experiment(self):
        mods = executed("import repro.experiments.runner")
        assert "repro.experiments.registry" in mods
        assert not mods & EXPERIMENT_MODULES

    def test_listing_executes_no_experiment(self):
        printed, mods = probe(
            "from repro.experiments import registry\n"
            "names = list(registry.EXPERIMENTS)\n"
            "print(json.dumps([registry.describe(name) for name in names]))\n"
            "print(json.dumps([registry.shardable(name) for name in names]))\n"
            "from repro.experiments.runner import main\n"
            "main(['--list'])"
        )
        assert not mods & EXPERIMENT_MODULES
        described, shardable = map(json.loads, printed[:2])
        # Read off the source, the same strings and markers as the
        # executed modules give.
        modules = [module for _, module in registry.EXPERIMENTS.values()]
        assert described == [
            module.__doc__.strip().splitlines()[0].strip() for module in modules
        ]
        assert shardable == [supports_units(module) for module in modules]
        assert any(shardable) and not all(shardable)
        # Once the modules have executed, listing reads the same source.
        names = list(registry.EXPERIMENTS)
        assert [registry.describe(name) for name in names] == described
        assert [registry.shardable(name) for name in names] == shardable

    def test_prefill_runs_skip_the_decode_engine(self):
        printed, mods = probe(
            "from repro import ExecutionMode, S_SPRINT\n"
            "from repro.serving import (FaultSchedule, PoissonProcess,\n"
            "    ServiceCostModel, generate_request_table, simulate_stream,\n"
            "    simulate_table, summarize)\n"
            "table = generate_request_table(\n"
            "    PoissonProcess(rate_rps=200.0), {'BERT-B': 1.0}, count=40, seed=0)\n"
            "cost = ServiceCostModel(S_SPRINT, ExecutionMode.SPRINT)\n"
            "result = simulate_table(table, cost, num_devices=2)\n"
            "summarize(result, 'S', 'sprint', 'poisson', 200.0)\n"
            "chunks = [table.slice(0, 20), table.slice(20, 40)]\n"
            "simulate_stream(chunks, cost, num_devices=2)\n"
            "faults = FaultSchedule.from_intervals([[(0.01, 0.02)], []])\n"
            "simulate_table(table, cost, num_devices=2, faults=faults)\n"
            "print('repro.serving.decode' in sys.modules)"
        )
        assert printed == ["False"]
        assert "repro.serving.decode" not in mods

    def test_resolving_one_experiment_executes_only_it(self):
        mods = executed(
            "from repro.experiments import registry\n"
            "registry.resolve('fig1')[1].run"
        )
        assert mods & EXPERIMENT_MODULES == {"repro.experiments.fig1_memory_energy"}


@pytest.mark.parametrize("package", sorted(PINNED_ALL))
def test_export_contract(package, monkeypatch):
    pkg = importlib.import_module(package)
    assert pkg.__all__ == PINNED_ALL[package].split()
    source = {
        name: submodule
        for submodule, names in SOURCES[package].items()
        for name in names.split()
    }
    for name in pkg.__all__:
        defining = f"{package}.{source.get(name, name)}"
        expected = importlib.import_module(defining)
        if name in source:
            expected = getattr(expected, name)
        assert getattr(pkg, name) is expected, name
    assert set(pkg.__all__) <= set(dir(pkg))

    namespace = {}
    exec(f"from {package} import *", namespace)
    assert all(namespace[name] is getattr(pkg, name) for name in pkg.__all__)

    submodule = next(iter(SOURCES[package]), "registry").partition(".")[0]
    module = importlib.import_module(f"{package}.{submodule}")
    monkeypatch.delattr(pkg, submodule)
    assert getattr(pkg, submodule) is module

    with pytest.raises(AttributeError, match=re.escape(repr(package))):
        pkg.no_such_name
    assert not hasattr(pkg, "no_such_name")


def test_registry_binds_the_package_modules():
    experiments = importlib.import_module("repro.experiments")
    for _, module in registry.EXPERIMENTS.values():
        name = module.__name__
        assert module is sys.modules[name]
        assert module is getattr(experiments, name.rpartition(".")[2])
