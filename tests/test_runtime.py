"""Tests for the parallel experiment runtime and the runner CLI.

Covers the ISSUE-3/ISSUE-4 acceptance surface: registry protocol
conformance, the WorkUnit protocol (plan/prime/clear_primed, unit
dedup, unit-granularity caching), CLI subset selection and error
paths, ``--fast`` kwargs plumbing, ResultCache hit/miss semantics
(same key replays, changed config re-runs, edited kwargs replay
unchanged points), artifact serialization, and jobs-count
independence of the artifact bytes.
"""

import dataclasses
import json
import multiprocessing as mp
import time
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.configs import S_SPRINT
from repro.experiments import registry, serving, sweep
from repro.experiments.runner import EXPERIMENTS, main, run_structured
from repro.runtime import (
    Artifact,
    ExperimentPool,
    ResultCache,
    cache_key,
    code_version,
    supports_units,
    to_jsonable,
    unit_cache_key,
)

HAVE_FORK = "fork" in mp.get_all_start_methods()


@dataclass(frozen=True)
class _Row:
    label: str
    value: float


def _fake_module(calls):
    """A registry-shaped module that records its run kwargs."""

    def run(**kwargs):
        calls.append(dict(kwargs))
        return [_Row("n", float(kwargs.get("num_samples", 0)))]

    def format_table(rows):
        return "Fake table: " + ", ".join(f"{r.label}={r.value}" for r in rows)

    return SimpleNamespace(run=run, format_table=format_table)


@pytest.fixture()
def fake_registry(monkeypatch):
    calls = []
    monkeypatch.setitem(
        registry.EXPERIMENTS, "fake", ({"num_samples": 3}, _fake_module(calls))
    )
    return calls


# ----------------------------------------------------------------------
# registry protocol
# ----------------------------------------------------------------------
class TestRegistry:
    def test_modules_satisfy_protocol(self):
        for name, (fast_kwargs, module) in EXPERIMENTS.items():
            assert isinstance(module, registry.ExperimentModule), name
            assert callable(module.run) and callable(module.format_table)
            assert isinstance(fast_kwargs, dict)

    def test_resolve_fast_vs_full(self):
        fast_kwargs, module = registry.resolve("fig5", fast=True)
        assert fast_kwargs == {"num_samples": 16}
        full_kwargs, same_module = registry.resolve("fig5", fast=False)
        assert full_kwargs == {} and same_module is module

    def test_resolve_unknown(self):
        with pytest.raises(KeyError):
            registry.resolve("fig99")

    def test_planned_experiments_declare_units(self):
        for name in (
            "fig10", "fig11", "fig12", "fig13", "ffn", "table3",
            "serving", "sensitivity", "ablations",
        ):
            _, module = EXPERIMENTS[name]
            assert supports_units(module), name
            assert isinstance(module, registry.ShardableExperiment), name
            units = module.plan(**EXPERIMENTS[name][0])
            assert units, name
            keys = [unit.key for unit in units]
            assert len(set(keys)) == len(keys), f"{name}: duplicate keys"
            for unit in units:
                assert isinstance(hash(unit.key), int)
                assert isinstance(hash(unit.group), int)
                assert callable(unit.execute)

    def test_grid_units_match_sweep_cells(self):
        _, module = EXPERIMENTS["fig11"]
        units = module.plan(num_samples=1)
        assert [u.key for u in units] == sweep.cells(
            sweep.ALL_MODELS, sweep.ALL_CONFIGS, module.MODES, 1, 1
        )

    def test_unplanned_experiments_do_not_support_units(self):
        for name in ("fig1", "fig3"):
            _, module = EXPERIMENTS[name]
            assert not supports_units(module), name

    def test_ablation_units_cover_every_row(self):
        from repro.experiments import ablations

        units = ablations.plan()
        by_study = {}
        for unit in units:
            by_study.setdefault(unit.study, []).append(unit)
        assert len(by_study["sld"]) == len(ablations.SLD_MODELS)
        assert len(by_study["interleaving"]) == len(
            ablations.INTERLEAVING_MODELS
        )
        assert len(by_study["margin"]) == len(ablations.DEFAULT_MARGINS)
        assert len(by_study["locality"]) == len(ablations.DEFAULT_LOCALITIES)
        # A primed run must replay unit results instead of recomputing:
        # execute one margin unit out-of-band, prime a sentinel row under
        # its key, and see run_margin_ablation surface the sentinel.
        unit = by_study["margin"][0]
        sentinel = ablations.MarginAblationRow(
            margin=unit.value, pruning_rate=0.5, accuracy=0.5
        )
        ablations.prime(unit.key, sentinel)
        try:
            assert ablations.run_margin_ablation()[0] is sentinel
        finally:
            ablations.clear_primed()


# ----------------------------------------------------------------------
# artifacts
# ----------------------------------------------------------------------
class TestArtifacts:
    def test_to_jsonable_conversions(self):
        row = _Row("x", 1.5)
        out = to_jsonable(
            {
                "row": row,
                "tup": (1, 2),
                "arr": np.array([True, False]),
                "scalar": np.float64(2.5),
            }
        )
        assert out == {
            "row": {"label": "x", "value": 1.5},
            "tup": [1, 2],
            "arr": [True, False],
            "scalar": 2.5,
        }

    def test_to_jsonable_rejects_unknown(self):
        with pytest.raises(TypeError):
            to_jsonable(object())

    def test_round_trip(self, tmp_path):
        artifact = Artifact(
            name="fake",
            kwargs={"num_samples": 3},
            code_version=code_version(),
            cache_key="abc",
            rows=[{"label": "n", "value": 3.0}],
            table="Fake table",
        )
        path = artifact.write(tmp_path)
        assert path == tmp_path / "fake.json"
        assert Artifact.from_json(path.read_text()) == artifact
        assert json.loads(artifact.to_json())["schema"] == 1

    def test_run_structured_real_experiment(self):
        artifact = run_structured("fig3", fast=True)
        assert artifact.name == "fig3"
        assert artifact.kwargs == {"num_samples": 1}
        assert "Figure 3" in artifact.table
        assert artifact.rows and "model" in artifact.rows[0]
        # The artifact JSON is self-contained and parseable.
        json.loads(artifact.to_json())


# ----------------------------------------------------------------------
# content-addressed cache
# ----------------------------------------------------------------------
class TestResultCache:
    def test_key_stable_and_config_sensitive(self):
        same = cache_key("x", {"config": S_SPRINT})
        assert same == cache_key("x", {"config": S_SPRINT})
        changed = dataclasses.replace(S_SPRINT, num_corelets=99)
        assert cache_key("x", {"config": changed}) != same
        assert cache_key("y", {"config": S_SPRINT}) != same
        assert cache_key("x", {"config": S_SPRINT}, version="v2") != same

    def test_same_key_replays(self, tmp_path, fake_registry):
        cache = ResultCache(tmp_path)
        pool = ExperimentPool(jobs=1, cache=cache)
        first = pool.run(["fake"], fast=True)["fake"]
        assert not first.cached and len(fake_registry) == 1
        second = pool.run(["fake"], fast=True)["fake"]
        assert second.cached and len(fake_registry) == 1
        assert second.artifact == first.artifact

    def test_changed_config_reruns(self, tmp_path, fake_registry):
        cache = ResultCache(tmp_path)
        pool = ExperimentPool(jobs=1, cache=cache)
        pool.run(["fake"], fast=True)
        # Different resolved kwargs -> different content address.
        pool.run(["fake"], fast=False)
        assert len(fake_registry) == 2
        assert cache.hits == 0 and cache.misses == 2

    @pytest.mark.parametrize("corrupt", ["{not json", "null", "[]", '"x"'])
    def test_corrupt_entry_is_miss(self, tmp_path, fake_registry, corrupt):
        cache = ResultCache(tmp_path)
        pool = ExperimentPool(jobs=1, cache=cache)
        artifact = pool.run(["fake"], fast=True)["fake"].artifact
        cache.path(artifact.cache_key).write_text(corrupt)
        rerun = pool.run(["fake"], fast=True)["fake"]
        assert not rerun.cached and len(fake_registry) == 2


# ----------------------------------------------------------------------
# sweep priming
# ----------------------------------------------------------------------
class TestSweepPriming:
    def test_primed_cell_short_circuits(self):
        key = ("BERT-B", "S-SPRINT", "sprint", 1, 1)
        sentinel = object()
        sweep.prime(key, sentinel)
        try:
            assert sweep.simulate(*key) is sentinel
        finally:
            sweep.clear_primed()

    def test_cells_enumerate_grid(self):
        from repro.core.system import ExecutionMode

        cells = sweep.cells(("BERT-B",), (S_SPRINT,), (ExecutionMode.SPRINT,), 2, 7)
        assert cells == [("BERT-B", "S-SPRINT", "sprint", 2, 7)]


# ----------------------------------------------------------------------
# work units: planning, priming, unit-granularity caching
# ----------------------------------------------------------------------
def _fake_planned_module(executed):
    """A WorkUnit-protocol module whose run() aggregates primed points.

    ``executed`` logs every point actually simulated (in-process), so
    tests can assert which points a warm rerun recomputed.
    """
    primed = {}

    def _compute(point):
        executed.append(point)
        return point * 10.0

    def _make_unit(point):
        return SimpleNamespace(
            key=("fake-unit", point),
            group=("fake", point % 2),
            execute=lambda point=point: _compute(point),
        )

    def plan(points=(1, 2)):
        return [_make_unit(p) for p in points]

    def run(points=(1, 2)):
        rows = []
        for p in points:
            result = primed.get(("fake-unit", p))
            if result is None:
                result = _compute(p)
            rows.append(_Row(str(p), result))
        return rows

    def format_table(rows):
        return "Fake units: " + ", ".join(f"{r.label}={r.value}" for r in rows)

    def prime(key, result):
        primed[tuple(key)] = result

    def clear_primed():
        primed.clear()

    return SimpleNamespace(
        run=run,
        format_table=format_table,
        plan=plan,
        prime=prime,
        clear_primed=clear_primed,
    )


class TestUnitCache:
    def test_unit_cache_key_point_and_version_sensitive(self):
        same = unit_cache_key(("serving", "BERT-B", 20.0))
        assert same == unit_cache_key(("serving", "BERT-B", 20.0))
        assert unit_cache_key(("serving", "BERT-B", 40.0)) != same
        assert unit_cache_key(("serving", "BERT-B", 20.0), version="v2") != same

    def test_edited_kwargs_replay_unchanged_points(self, tmp_path, monkeypatch):
        executed = []
        module = _fake_planned_module(executed)
        cache = ResultCache(tmp_path)
        pool = ExperimentPool(jobs=1, cache=cache)
        monkeypatch.setitem(
            registry.EXPERIMENTS, "fakeplan", ({"points": (1, 2)}, module)
        )
        first = pool.run(["fakeplan"], fast=True)["fakeplan"]
        assert first.ok and sorted(executed) == [1, 2]
        assert cache.unit_misses == 2 and cache.unit_hits == 0

        # Editing the point list must only simulate the new point.
        monkeypatch.setitem(
            registry.EXPERIMENTS, "fakeplan", ({"points": (1, 2, 3)}, module)
        )
        executed.clear()
        second = pool.run(["fakeplan"], fast=True)["fakeplan"]
        assert second.ok and executed == [3]
        assert cache.unit_hits == 2
        assert [r["value"] for r in second.artifact.rows] == [10.0, 20.0, 30.0]
        # Priming stayed scoped to the pool run.
        assert module.run(points=(1,))[0].value == 10.0 and executed[-1] == 1

    def test_corrupt_unit_entry_is_miss(self, tmp_path, monkeypatch):
        executed = []
        module = _fake_planned_module(executed)
        cache = ResultCache(tmp_path)
        pool = ExperimentPool(jobs=1, cache=cache)
        monkeypatch.setitem(
            registry.EXPERIMENTS, "fakeplan", ({"points": (1,)}, module)
        )
        pool.run(["fakeplan"], fast=True)
        key = unit_cache_key(("fake-unit", 1))
        cache.unit_path(key).write_text("{not a pickle")
        executed.clear()
        monkeypatch.setitem(
            registry.EXPERIMENTS, "fakeplan", ({"points": (1, 2)}, module)
        )
        rerun = pool.run(["fakeplan"], fast=True)["fakeplan"]
        assert rerun.ok and sorted(executed) == [1, 2]

    def test_serving_unit_cache_only_simulates_new_loads(
        self, tmp_path, monkeypatch
    ):
        cache = ResultCache(tmp_path)
        pool = ExperimentPool(jobs=1, cache=cache)
        base_kwargs = {
            "loads": (20.0, 80.0),
            "patterns": ("poisson",),
            "requests_per_point": 30,
        }
        monkeypatch.setitem(
            registry.EXPERIMENTS, "serving", (dict(base_kwargs), serving)
        )
        assert pool.run(["serving"], fast=True)["serving"].ok
        assert cache.unit_misses == 6  # 3 modes x 2 loads

        simulated = []
        original = serving.simulate_point

        def counting(point):
            simulated.append((point.pattern, point.mode, point.rate_rps))
            return original(point)

        monkeypatch.setattr(serving, "simulate_point", counting)
        monkeypatch.setitem(
            registry.EXPERIMENTS,
            "serving",
            ({**base_kwargs, "loads": (20.0, 80.0, 40.0)}, serving),
        )
        warm = pool.run(["serving"], fast=True)["serving"]
        assert warm.ok
        assert cache.unit_hits == 6
        assert {load for _, _, load in simulated} == {40.0}
        # The incremental artifact matches a cold run of the same kwargs.
        monkeypatch.setattr(serving, "simulate_point", original)
        cold = ExperimentPool(jobs=1).run(["serving"], fast=True)["serving"]
        assert cold.artifact.to_json() == warm.artifact.to_json()

    def test_sensitivity_unit_cache_only_simulates_new_rates(
        self, tmp_path, monkeypatch
    ):
        from repro.experiments import sensitivity

        cache = ResultCache(tmp_path)
        pool = ExperimentPool(jobs=1, cache=cache)
        base_kwargs = {"rates": (0.5, 0.75), "seq_lens": (128,)}
        monkeypatch.setitem(
            registry.EXPERIMENTS, "sensitivity", (dict(base_kwargs), sensitivity)
        )
        assert pool.run(["sensitivity"], fast=True)["sensitivity"].ok
        assert cache.unit_misses == 3  # 2 rates + 1 seq_len

        executed = []
        original = sensitivity.SensitivityUnit.execute

        def counting(self):
            executed.append((self.kind, self.value))
            return original(self)

        monkeypatch.setattr(sensitivity.SensitivityUnit, "execute", counting)
        monkeypatch.setitem(
            registry.EXPERIMENTS,
            "sensitivity",
            ({**base_kwargs, "rates": (0.5, 0.75, 0.9)}, sensitivity),
        )
        warm = pool.run(["sensitivity"], fast=True)["sensitivity"]
        assert warm.ok
        assert cache.unit_hits == 3
        assert executed == [("pruning_rate", 0.9)]


# ----------------------------------------------------------------------
# pool: parallel equivalence and failure isolation
# ----------------------------------------------------------------------
class TestExperimentPool:
    def test_jobs_do_not_change_artifact_bytes(self):
        names = ["fig3", "fig11", "table3"]
        serial = ExperimentPool(jobs=1).run(names, fast=True)
        parallel = ExperimentPool(jobs=2).run(names, fast=True)
        for name in names:
            assert serial[name].ok and parallel[name].ok
            assert serial[name].artifact.to_json() == parallel[name].artifact.to_json()

    def test_serving_jobs_do_not_change_artifact_bytes(self):
        serial = ExperimentPool(jobs=1).run(["serving"], fast=True)
        parallel = ExperimentPool(jobs=4).run(["serving"], fast=True)
        assert serial["serving"].ok and parallel["serving"].ok
        assert (
            serial["serving"].artifact.to_json()
            == parallel["serving"].artifact.to_json()
        )
        assert not serving._PRIMED

    def test_sensitivity_jobs_do_not_change_artifact_bytes(self, monkeypatch):
        from repro.experiments import sensitivity

        monkeypatch.setitem(
            registry.EXPERIMENTS,
            "sensitivity",
            ({"rates": (0.5, 0.9), "seq_lens": (128, 256)}, sensitivity),
        )
        serial = ExperimentPool(jobs=1).run(["sensitivity"], fast=True)
        parallel = ExperimentPool(jobs=2).run(["sensitivity"], fast=True)
        assert serial["sensitivity"].ok and parallel["sensitivity"].ok
        assert (
            serial["sensitivity"].artifact.to_json()
            == parallel["sensitivity"].artifact.to_json()
        )
        assert not sensitivity._PRIMED

    @pytest.mark.skipif(not HAVE_FORK, reason="fake modules need fork")
    def test_failed_standalone_future_reports_elapsed(self, monkeypatch):
        def slow_boom(**kwargs):
            time.sleep(0.05)
            raise RuntimeError("injected failure")

        monkeypatch.setitem(
            registry.EXPERIMENTS,
            "slowboom",
            ({}, SimpleNamespace(run=slow_boom, format_table=str)),
        )
        calls = []
        monkeypatch.setitem(registry.EXPERIMENTS, "fake", ({}, _fake_module(calls)))
        outcomes = ExperimentPool(jobs=2).run(["slowboom", "fake"])
        assert not outcomes["slowboom"].ok
        assert "injected failure" in outcomes["slowboom"].error
        # The failure's wall time is tracked, not recorded as 0.0.
        assert outcomes["slowboom"].seconds >= 0.05
        assert outcomes["fake"].ok

    def test_single_grid_experiment_still_shards(self):
        # One pending grid-backed experiment must take the worker path
        # (cells sharded) and still match the serial bytes; priming is
        # scoped to the run.
        serial = ExperimentPool(jobs=1).run(["table3"], fast=True)
        parallel = ExperimentPool(jobs=2).run(["table3"], fast=True)
        assert parallel["table3"].ok
        assert (
            serial["table3"].artifact.to_json()
            == parallel["table3"].artifact.to_json()
        )
        assert not sweep._PRIMED

    def test_failure_isolated_from_batch(self, monkeypatch):
        def boom(**kwargs):
            raise RuntimeError("injected failure")

        monkeypatch.setitem(
            registry.EXPERIMENTS,
            "boom",
            ({}, SimpleNamespace(run=boom, format_table=str)),
        )
        calls = []
        monkeypatch.setitem(registry.EXPERIMENTS, "fake", ({}, _fake_module(calls)))
        outcomes = ExperimentPool(jobs=1).run(["boom", "fake"])
        assert not outcomes["boom"].ok
        assert "injected failure" in outcomes["boom"].error
        assert outcomes["fake"].ok and len(calls) == 1

    def test_unknown_name_raises_before_work(self):
        with pytest.raises(KeyError):
            ExperimentPool(jobs=1).run(["fig3", "fig99"])

    def test_list_deadline_window_runs_next_to_fig1(self, monkeypatch):
        # A deadline window given as a list (as JSON or a registry entry
        # would give it) is the same point as its tuple: its unit keys
        # hash, and the sharded artifact equals the serial tuple run's.
        from repro.experiments import resilience

        kwargs, module = registry.EXPERIMENTS["resilience"]
        monkeypatch.setitem(
            registry.EXPERIMENTS,
            "resilience",
            (dict(kwargs, deadline_range_s=(0.02, 0.2)), module),
        )
        serial = ExperimentPool(jobs=1).run(["resilience"], fast=True)
        monkeypatch.setitem(
            registry.EXPERIMENTS,
            "resilience",
            (dict(kwargs, deadline_range_s=[0.02, 0.2]), module),
        )
        outcomes = ExperimentPool(jobs=2).run(["resilience", "fig1"], fast=True)
        assert outcomes["resilience"].ok, outcomes["resilience"].error
        assert outcomes["fig1"].ok
        assert (
            outcomes["resilience"].artifact.to_json()
            == serial["resilience"].artifact.to_json()
        )
        assert not resilience._PRIMED

    def test_unhashable_unit_key_fails_only_its_experiment(self, monkeypatch):
        module = _fake_planned_module([])
        module.plan = lambda points=(1, 2): [
            SimpleNamespace(key=["fake-unit", p], group=("fake", 0)) for p in points
        ]
        monkeypatch.setitem(registry.EXPERIMENTS, "badkey", ({}, module))
        outcomes = ExperimentPool(jobs=2).run(["badkey", "fig1"], fast=True)
        assert not outcomes["badkey"].ok
        assert "unhashable" in outcomes["badkey"].error
        assert outcomes["fig1"].ok


# ----------------------------------------------------------------------
# runner CLI
# ----------------------------------------------------------------------
class TestRunnerCli:
    def test_subset_selection(self, tmp_path, capsys):
        rc = main(["fig3", "fig8", "--fast", "--json-out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Figure 3" in out and "Figure 8" in out
        for name in ("fig3", "fig8"):
            payload = json.loads((tmp_path / f"{name}.json").read_text())
            assert payload["name"] == name and payload["rows"]
        assert not (tmp_path / "fig1.json").exists()

    def test_unknown_name_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["fig99"])
        assert excinfo.value.code == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_bad_jobs_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["fig3", "--jobs", "0"])
        assert excinfo.value.code == 2

    def test_fast_kwargs_plumbing(self, fake_registry, capsys):
        assert main(["fake", "--fast"]) == 0
        assert fake_registry[-1] == {"num_samples": 3}
        assert main(["fake"]) == 0
        assert fake_registry[-1] == {}
        assert "Fake table" in capsys.readouterr().out

    def test_failure_returns_nonzero(self, monkeypatch, capsys):
        def boom(**kwargs):
            raise RuntimeError("injected failure")

        monkeypatch.setitem(
            registry.EXPERIMENTS,
            "boom",
            ({}, SimpleNamespace(run=boom, format_table=str)),
        )
        calls = []
        monkeypatch.setitem(registry.EXPERIMENTS, "fake", ({}, _fake_module(calls)))
        rc = main(["boom", "fake"])
        captured = capsys.readouterr()
        assert rc == 1
        assert "boom FAILED" in captured.out
        # The batch kept going past the failure.
        assert "Fake table" in captured.out
        assert "1/2 experiment(s) failed" in captured.err

    def test_cache_dir_flag_replays(self, tmp_path, fake_registry, capsys):
        cache_dir = tmp_path / "cache"
        assert main(["fake", "--cache-dir", str(cache_dir)]) == 0
        assert main(["fake", "--cache-dir", str(cache_dir)]) == 0
        assert len(fake_registry) == 1
        assert "done (cache)" in capsys.readouterr().out


# ----------------------------------------------------------------------
# streaming unit cache: a killed --jobs run resumes where it stopped
# ----------------------------------------------------------------------
#: Driver for the kill/resume test.  Runs a planned experiment whose
#: units are slow enough to kill mid-run; every execute() touches a
#: marker file, so the rerun's marker count reveals which units were
#: actually re-simulated versus replayed from the streamed cache.
_RESUME_DRIVER = """
import pathlib
import sys
import time
from dataclasses import dataclass
from types import SimpleNamespace

from repro.experiments import registry
from repro.runtime import ExperimentPool, ResultCache

MARKS = pathlib.Path(sys.argv[1])
CACHE_DIR = sys.argv[2]
POINTS = tuple(range(6))
PRIMED = {}


@dataclass(frozen=True)
class SlowUnit:
    point: int

    @property
    def key(self):
        return ("slowplan", self.point)

    @property
    def group(self):
        return ("slowplan", self.point % 2)

    def execute(self):
        (MARKS / f"exec_{self.point}").touch()
        time.sleep(0.3)
        return self.point * 10.0


@dataclass(frozen=True)
class Row:
    label: str
    value: float


def run(points=POINTS):
    rows = []
    for p in points:
        result = PRIMED.get(("slowplan", p))
        if result is None:
            result = SlowUnit(p).execute()
        rows.append(Row(str(p), result))
    return rows


module = SimpleNamespace(
    run=run,
    format_table=lambda rows: ", ".join(f"{r.label}={r.value}" for r in rows),
    plan=lambda points=POINTS: [SlowUnit(p) for p in points],
    prime=lambda key, result: PRIMED.__setitem__(tuple(key), result),
    clear_primed=PRIMED.clear,
)
registry.EXPERIMENTS["slowplan"] = ({}, module)
pool = ExperimentPool(jobs=2, cache=ResultCache(CACHE_DIR))
outcome = pool.run(["slowplan"])["slowplan"]
assert outcome.ok, outcome.error
"""


@pytest.mark.skipif(not HAVE_FORK, reason="worker pickling needs fork")
class TestStreamingUnitCache:
    def _spawn(self, tmp_path, marks):
        import os
        import subprocess
        import sys
        from pathlib import Path

        marks.mkdir(exist_ok=True)
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        cmd = [
            sys.executable,
            "-c",
            _RESUME_DRIVER,
            str(marks),
            str(tmp_path / "cache"),
        ]
        # Own session: killing the group also kills the driver's
        # fork-pool workers, which a SIGKILL of the driver alone
        # would leave running.
        return subprocess.Popen(cmd, env=env, start_new_session=True)

    def test_killed_jobs_run_resumes_from_landed_units(self, tmp_path):
        import os
        import signal

        marks = tmp_path / "marks"
        units_dir = tmp_path / "cache" / "units"
        proc = self._spawn(tmp_path, marks)
        try:
            # Wait until at least two unit results landed in the cache
            # (streamed by the workers while the run is in flight).
            deadline = time.time() + 30.0
            while time.time() < deadline:
                if units_dir.exists() and len(list(units_dir.glob("*.pkl"))) >= 2:
                    break
                if proc.poll() is not None:
                    break
                time.sleep(0.02)
            landed = len(list(units_dir.glob("*.pkl"))) if units_dir.exists() else 0
            assert landed >= 1, "no unit result streamed into the cache"
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait(timeout=30)

        # No torn entries: everything that landed is a whole pickle.
        # (A stray *.tmp-* file is fine -- a SIGKILL mid-write leaves
        # one behind by design; only the atomic rename publishes.)
        import pickle

        landed = 0
        for entry in units_dir.glob("*.pkl"):
            pickle.loads(entry.read_bytes())
            landed += 1

        # Rerun to completion: the landed units replay from the cache,
        # only the missing ones execute.
        for mark in marks.iterdir():
            mark.unlink()
        rerun = self._spawn(tmp_path, marks)
        assert rerun.wait(timeout=120) == 0
        re_executed = len(list(marks.iterdir()))
        assert re_executed <= 6 - landed
        assert len(list(units_dir.glob("*.pkl"))) == 6


# ----------------------------------------------------------------------
# kill/resume for planned decode units: generative sims stream too
# ----------------------------------------------------------------------
#: Same shape as ``_RESUME_DRIVER``, but every unit is a real generative
#: decode simulation (cold cost model + ``simulate_decode_table``), so
#: the kill lands mid-simulation and the rerun proves decode units
#: replay from the streamed cache like any other WorkUnit.
_DECODE_RESUME_DRIVER = """
import pathlib
import sys
import time
from dataclasses import dataclass
from types import SimpleNamespace

from repro.core.configs import S_SPRINT
from repro.core.system import ExecutionMode
from repro.experiments import registry
from repro.runtime import ExperimentPool, ResultCache
from repro.serving import (
    PoissonProcess, ServiceCostModel, generate_request_table,
)
from repro.serving.decode import simulate_decode_table

MARKS = pathlib.Path(sys.argv[1])
CACHE_DIR = sys.argv[2]
SEEDS = tuple(range(6))
PRIMED = {}


@dataclass(frozen=True)
class DecodeUnit:
    seed: int

    @property
    def key(self):
        return ("decodeplan", self.seed)

    @property
    def group(self):
        return ("decodeplan", self.seed % 2)

    def execute(self):
        (MARKS / f"exec_{self.seed}").touch()
        time.sleep(0.25)
        cost = ServiceCostModel(S_SPRINT, ExecutionMode.SPRINT)
        table = generate_request_table(
            PoissonProcess(150.0), "BERT-B", count=40, seed=self.seed,
            mean_output_tokens=6.0,
        )
        out = simulate_decode_table(table, cost, num_devices=2)
        return float(out.finish_s.sum())


@dataclass(frozen=True)
class Row:
    label: str
    value: float


def run(seeds=SEEDS):
    rows = []
    for s in seeds:
        result = PRIMED.get(("decodeplan", s))
        if result is None:
            result = DecodeUnit(s).execute()
        rows.append(Row(str(s), result))
    return rows


module = SimpleNamespace(
    run=run,
    format_table=lambda rows: ", ".join(f"{r.label}={r.value}" for r in rows),
    plan=lambda seeds=SEEDS: [DecodeUnit(s) for s in seeds],
    prime=lambda key, result: PRIMED.__setitem__(tuple(key), result),
    clear_primed=PRIMED.clear,
)
registry.EXPERIMENTS["decodeplan"] = ({}, module)
pool = ExperimentPool(jobs=2, cache=ResultCache(CACHE_DIR))
outcome = pool.run(["decodeplan"])["decodeplan"]
assert outcome.ok, outcome.error
"""


@pytest.mark.skipif(not HAVE_FORK, reason="worker pickling needs fork")
class TestDecodeUnitResume:
    def _spawn(self, tmp_path, marks):
        import os
        import subprocess
        import sys
        from pathlib import Path

        marks.mkdir(exist_ok=True)
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        cmd = [
            sys.executable,
            "-c",
            _DECODE_RESUME_DRIVER,
            str(marks),
            str(tmp_path / "cache"),
        ]
        # Own session: killing the group also kills the driver's
        # fork-pool workers, which a SIGKILL of the driver alone
        # would leave running.
        return subprocess.Popen(cmd, env=env, start_new_session=True)

    def test_killed_decode_run_resumes_from_landed_units(self, tmp_path):
        import os
        import pickle
        import signal

        marks = tmp_path / "marks"
        units_dir = tmp_path / "cache" / "units"
        proc = self._spawn(tmp_path, marks)
        try:
            deadline = time.time() + 60.0
            while time.time() < deadline:
                if units_dir.exists() and len(list(units_dir.glob("*.pkl"))) >= 2:
                    break
                if proc.poll() is not None:
                    break
                time.sleep(0.02)
            landed = len(list(units_dir.glob("*.pkl"))) if units_dir.exists() else 0
            assert landed >= 1, "no decode unit streamed into the cache"
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait(timeout=30)

        landed = 0
        for entry in units_dir.glob("*.pkl"):
            pickle.loads(entry.read_bytes())  # no torn pickles
            landed += 1

        for mark in marks.iterdir():
            mark.unlink()
        rerun = self._spawn(tmp_path, marks)
        assert rerun.wait(timeout=180) == 0
        re_executed = len(list(marks.iterdir()))
        assert re_executed <= 6 - landed
        assert len(list(units_dir.glob("*.pkl"))) == 6


# ----------------------------------------------------------------------
# bounded shard retry: a SIGKILLed worker does not sink the run
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _KamikazeUnit:
    """A unit that SIGKILLs its worker on first execution.

    The sentinel file marks the attempt: absent -> suicide (simulating
    an OOM-killed worker mid-shard), present -> compute normally.  Only
    ``point == 0`` is armed so the retry (and any in-parent fallback)
    can always complete.
    """

    point: int
    sentinel: str

    @property
    def key(self):
        return ("killplan", self.point, self.sentinel)

    @property
    def group(self):
        # One group: the whole shard dies with the worker, exercising
        # retry of a multi-unit shard.
        return ("killplan",)

    def execute(self):
        import os
        import pathlib
        import signal

        mark = pathlib.Path(self.sentinel)
        if self.point == 0 and not mark.exists():
            mark.touch()
            os.kill(os.getpid(), signal.SIGKILL)
        return float(self.point) * 2.0


@pytest.mark.skipif(not HAVE_FORK, reason="worker pickling needs fork")
class TestShardRetry:
    def _register(self, monkeypatch, sentinel):
        units = [_KamikazeUnit(p, str(sentinel)) for p in range(3)]
        primed = {}

        def run():
            rows = []
            for unit in units:
                result = primed.get(unit.key)
                if result is None:
                    result = unit.execute()
                rows.append(_Row(str(unit.point), result))
            return rows

        module = SimpleNamespace(
            run=run,
            format_table=lambda rows: ", ".join(
                f"{r.label}={r.value}" for r in rows
            ),
            plan=lambda: list(units),
            prime=lambda key, result: primed.__setitem__(tuple(key), result),
            clear_primed=primed.clear,
        )
        monkeypatch.setitem(registry.EXPERIMENTS, "killplan", ({}, module))
        return primed

    def test_sigkilled_worker_retries_and_completes(
        self, monkeypatch, tmp_path
    ):
        from repro.obs import telemetry as tele_mod
        from repro.obs.telemetry import RunTelemetry

        self._register(monkeypatch, tmp_path / "armed")
        tele = RunTelemetry(jobs=2)
        tele_mod.set_telemetry(tele)
        try:
            outcome = ExperimentPool(jobs=2).run(["killplan"])["killplan"]
        finally:
            tele_mod.set_telemetry(None)
        assert outcome.ok, outcome.error
        rows = {r["label"]: r["value"] for r in outcome.artifact.rows}
        assert rows == {"0": 0.0, "1": 2.0, "2": 4.0}
        # The crash was observed and the retry actually ran.
        assert tele.counters["units.shard_retries"].value >= 1
        kinds = [e["kind"] for e in tele.events]
        assert "shard_retry" in kinds
        warns = [e for e in tele.events if e["kind"] == "warning"]
        assert any("shard" in w["message"] for w in warns)

    def test_exhausted_retries_fall_back_to_serial(
        self, monkeypatch, tmp_path
    ):
        # With a zero retry budget the shard is abandoned, but the
        # aggregation path still re-simulates in-parent (the sentinel
        # now exists, so the in-process execute() completes).
        from repro.obs import telemetry as tele_mod
        from repro.obs.telemetry import RunTelemetry

        self._register(monkeypatch, tmp_path / "armed")
        tele = RunTelemetry(jobs=2)
        tele_mod.set_telemetry(tele)
        try:
            pool = ExperimentPool(jobs=2, shard_retries=0)
            outcome = pool.run(["killplan"])["killplan"]
        finally:
            tele_mod.set_telemetry(None)
        assert outcome.ok, outcome.error
        rows = {r["label"]: r["value"] for r in outcome.artifact.rows}
        assert rows == {"0": 0.0, "1": 2.0, "2": 4.0}
        retries = tele.counters.get("units.shard_retries")
        assert retries is None or retries.value == 0
        warns = [e for e in tele.events if e["kind"] == "warning"]
        assert any("exhausted" in w["message"] for w in warns)
