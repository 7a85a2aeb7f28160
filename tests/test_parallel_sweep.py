"""Tests for the parallel sweep executor (repro.core.parallel).

The contract: a ``jobs > 1`` sweep produces byte-identical artifacts
(saved results, checkpoints, speedup cells) to the serial path — the
workers only change wall-clock, never results.
"""

from __future__ import annotations

import multiprocessing

import pytest

from repro import ResilientStudy, Study, telemetry
from repro.cli import main as cli_main
from repro.core import parallel
from repro.core.parallel import JOBS_ENV, CellTask, execute_tasks, resolve_jobs
from repro.core.study import SpeedupCell
from repro.errors import StudyError
from repro.gpu.faults import FaultPlan
from repro.graphs import generators as gen
from repro.graphs.suite import load_suite_graph

ALGOS = ["cc", "mis"]
INPUTS = ["internet", "USA-road-d.NY"]
DEVICE = "titanv"


def _cells(cells):
    return [(c.algorithm, c.input_name, c.device_key, c.baseline_ms,
             c.racefree_ms) for c in cells if isinstance(c, SpeedupCell)]


class TestResolveJobs:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv(JOBS_ENV, raising=False)
        assert resolve_jobs() == 1

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "3")
        assert resolve_jobs() == 3
        assert resolve_jobs(2) == 2  # explicit argument wins

    def test_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "many")
        with pytest.raises(StudyError):
            resolve_jobs()
        with pytest.raises(StudyError):
            resolve_jobs(0)


class TestExecuteTasks:
    def test_fault_free_run_is_one_generation_running_each_task_once(
            self, monkeypatch):
        supervisors = []

        class RecordingSupervisor(parallel.Supervisor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                supervisors.append(self)

        monkeypatch.setattr(parallel, "Supervisor", RecordingSupervisor)
        tasks = [CellTask(a, name, DEVICE, ("baseline", "racefree"))
                 for name in INPUTS for a in ALGOS]
        merged = []
        with telemetry.session() as (registry, _spans):
            config = Study(reps=1)._worker_config()
            execute_tasks(config, tasks, jobs=2, merge=merged.append)
            respawns = registry.get("repro_fleet_respawns_total")
        [supervisor] = supervisors
        status = supervisor.status()
        # one spawn per slot, each task dispatched once, no respawn
        assert [w["generation"] for w in status["workers"]] == [0, 0]
        assert sum(w["dispatched"] for w in status["workers"]) == len(tasks)
        assert status["respawns"] == status["redispatches"] == 0
        assert respawns is None or respawns.value() == 0
        # every worker was joined before execute_tasks returned
        assert [s.proc.exitcode for s in supervisor.slots] == [0, 0]
        assert multiprocessing.active_children() == []
        cells = [(r["algorithm"], r["input"], r["variant"])
                 for r in merged if r["kind"] != "telemetry"]
        assert cells == [(t.algorithm, t.graph_or_name, v)
                         for t in tasks for v in t.variants]


class TestParallelStudy:
    def test_speedup_table_byte_identical_to_serial(self, tmp_path):
        serial = Study(reps=2)
        cells_1 = serial.speedup_table(DEVICE, ALGOS, INPUTS, jobs=1)
        serial.save_results(tmp_path / "serial.json")

        parallel = Study(reps=2)
        cells_4 = parallel.speedup_table(DEVICE, ALGOS, INPUTS, jobs=4)
        parallel.save_results(tmp_path / "parallel.json")

        assert _cells(cells_1) == _cells(cells_4)
        assert (tmp_path / "serial.json").read_bytes() == \
            (tmp_path / "parallel.json").read_bytes()

    def test_graph_objects_byte_identical_to_serial(self, tmp_path):
        """CSRGraph inputs reach the workers at fork, tasks name them
        by index — the results must not notice."""
        graphs = [load_suite_graph(name) for name in INPUTS]
        serial = Study(reps=1)
        serial.speedup_table(DEVICE, ALGOS, graphs, jobs=1)
        serial.save_results(tmp_path / "serial.json")
        parallel = Study(reps=1)
        parallel.speedup_table(DEVICE, ALGOS, graphs, jobs=2)
        parallel.save_results(tmp_path / "parallel.json")
        assert (tmp_path / "serial.json").read_bytes() == \
            (tmp_path / "parallel.json").read_bytes()

    def test_model_priced_sweep_runs_on_workers(self, tmp_path,
                                                monkeypatch):
        submitted = []
        real = parallel.execute_tasks

        def counting(config, tasks, *args, **kwargs):
            submitted.extend(tasks)
            return real(config, tasks, *args, **kwargs)

        monkeypatch.setattr(parallel, "execute_tasks", counting)
        serial = Study(reps=1, memory_model="ptx:acq_rel", jobs=1)
        serial.speedup_table(DEVICE, ALGOS, INPUTS)
        serial.save_results(tmp_path / "serial.json")
        assert not submitted
        par = Study(reps=1, memory_model="ptx:acq_rel", jobs=2)
        par.speedup_table(DEVICE, ALGOS, INPUTS)
        par.save_results(tmp_path / "parallel.json")
        assert len(submitted) > 0
        assert (tmp_path / "serial.json").read_bytes() == \
            (tmp_path / "parallel.json").read_bytes()

    def test_parallel_fills_the_memo(self):
        study = Study(reps=1)
        study.speedup_table(DEVICE, ALGOS, INPUTS, jobs=2)
        # a second pass needs no pool: everything is memoized
        again = study.speedup_table(DEVICE, ALGOS, INPUTS, jobs=1)
        assert len(again) == len(ALGOS) * len(INPUTS)


class TestParallelResilientStudy:
    def test_sweep_and_checkpoint_identical_to_serial(self, tmp_path):
        serial = ResilientStudy(reps=2,
                                checkpoint=tmp_path / "serial.ckpt")
        s_cells = serial.sweep(DEVICE, ALGOS, INPUTS, jobs=1).cells

        parallel = ResilientStudy(reps=2,
                                  checkpoint=tmp_path / "parallel.ckpt")
        p_cells = parallel.sweep(DEVICE, ALGOS, INPUTS, jobs=2).cells

        assert _cells(s_cells) == _cells(p_cells)
        assert (tmp_path / "serial.ckpt").read_bytes() == \
            (tmp_path / "parallel.ckpt").read_bytes()
        assert parallel.cells_executed == serial.cells_executed

    def test_resume_executes_only_missing_cells(self, tmp_path):
        ckpt = tmp_path / "sweep.ckpt"
        first = ResilientStudy(reps=1, checkpoint=ckpt)
        first.sweep(DEVICE, ALGOS, INPUTS, jobs=2)

        resumed = ResilientStudy(reps=1, checkpoint=ckpt)
        resumed.load_checkpoint()
        result = resumed.sweep(DEVICE, ALGOS, INPUTS, jobs=2)
        assert resumed.cells_executed == 0
        assert _cells(result.cells) == _cells(
            first.sweep(DEVICE, ALGOS, INPUTS).cells)

    def test_fault_plan_identical_to_serial(self, tmp_path):
        """Workers derive injected fault streams from the plan seed and
        the cell key, so injection commutes with parallelism."""
        faults = FaultPlan.parse("stall=1.0", seed=3)
        serial = ResilientStudy(reps=2, faults=faults)
        s = serial.sweep(DEVICE, ALGOS, INPUTS, jobs=1)
        parallel = ResilientStudy(reps=2, faults=faults)
        p = parallel.sweep(DEVICE, ALGOS, INPUTS, jobs=2)
        assert _cells(s.cells) == _cells(p.cells)
        serial.save_results(tmp_path / "s.json")
        parallel.save_results(tmp_path / "p.json")
        assert (tmp_path / "s.json").read_bytes() == \
            (tmp_path / "p.json").read_bytes()

    def test_shared_disk_traces_across_workers(self, tmp_path):
        """Pool workers share one on-disk trace directory, so a second
        parallel study replays instead of re-recording."""
        trace_dir = tmp_path / "traces"
        first = ResilientStudy(reps=1, trace_cache=trace_dir)
        cells_a = first.sweep(DEVICE, ALGOS, INPUTS, jobs=2).cells
        assert any(trace_dir.glob("trace-*.json"))

        second = ResilientStudy(reps=1, trace_cache=trace_dir)
        cells_b = second.sweep(DEVICE, ALGOS, INPUTS, jobs=2).cells
        assert _cells(cells_a) == _cells(cells_b)


def _clashing_graphs():
    first = gen.random_uniform(40, 3.0, seed=9, name="clash")
    second = gen.random_uniform(40, 3.0, seed=10, name="clash")
    assert first.fingerprint() != second.fingerprint()
    return first, second


def _saved_devices(study, path) -> set[str]:
    import json

    study.save_results(path)
    return {r["device"] for r in json.loads(path.read_text())["results"]}


class TestParallelNameClash:
    """A graph reusing an earlier graph's name with different content
    is rejected before any worker runs, exactly like the serial path."""

    def test_study_merges_nothing_for_the_clash(self, tmp_path):
        g1, g2 = _clashing_graphs()
        study = Study(reps=1, jobs=2)
        study.speedup_table("titanv", ["cc"], [g1])
        with pytest.raises(StudyError, match="already used"):
            study.speedup_table("a100", ["cc"], [g2])
        assert _saved_devices(study, tmp_path / "r.json") == {"titanv"}

    def test_resilient_sweep_merges_nothing_for_the_clash(self, tmp_path):
        g1, g2 = _clashing_graphs()
        study = ResilientStudy(reps=1, jobs=2)
        study.sweep("titanv", ["cc"], [g1])
        with pytest.raises(StudyError, match="already used"):
            study.sweep("a100", ["cc"], [g2])
        assert _saved_devices(study, tmp_path / "r.json") == {"titanv"}
        assert study.failures() == []


def test_cli_sweep_jobs_smoke(capsys):
    rc = cli_main(["sweep", "--device", DEVICE, "--inputs", "internet",
                   "--reps", "1", "--jobs", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "Resilient speedups" in out
