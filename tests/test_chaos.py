"""Tests for worker-death-tolerant parallel execution
(repro.core.parallel) and the chaos harness (repro.core.chaos).

Covers SIGKILLed and stalled workers recovering to byte-identical
results, a cell lost twice failing the sweep, worker-raised exceptions wrapped
as :class:`~repro.errors.WorkerTaskError` naming the cell, the chaos
scenario suite's kind coverage, one end-to-end scenario run, and the
CLI wiring (``repro chaos`` exit codes, exit 3 on interruption).
"""

from __future__ import annotations

import errno

import pytest

from repro import telemetry
from repro.cli import main as cli_main
from repro.core import hostfaults, parallel
from repro.core.chaos import (
    ChaosOutcome,
    ChaosReport,
    run_scenario,
    scenario_suite,
)
from repro.core.hostfaults import HostFaultKind, HostFaultPlan
from repro.core.parallel import CellTask, execute_tasks
from repro.core.resilience import ResilientStudy
from repro.errors import StudyError, SweepInterrupted, WorkerTaskError

DEVICE = "titanv"
INPUT = "internet"
ALGOS = ["cc", "mis"]


@pytest.fixture(autouse=True)
def _no_leaked_plan():
    hostfaults.uninstall()
    yield
    hostfaults.uninstall()


@pytest.fixture(scope="module")
def clean_bytes(tmp_path_factory):
    root = tmp_path_factory.mktemp("chaos-clean")
    study = ResilientStudy(reps=1)
    result = study.sweep(DEVICE, ALGOS, [INPUT])
    assert not result.failures
    out = root / "results.json"
    study.save_results(out)
    return out.read_bytes()


class TestWorkerDeathRecovery:
    def test_sigkilled_generation_recovers_byte_identically(
            self, tmp_path, clean_bytes):
        plan = HostFaultPlan.parse("kill=1.0", seed=0,
                                   disrupt_generations=1)
        with telemetry.session() as (registry, _spans):
            with hostfaults.installed(plan):
                study = ResilientStudy(reps=1)
                result = study.sweep(DEVICE, ALGOS, [INPUT], jobs=2)
            respawns = registry.get("repro_fleet_respawns_total")
            assert respawns is not None and respawns.value() >= 1
        assert not result.failures
        assert result.coverage[0] == result.coverage[1]
        out = tmp_path / "results.json"
        study.save_results(out)
        assert out.read_bytes() == clean_bytes

    def test_stalled_workers_are_killed_past_the_deadline(
            self, tmp_path, clean_bytes):
        plan = HostFaultPlan.parse("stall=1.0", seed=0,
                                   stall_seconds=30.0,
                                   disrupt_generations=1)
        with hostfaults.installed(plan):
            study = ResilientStudy(reps=1)
            study.task_deadline_s = 0.5
            result = study.sweep(DEVICE, ALGOS, [INPUT], jobs=2)
        assert not result.failures
        out = tmp_path / "results.json"
        study.save_results(out)
        assert out.read_bytes() == clean_bytes

    def test_respawn_budget_exhaustion_raises(self):
        # no generation bound: every incarnation of every worker dies,
        # so the one cell is lost on its dispatch and its redispatch
        plan = HostFaultPlan.parse("kill=1.0", seed=0)
        with hostfaults.installed(plan):
            study = ResilientStudy(reps=1)
            with pytest.raises(StudyError,
                               match=r"cc/internet/titanv lost twice"):
                study.sweep(DEVICE, ["cc"], [INPUT], jobs=2)

    @pytest.mark.filterwarnings(
        "ignore::pytest.PytestUnhandledThreadExceptionWarning")
    def test_failed_respawn_is_reported_not_hung(self, monkeypatch):
        # the first incarnation of each slot dies; forking its
        # replacement fails — the sweep must raise, not wait forever
        spawn = parallel.Supervisor._spawn

        def first_spawn_only(self, slot):
            if slot.generation >= 0:
                raise OSError(errno.EAGAIN, "fork refused")
            spawn(self, slot)

        monkeypatch.setattr(parallel.Supervisor, "_spawn",
                            first_spawn_only)
        plan = HostFaultPlan.parse("kill=1.0", seed=0)
        with hostfaults.installed(plan):
            with pytest.raises(WorkerTaskError,
                               match="worker supervisor failed"):
                ResilientStudy(reps=1).sweep(DEVICE, ["cc"], [INPUT],
                                             jobs=2)

    def test_worker_raised_error_names_the_cell(self):
        config = ResilientStudy(reps=1)._worker_config()
        tasks = [CellTask("nope", INPUT, DEVICE, ("baseline",))]
        with pytest.raises(WorkerTaskError,
                           match=r"nope/internet/titanv"):
            execute_tasks(config, tasks, jobs=1, merge=lambda r: None)


class TestChaosHarness:
    def test_suite_covers_every_fault_kind(self):
        covered = set()
        for scenario in scenario_suite():
            covered |= scenario.kinds()
        assert covered == set(HostFaultKind)

    def test_checkpoint_fallback_scenario_end_to_end(
            self, tmp_path, clean_bytes):
        scenario = next(s for s in scenario_suite(jobs=2)
                        if s.name == "checkpoint-fallback")
        outcome = run_scenario(scenario, clean_bytes, tmp_path, DEVICE,
                               ALGOS, [INPUT], reps=1, seed=0)
        assert outcome.ok and outcome.identical
        assert "fallbacks=1" in outcome.detail
        assert "ok" in outcome.describe()

    def test_report_rendering(self):
        good = ChaosOutcome(scenario="torn-trace", ok=True,
                            identical=True, coverage=(4, 4), detail="d")
        bad = ChaosOutcome(scenario="combined", ok=False,
                           identical=False, coverage=(3, 4), detail="d")
        report = ChaosReport(outcomes=[good, bad],
                             kinds_covered=("kill", "torn"))
        assert not report.ok
        text = report.render()
        assert "DIVERGED" in text and "FAILURES" in text
        assert ChaosReport(outcomes=[good],
                           kinds_covered=("torn",)).ok


class TestCliWiring:
    def test_chaos_command_exit_codes(self, monkeypatch, capsys):
        class _FakeReport:
            def __init__(self, ok):
                self.ok = ok

            def render(self):
                return "fake chaos report"

        calls = {}

        def fake_run_chaos(**kwargs):
            calls.update(kwargs)
            return _FakeReport(calls["quick"])

        monkeypatch.setattr("repro.core.chaos.run_chaos", fake_run_chaos)
        assert cli_main(["chaos", "--quick"]) == 0
        assert calls["quick"] is True
        assert "fake chaos report" in capsys.readouterr().out
        assert cli_main(["chaos"]) == 1  # quick=False -> fake failure

    def test_interrupted_sweep_exits_3(self, monkeypatch, capsys):
        def fake_sweep(self, *args, **kwargs):
            raise SweepInterrupted("stopped by operator")

        monkeypatch.setattr(ResilientStudy, "sweep", fake_sweep)
        rc = cli_main(["sweep", "--device", DEVICE, "--inputs", INPUT,
                       "--reps", "1"])
        assert rc == 3
        assert "interrupted: stopped by operator" in \
            capsys.readouterr().err
