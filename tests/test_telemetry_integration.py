"""Integration tests for telemetry across the simulation stack.

The acceptance properties of the subsystem:

* telemetry off (the default) leaves study results, ``save_results``
  JSON, and resilient checkpoints byte-identical;
* the merged registry of a parallel (``jobs=N``) sweep equals the
  serial registry on every sim-scope family;
* the engine's L1 hit-rate gauges mechanically reproduce the paper's
  Section VI.A explanation (baseline CC has the higher L1 hit rate).
"""

from __future__ import annotations

import json

import pytest

from repro import ResilientStudy, Study, Variant, telemetry
from repro.gpu.faults import FaultPlan
from repro.telemetry.metrics import SCOPE_SIM, get_registry

INPUTS = ["internet"]
ALGOS = ["cc", "mis"]


@pytest.fixture(autouse=True)
def _restore_telemetry():
    yield
    telemetry.disable()


def _sweep(tmp_path, *, jobs: int, name: str,
           telemetry_on: bool) -> tuple[dict, bytes]:
    """One small resilient sweep; returns (sim snapshot, results bytes)."""
    out = tmp_path / f"{name}.json"
    if telemetry_on:
        with telemetry.session() as (registry, _spans):
            study = ResilientStudy(reps=2, trace_cache=False, jobs=jobs)
            study.sweep("titanv", ALGOS, INPUTS)
            study.save_results(out)
            snap = registry.snapshot(scope=SCOPE_SIM)
    else:
        study = ResilientStudy(reps=2, trace_cache=False, jobs=jobs)
        study.sweep("titanv", ALGOS, INPUTS)
        study.save_results(out)
        snap = {}
    return snap, out.read_bytes()


# ----------------------------------------------------------------------
# Telemetry off: bit-identical outputs
# ----------------------------------------------------------------------
def test_off_and_on_save_results_identical(tmp_path):
    _, off = _sweep(tmp_path, jobs=1, name="off", telemetry_on=False)
    _, on = _sweep(tmp_path, jobs=1, name="on", telemetry_on=True)
    assert off == on


def test_off_and_on_checkpoints_identical(tmp_path):
    # no fault plan: failure records carry wall-clock elapsed_s, which
    # differs between any two runs — the telemetry-off/on comparison
    # needs the deterministic (results-only) checkpoint payload
    def checkpoint(name: str, enabled: bool) -> bytes:
        path = tmp_path / f"{name}.ckpt"

        def run() -> None:
            study = ResilientStudy(reps=2, trace_cache=False,
                                   checkpoint=path, retries=1)
            study.sweep("titanv", ["cc"], INPUTS)

        if enabled:
            with telemetry.session():
                run()
        else:
            run()
        return path.read_bytes()

    assert checkpoint("off", False) == checkpoint("on", True)


# ----------------------------------------------------------------------
# Parallel == serial on sim scope
# ----------------------------------------------------------------------
def test_parallel_sim_scope_registry_equals_serial(tmp_path):
    serial_snap, serial_bytes = _sweep(tmp_path, jobs=1, name="serial",
                                       telemetry_on=True)
    par_snap, par_bytes = _sweep(tmp_path, jobs=2, name="parallel",
                                 telemetry_on=True)
    assert serial_bytes == par_bytes
    assert json.dumps(serial_snap, sort_keys=True) == \
        json.dumps(par_snap, sort_keys=True)
    # and the comparison is not vacuous
    names = [f["name"] for f in serial_snap["families"]]
    assert "repro_accesses_total" in names
    assert "repro_l1_hit_rate" in names
    assert "repro_cells_total" in names


def test_plain_study_parallel_sim_scope_equals_serial(tmp_path):
    def run(jobs: int) -> dict:
        with telemetry.session() as (registry, _spans):
            study = Study(reps=2, trace_cache=False, jobs=jobs)
            study.speedup_table("titanv", ALGOS, INPUTS)
            return registry.snapshot(scope=SCOPE_SIM)

    assert json.dumps(run(1), sort_keys=True) == \
        json.dumps(run(2), sort_keys=True)


def test_parallel_worker_spans_are_attributed():
    with telemetry.session() as (_registry, spans):
        study = Study(reps=1, trace_cache=False, jobs=2)
        study.speedup_table("titanv", ["cc"], INPUTS)
        shipped = [s for s in spans.finished if "worker" in s.attrs]
        assert shipped, "worker spans should be merged with attribution"
        assert any(s.name == "sweep.cell" for s in shipped)


# ----------------------------------------------------------------------
# Section VI.A: the L1 hit-rate explanation
# ----------------------------------------------------------------------
def test_cc_baseline_l1_hit_rate_exceeds_race_free():
    with telemetry.session() as (registry, _spans):
        study = Study(reps=1, trace_cache=False)
        study.speedup("cc", "internet", "titanv")
        gauge = registry.get("repro_l1_hit_rate")
        base = gauge.value("cc", "internet", "titanv", "baseline")
        free = gauge.value("cc", "internet", "titanv", "racefree")
    assert base > free > 0


def test_atomic_bypass_counts_rise_in_race_free_cc():
    with telemetry.session() as (registry, _spans):
        study = Study(reps=1, trace_cache=False)
        study.speedup("cc", "internet", "titanv")
        fam = registry.get("repro_atomic_l1_bypass_total")
        base = fam.value("cc", "internet", "titanv", "baseline")
        free = fam.value("cc", "internet", "titanv", "racefree")
    assert free > base


# ----------------------------------------------------------------------
# Engine / resilience / trace-cache instrumentation details
# ----------------------------------------------------------------------
def test_record_replay_source_counter(tmp_path):
    # replay happens when a second study prices the same configuration
    # from the shared disk layer (each rep has its own seed, so one
    # study's reps all record)
    with telemetry.session() as (registry, _spans):
        first = Study(reps=2, trace_cache=str(tmp_path / "tc"))
        first.run("cc", "internet", "titanv", Variant.BASELINE)
        second = Study(reps=2, trace_cache=str(tmp_path / "tc"))
        second.run("cc", "internet", "titanv", Variant.BASELINE)
        fam = registry.get("repro_perf_trace_source_total")
        assert fam.value("record") == 2
        assert fam.value("replay") == 2
        events = registry.get("repro_store_events_total")
        assert events.value("trace", "record") == 2
        assert events.value("trace", "disk_hit") == 2
        assert registry.get("repro_store_disk_entries").value("trace") == 2


def test_cells_total_counts_outcomes():
    with telemetry.session() as (registry, _spans):
        study = ResilientStudy(reps=1, trace_cache=False, retries=0,
                               faults=FaultPlan.parse("abort=1.0", seed=1))
        study.sweep("titanv", ["cc"], INPUTS)
        cells = registry.get("repro_cells_total")
        assert cells.value("fault") == 2  # both variants abort
        assert registry.get("repro_cell_attempts_total").value() == 2


def test_cells_total_ok_path():
    with telemetry.session() as (registry, _spans):
        study = ResilientStudy(reps=1, trace_cache=False)
        study.sweep("titanv", ["cc"], INPUTS)
        assert registry.get("repro_cells_total").value("ok") == 2
        # the one cell executor drives run_algorithm directly, so the
        # tree is sweep -> cell -> record
        span_names = {s.name for s in _spans.finished}
        assert {"study.sweep", "sweep.cell", "perf.record"} <= span_names


def test_runs_and_rounds_counters():
    with telemetry.session() as (registry, _spans):
        study = Study(reps=2, trace_cache=False)
        study.run("cc", "internet", "titanv", Variant.BASELINE)
        labels = ("cc", "internet", "titanv", "baseline")
        assert registry.get("repro_perf_runs_total").value(*labels) == 2
        assert registry.get("repro_perf_rounds_total").value(*labels) > 0
        hist = registry.get("repro_runtime_ms").hist(*labels)
        assert hist.count == 2
