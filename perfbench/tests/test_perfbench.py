"""Smoke-size tests of the benchmark itself.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository
root.  The workloads are shrunk (a tiny suite scale, two repair
targets) and run one job each, so the whole file takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import run  # noqa: E402
from perfbench.inputs import build_suite  # noqa: E402
from perfbench.tracer import NullTracer, self_times  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SMOKE = {"sweep_cold": {"scale": 0.02}, "sweep_warm": {"scale": 0.02},
         "sweep_parallel": {"scale": 0.02},
         "verify_repair": {"targets": ("twophase", "apsp_shared")}}
SWEEPS = ("sweep_cold", "sweep_warm", "sweep_parallel")


def smoke_run(name, trace, tmp_path, seed=0):
    workdir = tmp_path / f"work-{name}-{int(trace)}"
    workdir.mkdir()
    return run.run_workload(name, seed, 0, trace, workdir,
                            out_dir=tmp_path, **SMOKE[name])


@pytest.fixture(scope="module")
def tmp_module(tmp_path_factory):
    return tmp_path_factory.mktemp("perfbench")


@pytest.fixture(scope="module", params=list(WORKLOADS))
def untraced(request, tmp_module):
    return request.param, smoke_run(request.param, False, tmp_module)


@pytest.fixture(scope="module", params=list(WORKLOADS))
def traced(request, tmp_module):
    return request.param, smoke_run(request.param, True, tmp_module)


def test_seed0_is_the_canonical_suite():
    from repro.graphs.suite import load_suite_graph, suite_names

    names = suite_names(directed=False)
    for graph, name in zip(build_suite(0, 0.02), names, strict=True):
        assert graph.name == name
        assert graph.fingerprint() == \
            load_suite_graph(name, scale=0.02).fingerprint()


def test_other_seeds_keep_names_and_sizes_but_change_graphs():
    base, other = build_suite(0, 0.02), build_suite(3, 0.02)
    assert [g.name for g in base] == [g.name for g in other]
    assert [g.num_vertices for g in base] == \
        [g.num_vertices for g in other]
    changed = sum(a.fingerprint() != b.fingerprint()
                  for a, b in zip(base, other))
    assert changed == len(base) - 1  # all but the seedless grid


def test_end_to_end_metrics_printed_with_units(untraced):
    name, result = untraced
    assert result["correct"], result["lines"]
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == expected
    for metric, unit in expected.items():
        value = result["metrics"][metric]["value"]
        assert value > 0
        assert f"{metric} {value!r} {unit}" in result["lines"]
    assert any(line.startswith("fail_ratio 0.0 ") for line in
               result["lines"])


def test_per_layer_metrics_printed_with_units(traced):
    name, result = traced
    assert result["correct"], result["lines"]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for metric, unit in expected.items():
        value = result["metrics"][metric]["value"]
        assert value >= 0
        assert f"{metric} {value!r} {unit}" in result["lines"]


def test_traced_workloads_exercise_their_layers(traced):
    name, result = traced
    m = {k: v["value"] for k, v in result["metrics"].items()}
    if name in SWEEPS:
        assert m["graphs.builds"] == 17
        assert m["replay.calls"] >= 544
    if name == "sweep_cold":
        assert m["record.calls"] > 0 and m["checkpoint.saves"] == 0
    if name == "sweep_warm":
        assert m["record.calls"] == 0
        assert m["checkpoint.saves"] == 544
        assert m["trace.disk_mb"] > 0
    if name == "sweep_parallel":
        assert m["parallel.tasks"] >= 272
        assert m["parallel.worker_cpu_s"] > 0
        assert m["record.calls"] > 0  # recorded in the workers
    if name == "verify_repair":
        assert m["graphs.builds"] == 0 and m["checkpoint.saves"] == 0
        assert m["check.calls"] > 0 and m["simt.launches"] > 0
        assert m["vclock.events"] > 0 and m["dpor.schedules"] > 0
        assert m["repair.apsp_shared_s"] > 0 and m["repair.cc_s"] == 0
        assert m["litmus_s"] > 0


def test_self_times_are_non_negative_and_cover_the_traced_wall(traced):
    name, result = traced
    spans = result["spans"]
    selfs = self_times(spans)
    assert min(selfs) >= 0
    traced_walls = result["walls"][True]
    roots = [i for i, s in enumerate(spans)
             if s.name == "iteration" and s.proc == "main"]
    assert len(roots) == len(traced_walls) >= 1
    for root, wall in zip(roots, traced_walls):
        run_id = spans[root].run
        covered = sum(own for s, own in zip(spans, selfs)
                      if s.run == run_id and s.proc == "main")
        assert covered == spans[root].duration_ns
        assert abs(covered / 1e9 - wall) < 0.01 * wall + 1e-3


def test_sweep_digests_agree_across_workloads(tmp_path):
    digests = {}
    for name in SWEEPS:
        (tmp_path / name).mkdir()
        workload = WORKLOADS[name](5, tmp_path / name, **SMOKE[name])
        workload.setup(NullTracer())
        workload.iterate(NullTracer())
        digests[name] = workload.digests[0]
        check = workload.final_checks()
        assert check.failed == 0, check.notes
    assert len(set(digests.values())) == 1, digests


def test_wrappers_are_removed_after_a_traced_job(traced):
    import repro.core.study as study
    import repro.perf.engine as engine

    assert not hasattr(study.run_algorithm, "__wrapped__")
    assert not hasattr(engine.record_trace, "__wrapped__")


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep_cold",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_seed0_cold_sweep_matches_the_pin(tmp_path):
    workload = WORKLOADS["sweep_cold"](0, tmp_path)
    assert workload.expected_digest() is not None
    workload.setup(NullTracer())
    workload.iterate(NullTracer())
    check = workload.final_checks()
    assert check.checks == 2 and check.failed == 0, check.notes
