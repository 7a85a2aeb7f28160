"""The cell record codec: ``RunResult``/``CellFailure`` ``to_record`` and
``from_record`` are the only mapping between cells and record dicts, so
result logs, checkpoints, worker messages and the shared store agree on
one shape."""

from __future__ import annotations

import json

from hypothesis import given
from hypothesis import strategies as st

from repro.core.parallel import CellTask, _run_task
from repro.core.resilience import ResilientStudy
from repro.core.study import CellFailure, RunResult, Study
from repro.core.variants import Variant
from repro.gpu.faults import FaultPlan

names = st.text(min_size=1, max_size=12)
floats = st.floats(allow_nan=False, allow_infinity=False)

run_results = st.builds(
    RunResult, algorithm=names, input_name=names, device_key=names,
    variant=st.sampled_from(list(Variant)),
    runtimes_ms=st.lists(floats, min_size=1, max_size=9),
    last_run=st.none())

cell_failures = st.builds(
    CellFailure, algorithm=names, input_name=names, device_key=names,
    variant=st.sampled_from([v.value for v in Variant]),
    reason=st.sampled_from(["livelock", "timeout", "validation", "fault",
                            "error"]),
    message=st.text(max_size=40), attempts=st.integers(1, 5),
    elapsed_s=st.floats(0, 1e6, allow_nan=False))


@given(run_results)
def test_run_result_round_trips(result):
    record = result.to_record()
    assert RunResult.from_record(record) == result
    # and through the JSON text every persisted form goes through
    assert RunResult.from_record(json.loads(json.dumps(record))) == result
    assert list(record) == ["algorithm", "input", "device", "variant",
                            "runtimes_ms"]


@given(cell_failures)
def test_cell_failure_round_trips(failure):
    record = failure.to_record()
    assert CellFailure.from_record(record) == failure
    assert CellFailure.from_record(json.loads(json.dumps(record))) == failure
    assert list(record) == ["algorithm", "input", "device", "variant",
                            "reason", "message", "attempts", "elapsed_s"]


def _worker_records(study: Study) -> list[dict]:
    task = CellTask("cc", "internet", "titanv",
                    tuple(v.value for v in Variant))
    return [r for r in _run_task(study, task) if r["kind"] != "telemetry"]


def _checkpointed(records: list[dict], path) -> list[dict]:
    ledger = ResilientStudy(reps=1, checkpoint=path)
    for record in records:
        ledger._merge_parallel_record(record)
    assert ledger.cells_executed == len(records)
    payload = json.loads(path.read_text())
    return payload["results"] + payload["failures"]


def test_worker_record_is_checkpoint_record_plus_kind(tmp_path):
    ok = _worker_records(Study(reps=1))
    failed = _worker_records(
        Study(reps=1, faults=FaultPlan.parse("abort=1.0", seed=1)))
    assert [r["kind"] for r in ok + failed] == [
        "result", "result", "failure", "failure"]
    for records in (ok, failed):
        on_disk = _checkpointed(records, tmp_path / "c.json")
        # same keys, same order, the wire's "kind" leading
        assert [list({"kind": w["kind"], **d}.items())
                for w, d in zip(records, on_disk)] == \
            [list(w.items()) for w in records]


def test_forget_failures_rearms_only_the_named_cells():
    study = Study(reps=1, faults=FaultPlan.parse("abort=1.0", seed=1))
    for variant in Variant:
        assert isinstance(study.run_cell("cc", "internet", "titanv",
                                         variant), CellFailure)
    study.forget_failures("cc", "internet", "titanv", [Variant.BASELINE])
    assert list(study._failures) == [
        ("cc", "internet", "titanv", Variant.RACE_FREE)]
