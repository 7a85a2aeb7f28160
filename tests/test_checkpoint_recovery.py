"""Tests for self-healing checkpoints (repro.core.resilience, format 3)
and graceful sweep interruption.

Covers the byte identity of the incrementally encoded checkpoint with
the reference ``json.dumps`` encoding, the ``.prev`` generation
rotation (including verify-before-rotate), the fallback ladder of
``load_checkpoint`` under torn / bit-flipped / wrong-format current
generations, record-level salvage, the all-or-nothing ``load_results``
commit, autosave tolerance of a full disk, the double-crash resume
drill, and SIGINT-to-``SweepInterrupted`` conversion with a consistent
final checkpoint.
"""

from __future__ import annotations

import json
import os
import shutil
import signal

import pytest

from repro.core import hostfaults
from repro.core.hostfaults import HostFaultPlan
from repro.core.resilience import (
    CHECKPOINT_FORMAT,
    CellFailure,
    ResilientStudy,
    checkpoint_crc,
)
from repro.core.study import RunResult
from repro.core.variants import Variant
from repro.errors import StudyError, SweepInterrupted

DEVICE = "titanv"
INPUT = "internet"
ALGOS = ["cc", "mis"]


@pytest.fixture(scope="module")
def seeded_checkpoint(tmp_path_factory):
    """A completed single-algorithm checkpointed sweep: the current
    generation (2 results) plus its rotated ``.prev`` (1 result)."""
    root = tmp_path_factory.mktemp("ckpt-seed")
    ckpt = root / "sweep.ckpt"
    study = ResilientStudy(reps=1, checkpoint=ckpt)
    result = study.sweep(DEVICE, ["cc"], [INPUT])
    assert not result.failures
    return ckpt


@pytest.fixture(scope="module")
def clean_results_bytes(tmp_path_factory):
    """``save_results`` bytes of an uninjected full mini-sweep — the
    truth every recovery path must reproduce exactly."""
    root = tmp_path_factory.mktemp("clean")
    study = ResilientStudy(reps=1)
    result = study.sweep(DEVICE, ALGOS, [INPUT])
    assert not result.failures
    out = root / "results.json"
    study.save_results(out)
    return out.read_bytes()


def _copied(src, tmp_path):
    """Copy the seeded generation pair into a per-test directory."""
    dst = tmp_path / src.name
    shutil.copy(src, dst)
    prev = src.with_name(src.name + ".prev")
    if prev.exists():
        shutil.copy(prev, dst.with_name(dst.name + ".prev"))
    return dst


def _truncate(path):
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])


def _reference_payload(study):
    """The checkpoint payload as the whole-document encoder built it."""
    payload = {
        "format": CHECKPOINT_FORMAT,
        "reps": study.reps,
        "scale": study.scale,
        "results": [
            {"algorithm": r.algorithm, "input": r.input_name,
             "device": r.device_key, "variant": r.variant.value,
             "runtimes_ms": r.runtimes_ms}
            for r in study._results.values()],
        "failures": [
            {"algorithm": f.algorithm, "input": f.input_name,
             "device": f.device_key, "variant": f.variant,
             "reason": f.reason, "message": f.message,
             "attempts": f.attempts, "elapsed_s": f.elapsed_s}
            for f in study._failures.values()],
    }
    payload["crc"] = checkpoint_crc(payload)
    return payload


def _assert_reference_bytes(study, ckpt):
    """The saved file equals ``json.dumps(payload, indent=1)``."""
    payload = _reference_payload(study)
    text = ckpt.read_text()
    assert text == json.dumps(payload, indent=1)
    assert json.loads(text)["crc"] == checkpoint_crc(payload)


def _add_result(study, algorithm, variant, runtimes):
    key = (algorithm, INPUT, DEVICE, variant)
    study._results[key] = RunResult(algorithm, INPUT, DEVICE, variant,
                                    runtimes, last_run=None)


def _add_failure(study, algorithm, variant, message):
    key = (algorithm, INPUT, DEVICE, variant)
    study._failures[key] = CellFailure(
        algorithm=algorithm, input_name=INPUT, device_key=DEVICE,
        variant=variant.value, reason="validation", message=message,
        attempts=2, elapsed_s=0.125)


class TestIncrementalEncoding:
    """Checkpoints are assembled from per-record texts encoded once;
    every generation must still be the reference encoding byte for
    byte, whatever happened to the memo between saves."""

    def test_results_only(self, seeded_checkpoint, tmp_path):
        ckpt = _copied(seeded_checkpoint, tmp_path)
        study = ResilientStudy(reps=1, checkpoint=ckpt)
        assert study.load_checkpoint() == (2, 0)
        _assert_reference_bytes(study, ckpt)  # written by a real sweep
        _add_result(study, "mis", Variant.BASELINE, [1.5, 0.1 + 0.2])
        study.save_checkpoint()
        _assert_reference_bytes(study, ckpt)

    def test_failures_with_escaped_messages(self, tmp_path):
        ckpt = tmp_path / "sweep.ckpt"
        study = ResilientStudy(reps=2, scale=0.25, checkpoint=ckpt)
        _add_result(study, "cc", Variant.BASELINE, [3.25, 1e-7])
        study.save_checkpoint()
        _add_failure(study, "cc", Variant.RACE_FREE,
                     'said "stop"\nthen\ttore \\ a word: ñ, ü, 競合')
        _add_failure(study, "mis", Variant.BASELINE, "")
        study.save_checkpoint()
        _assert_reference_bytes(study, ckpt)

    def test_after_failure_pop(self, tmp_path):
        ckpt = tmp_path / "sweep.ckpt"
        study = ResilientStudy(reps=1, checkpoint=ckpt)
        _add_result(study, "cc", Variant.BASELINE, [2.0])
        _add_failure(study, "mis", Variant.BASELINE, "first")
        _add_failure(study, "mis", Variant.RACE_FREE, "second")
        study.save_checkpoint()
        # the service's retry path re-arms a failed cell this way
        study._failures.pop(("mis", INPUT, DEVICE, Variant.BASELINE))
        study.save_checkpoint()
        _assert_reference_bytes(study, ckpt)
        _add_failure(study, "mis", Variant.BASELINE, "retried")
        study.save_checkpoint()
        _assert_reference_bytes(study, ckpt)

    def test_after_load_replaces_a_memo_entry(self, tmp_path):
        ckpt = tmp_path / "sweep.ckpt"
        study = ResilientStudy(reps=1, checkpoint=ckpt)
        _add_result(study, "cc", Variant.BASELINE, [2.0])
        _add_failure(study, "mis", Variant.BASELINE, "before")
        study.save_checkpoint()
        payload = json.loads(ckpt.read_text())
        payload["results"][0]["runtimes_ms"] = [4.0]
        payload["failures"][0]["message"] = "after"
        payload["crc"] = checkpoint_crc(payload)
        other = tmp_path / "other.ckpt"
        other.write_text(json.dumps(payload))
        study.load_checkpoint(other)
        study.save_checkpoint()
        _assert_reference_bytes(study, ckpt)
        saved = json.loads(ckpt.read_text())
        assert saved["results"][0]["runtimes_ms"] == [4.0]
        assert saved["failures"][0]["message"] == "after"

    def test_empty_results_and_failures(self, tmp_path):
        ckpt = tmp_path / "sweep.ckpt"
        study = ResilientStudy(reps=1, checkpoint=ckpt)
        study.save_checkpoint()
        _assert_reference_bytes(study, ckpt)
        fresh = ResilientStudy(reps=1, checkpoint=ckpt)
        assert fresh.load_checkpoint() == (0, 0)


class TestGenerationRotation:
    def test_prev_generation_exists_and_verifies(self, seeded_checkpoint):
        prev = seeded_checkpoint.with_name(
            seeded_checkpoint.name + ".prev")
        assert prev.exists()
        current = json.loads(seeded_checkpoint.read_text())
        older = json.loads(prev.read_text())
        assert current["format"] == CHECKPOINT_FORMAT
        assert current["crc"] == checkpoint_crc(current)
        assert older["crc"] == checkpoint_crc(older)
        # the rotation lags the current file by exactly one cell
        assert len(older["results"]) == len(current["results"]) - 1

    def test_corrupt_current_is_never_rotated_over_a_good_prev(
            self, seeded_checkpoint, tmp_path):
        ckpt = _copied(seeded_checkpoint, tmp_path)
        prev = ckpt.with_name(ckpt.name + ".prev")
        good_prev = prev.read_bytes()
        _truncate(ckpt)

        study = ResilientStudy(reps=1, checkpoint=ckpt)
        study.load_checkpoint()          # falls back to .prev
        study.save_checkpoint()          # must not rotate the torn file
        assert prev.read_bytes() == good_prev
        fresh = ResilientStudy(reps=1, checkpoint=ckpt)
        assert fresh.load_checkpoint() == (1, 0)
        assert fresh.checkpoint_fallbacks == 0

    def test_own_clean_generations_rotate_without_a_reparse(
            self, tmp_path, monkeypatch):
        ckpt = tmp_path / "sweep.ckpt"
        study = ResilientStudy(reps=1, checkpoint=ckpt)
        reads = []
        real_read = study._read_generation
        monkeypatch.setattr(study, "_read_generation",
                            lambda path: reads.append(path)
                            or real_read(path))
        for i, variant in enumerate(Variant):
            _add_result(study, "cc", variant, [float(i)])
            study.save_checkpoint()
        prev = ckpt.with_name(ckpt.name + ".prev")
        assert json.loads(prev.read_text())["results"][0]["runtimes_ms"] \
            == [0.0]
        assert reads == []
        # a foreign writer's file gets the full check before rotating
        ckpt.write_text(ckpt.read_text() + " ")
        study.save_checkpoint()
        assert reads == [ckpt]

    @pytest.mark.parametrize("fault", ["torn", "bitflip"])
    def test_mangled_write_is_never_rotated_over_a_good_prev(
            self, tmp_path, fault):
        ckpt = tmp_path / "sweep.ckpt"
        prev = ckpt.with_name(ckpt.name + ".prev")
        study = ResilientStudy(reps=1, checkpoint=ckpt)
        _add_result(study, "cc", Variant.BASELINE, [1.0])
        study.save_checkpoint()
        _add_result(study, "cc", Variant.RACE_FREE, [2.0])
        study.save_checkpoint()
        good = ckpt.read_bytes()
        plan = HostFaultPlan.parse(f"{fault}=1.0", targets=("*.ckpt",))
        _add_result(study, "mis", Variant.BASELINE, [3.0])
        with hostfaults.installed(plan):
            study.save_checkpoint()  # rotates ``good``, writes garbage
        assert prev.read_bytes() == good
        assert ckpt.read_bytes() != good
        _add_result(study, "mis", Variant.RACE_FREE, [4.0])
        study.save_checkpoint()  # the mangled file must not rotate
        assert prev.read_bytes() == good
        _assert_reference_bytes(study, ckpt)


class TestFallbackLadder:
    def test_clean_load_uses_the_current_generation(
            self, seeded_checkpoint, tmp_path):
        ckpt = _copied(seeded_checkpoint, tmp_path)
        study = ResilientStudy(reps=1, checkpoint=ckpt)
        assert study.load_checkpoint() == (2, 0)
        assert study.checkpoint_fallbacks == 0

    def test_truncated_current_falls_back_to_prev(
            self, seeded_checkpoint, tmp_path):
        ckpt = _copied(seeded_checkpoint, tmp_path)
        _truncate(ckpt)
        study = ResilientStudy(reps=1, checkpoint=ckpt)
        assert study.load_checkpoint() == (1, 0)
        assert study.checkpoint_fallbacks == 1

    def test_bitflipped_current_fails_checksum_and_falls_back(
            self, seeded_checkpoint, tmp_path):
        ckpt = _copied(seeded_checkpoint, tmp_path)
        text = ckpt.read_text()
        assert '"variant": "baseline"' in text
        ckpt.write_text(text.replace('"variant": "baseline"',
                                     '"variant": "baselinf"', 1))
        study = ResilientStudy(reps=1, checkpoint=ckpt)
        assert study.load_checkpoint() == (1, 0)
        assert study.checkpoint_fallbacks == 1

    def test_unknown_format_falls_back(self, seeded_checkpoint, tmp_path):
        ckpt = _copied(seeded_checkpoint, tmp_path)
        payload = json.loads(ckpt.read_text())
        payload["format"] = 99
        ckpt.write_text(json.dumps(payload))
        study = ResilientStudy(reps=1, checkpoint=ckpt)
        assert study.load_checkpoint() == (1, 0)
        assert study.checkpoint_fallbacks == 1

    def test_format_2_without_crc_still_loads(
            self, seeded_checkpoint, tmp_path):
        ckpt = _copied(seeded_checkpoint, tmp_path)
        payload = json.loads(ckpt.read_text())
        payload["format"] = 2
        del payload["crc"]
        ckpt.write_text(json.dumps(payload))
        study = ResilientStudy(reps=1, checkpoint=ckpt)
        assert study.load_checkpoint() == (2, 0)
        assert study.checkpoint_fallbacks == 0

    def test_both_generations_damaged_raises(
            self, seeded_checkpoint, tmp_path):
        ckpt = _copied(seeded_checkpoint, tmp_path)
        _truncate(ckpt)
        _truncate(ckpt.with_name(ckpt.name + ".prev"))
        study = ResilientStudy(reps=1, checkpoint=ckpt)
        with pytest.raises(StudyError, match="corrupt or partial"):
            study.load_checkpoint()

    def test_corrupt_current_without_prev_raises(
            self, seeded_checkpoint, tmp_path):
        ckpt = tmp_path / seeded_checkpoint.name
        shutil.copy(seeded_checkpoint, ckpt)  # no .prev copied
        _truncate(ckpt)
        study = ResilientStudy(reps=1, checkpoint=ckpt)
        with pytest.raises(StudyError, match="corrupt or partial"):
            study.load_checkpoint()

    def test_reps_mismatch_surfaces_instead_of_falling_back(
            self, seeded_checkpoint, tmp_path):
        ckpt = _copied(seeded_checkpoint, tmp_path)
        study = ResilientStudy(reps=2, checkpoint=ckpt)
        with pytest.raises(StudyError, match="different reps/scale"):
            study.load_checkpoint()
        assert study.checkpoint_fallbacks == 0


class TestSalvage:
    def test_malformed_records_are_skipped_and_counted(
            self, seeded_checkpoint, tmp_path):
        ckpt = _copied(seeded_checkpoint, tmp_path)
        payload = json.loads(ckpt.read_text())
        payload["results"].append({"algorithm": "cc"})  # no runtimes
        payload["failures"].append({"not": "a failure record"})
        payload["crc"] = checkpoint_crc(payload)
        ckpt.write_text(json.dumps(payload))
        study = ResilientStudy(reps=1, checkpoint=ckpt)
        assert study.load_checkpoint() == (2, 0)
        assert study.checkpoint_salvaged == 2
        assert study.checkpoint_fallbacks == 0

    def test_load_results_commit_is_all_or_nothing(self, tmp_path):
        study = ResilientStudy(reps=1)
        good = {"algorithm": "cc", "input": INPUT, "device": DEVICE,
                "variant": "baseline", "runtimes_ms": [1.0]}
        out = tmp_path / "results.json"
        out.write_text(json.dumps({
            "reps": 1, "scale": 1.0,
            "results": [good, {"algorithm": "cc"}]}))
        with pytest.raises(StudyError, match="malformed record"):
            study.load_results(out)
        # the parseable record before the malformed one was NOT kept
        assert study._results == {}


class TestAutosaveUnderDiskFailure:
    def test_full_disk_does_not_kill_the_sweep(self, tmp_path):
        ckpt = tmp_path / "sweep.ckpt"
        plan = HostFaultPlan.parse("enospc=1.0", targets=("*.ckpt",))
        study = ResilientStudy(reps=1, checkpoint=ckpt)
        with hostfaults.installed(plan):
            result = study.sweep(DEVICE, ["cc"], [INPUT])
        assert not result.failures
        assert result.coverage[0] == result.coverage[1]
        assert study.checkpoint_write_errors == 2  # one per cell
        assert not ckpt.exists()
        # the disk coming back makes the next autosave stick
        study._autosave()
        assert ckpt.exists()


class TestCrashResumeDrills:
    def test_double_crash_resume_reaches_identical_results(
            self, tmp_path, clean_results_bytes):
        ckpt = tmp_path / "sweep.ckpt"
        first = ResilientStudy(reps=1, checkpoint=ckpt)
        first.sweep(DEVICE, ["cc"], [INPUT])
        _truncate(ckpt)  # crash #1 tore the current generation

        second = ResilientStudy(reps=1, checkpoint=ckpt)
        second.load_checkpoint()
        assert second.checkpoint_fallbacks == 1
        second.sweep(DEVICE, ALGOS, [INPUT])
        _truncate(ckpt)  # crash #2

        third = ResilientStudy(reps=1, checkpoint=ckpt)
        n_res, n_fail = third.load_checkpoint()
        assert third.checkpoint_fallbacks == 1 and n_fail == 0
        result = third.sweep(DEVICE, ALGOS, [INPUT])
        assert not result.failures
        # only the cell the rotation lagged behind on was re-executed
        assert third.cells_executed == 4 - n_res
        out = tmp_path / "results.json"
        third.save_results(out)
        assert out.read_bytes() == clean_results_bytes


class _InterruptAfter(ResilientStudy):
    """Sends itself SIGINT after the N-th completed cell — a
    deterministic stand-in for an operator's Ctrl-C mid-sweep."""

    interrupt_after = 2

    def run_cell(self, *args, **kwargs):
        out = super().run_cell(*args, **kwargs)
        self._seen = getattr(self, "_seen", 0) + 1
        if self._seen == self.interrupt_after:
            os.kill(os.getpid(), signal.SIGINT)
        return out


class TestGracefulInterrupt:
    def test_sigint_checkpoints_and_resume_completes(
            self, tmp_path, clean_results_bytes):
        ckpt = tmp_path / "sweep.ckpt"
        before = signal.getsignal(signal.SIGINT)
        study = _InterruptAfter(reps=1, checkpoint=ckpt)
        with pytest.raises(SweepInterrupted, match="--resume"):
            study.sweep(DEVICE, ALGOS, [INPUT])
        # the pre-sweep handler is restored once the sweep unwinds
        assert signal.getsignal(signal.SIGINT) is before

        resumed = ResilientStudy(reps=1, checkpoint=ckpt)
        assert resumed.load_checkpoint() == (2, 0)
        result = resumed.sweep(DEVICE, ALGOS, [INPUT])
        assert not result.failures
        assert resumed.cells_executed == 2  # only the missing cells
        out = tmp_path / "results.json"
        resumed.save_results(out)
        assert out.read_bytes() == clean_results_bytes
