"""Tests for the durable-record layer (repro.utils.records): the shared
decoder's damage causes, invalid-UTF-8 corruption in every persisted
format, and reading files written by the previous serializers.

The quarantine / degrade / prune ladder itself runs per store in
``test_hostfaults`` (``*SelfHealing``) and ``test_trace_replay``
(``*Prune``).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import fields

import pytest

from repro.core.resilience import ResilientStudy
from repro.core.study import RunResult
from repro.core.variants import Variant
from repro.errors import StudyError
from repro.utils.records import Damaged, decode, payload_crc

from .ladders import StoreLadder, TraceLadder, make_records, make_trace


def _encode(payload: dict) -> bytes:
    payload = dict(payload)
    payload["crc"] = payload_crc(payload)
    return json.dumps(payload).encode()


class TestDecode:
    def _decode(self, data: bytes, **kwargs) -> dict:
        kwargs.setdefault("formats", (1,))
        return decode(data, crc=payload_crc, **kwargs)

    def test_valid_record_roundtrips(self):
        data = _encode({"format": 1, "x": [1, 2]})
        assert self._decode(data)["x"] == [1, 2]

    @pytest.mark.parametrize("data,cause", [
        (b'{"format": 1, "x"', "torn"),
        (b'{"format": 1, "x": "\xff"}', "torn"),  # not UTF-8
        (b"[1, 2, 3]", "shape"),
        (b'{"format": 9}', "format"),
        (b'{"x": 1}', "format"),
        (b'{"format": 1, "x": 1}', "checksum"),  # no crc at all
        (b'{"format": 1, "x": 1, "crc": 0}', "checksum"),
    ])
    def test_damage_causes(self, data, cause):
        with pytest.raises(Damaged) as info:
            self._decode(data)
        assert info.value.cause == cause

    def test_shape_predicate(self):
        data = _encode({"format": 1, "x": 1})
        with pytest.raises(Damaged) as info:
            self._decode(data, shape=lambda p: "results" in p)
        assert info.value.cause == "shape"

    def test_unchecked_format_loads_without_crc(self):
        payload = self._decode(b'{"format": 2, "x": 1}', formats=(2, 3),
                               unchecked=(2,))
        assert payload["x"] == 1
        with pytest.raises(Damaged):
            self._decode(b'{"format": 3, "x": 1}', formats=(2, 3),
                         unchecked=(2,))


def _plant_ff(path) -> None:
    """Overwrite one byte inside the first ``"cc"`` with 0xff, which no
    UTF-8 sequence may contain."""
    data = path.read_bytes()
    i = data.index(b'"cc"') + 1
    path.write_bytes(data[:i] + b"\xff" + data[i + 1:])


def test_invalid_utf8_is_torn_in_every_format(tmp_path):
    # trace cache and result store: quarantined, then a plain miss
    for ladder_type in (TraceLadder, StoreLadder):
        disk_dir = tmp_path / ladder_type.store
        ladder_type(disk_dir).put(0)
        _plant_ff(next(disk_dir.glob(ladder_type.pattern)))
        reader = ladder_type(disk_dir)
        assert reader.get(0) is None
        assert reader.obj.quarantined == 1
        assert list(disk_dir.glob("*.corrupt"))

    # checkpoint: the load falls back to the verified .prev generation
    ckpt = tmp_path / "sweep.ckpt"
    study = ResilientStudy(reps=1)
    for variant in (Variant.BASELINE, Variant.RACE_FREE):
        study._results[("cc", "internet", "titanv", variant)] = RunResult(
            "cc", "internet", "titanv", variant, [1.0], last_run=None)
        study.save_checkpoint(ckpt)
    _plant_ff(ckpt)
    fresh = ResilientStudy(reps=1)
    assert fresh.load_checkpoint(ckpt) == (1, 0)
    assert fresh.checkpoint_fallbacks == 1
    # the rotation check skips the damaged generation instead of
    # raising out of an autosave, and the good .prev survives
    writer = ResilientStudy(reps=1, checkpoint=ckpt)
    writer._autosave()
    assert writer.checkpoint_write_errors == 0
    again = ResilientStudy(reps=1)
    again.load_checkpoint(ckpt.with_name(ckpt.name + ".prev"))
    assert len(again._results) == 1

    # a results log has no generations: a clean StudyError, not a
    # UnicodeDecodeError
    log = tmp_path / "results.json"
    study.save_results(log)
    _plant_ff(log)
    with pytest.raises(StudyError, match="corrupt or partial"):
        ResilientStudy(reps=1).load_results(log)


def test_files_from_the_previous_serializers_read_as_hits(tmp_path):
    """Traces were written with ``json.dumps(payload)`` (insertion
    order), store records with ``sort_keys=True``; both must still be
    served, under unchanged file names."""
    trace = make_trace(0)
    payload = {"format": 2, "algorithm": "cc", "variant": "baseline",
               "seed": 0, "staleness_rounds": -1, "graph_fp": "graph0",
               "plan_fp": "plan",
               "stats": {f.name: getattr(trace.stats, f.name)
                         for f in fields(trace.stats)},
               "output_fp": "out"}
    payload["crc"] = payload_crc(payload)
    digest = hashlib.sha256(repr(trace.key()).encode()).hexdigest()[:32]
    traces = tmp_path / "traces"
    traces.mkdir()
    (traces / f"trace-{digest}.json").write_text(json.dumps(payload))
    reader = TraceLadder(traces)
    assert reader.get(0) == make_trace(0)
    assert reader.obj.disk_hits == 1

    store = StoreLadder(tmp_path / "store")
    records = make_records("dev0")
    payload = {"format": 1, "reps": 1, "scale": 1.0, "algorithm": "cc",
               "input": "internet", "device": "dev0", "records": records}
    payload["crc"] = payload_crc(payload)
    digest = store.obj.digest("cc", "internet", "dev0")
    (tmp_path / "store").mkdir()
    (tmp_path / "store" / f"cell-{digest}.json").write_text(
        json.dumps(payload, sort_keys=True))
    assert store.get(0) == records
    assert store.obj.hits == 1
