"""The span-granular vector-clock engine against the per-byte engine it
replaced (``tests/reference_vclock.py``).

Both engines must make the identical ``on_report`` call sequence on any
event stream: same partners, same bytes, same order, same predicted
flags.  Streams mix access widths per array (whole words, sub-word
writes into words, 8-byte atomics over 4-byte pieces), several launches,
blocks and barrier epochs, and every memory order and scope, analysed
under the relaxed default and under ``ptx:acq_rel``.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.check.vclock as vclock
from repro.check.vclock import VectorClockEngine
from repro.core.variants import Variant
from repro.gpu.accesses import AccessKind, MemoryOrder, MemSpan, Scope
from repro.gpu.racecheck import RaceDetector
from repro.gpu.simt import AccessEvent
from repro.patterns import PATTERNS
from tests.reference_vclock import ByteVectorClockEngine
from tests.test_vclock import _pattern_events

MODELS = [None, "ptx:acq_rel"]

#: per-array access shapes: ``word`` keeps every access on one 4-byte
#: grid (the array stays segment-granular), ``pieces`` adds 8-byte
#: atomics over the 4-byte pieces, ``subword`` adds 1- and 2-byte
#: accesses inside the words (and an empty span, which touches no byte)
SHAPES = {
    "word": [(4, 0), (4, 4), (4, 8), (4, 12)],
    "pieces": [(4, 0), (4, 4), (4, 8), (4, 12), (8, 0), (8, 8)],
    "subword": [(4, 0), (4, 4), (1, 0), (1, 1), (1, 3), (2, 2), (2, 4),
                (0, 4)],
}


@st.composite
def event_streams(draw):
    shapes = {array: draw(st.sampled_from(sorted(SHAPES)))
              for array in ("a", "b")}
    n = draw(st.integers(1, 50))
    launch = 0
    epochs: dict[int, int] = {}
    events: list[AccessEvent] = []
    for _ in range(n):
        action = draw(st.sampled_from(["access"] * 8
                                      + ["barrier", "launch"]))
        if action == "launch":
            launch += 1
            epochs = {}
            continue
        if action == "barrier":
            block = draw(st.integers(0, 1))
            epochs[block] = epochs.get(block, 0) + 1
            continue
        tid = draw(st.integers(0, 5))
        block = tid // 3
        array = draw(st.sampled_from(["a", "b"]))
        width, start = draw(st.sampled_from(SHAPES[shapes[array]]))
        direction = draw(st.sampled_from(["read", "write", "rmw"]))
        events.append(AccessEvent(
            step=len(events) + 1, launch=launch, tid=tid, block=block,
            epoch=epochs.get(block, 0),
            span=MemSpan(array, start, width),
            is_read=direction != "write",
            is_write=direction != "read",
            access=draw(st.sampled_from(list(AccessKind))),
            value=0,
            order=draw(st.sampled_from(list(MemoryOrder))),
            scope=draw(st.sampled_from(list(Scope)))))
    return events


def calls(engine_cls, events, *, history=4, model=None, stop_after=None):
    """The engine's ``on_report`` calls, in order."""
    seen = []

    def on_report(first, second, byte, predicted):
        seen.append((first, second, byte, predicted))
        return stop_after is None or len(seen) < stop_after

    engine_cls(on_report, history=history,
               memory_model=model).analyze(events)
    return seen


def reports(events, monkeypatch, engine_cls, **kwargs):
    with monkeypatch.context() as m:
        m.setattr(vclock, "VectorClockEngine", engine_cls)
        return RaceDetector(**kwargs).analyze(events)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(events=event_streams(), model=st.sampled_from(MODELS),
       history=st.sampled_from([0, 1, 4]))
def test_same_report_sequence(events, model, history):
    assert (calls(VectorClockEngine, events, history=history, model=model)
            == calls(ByteVectorClockEngine, events, history=history,
                     model=model))


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(events=event_streams(), model=st.sampled_from(MODELS),
       stop_after=st.integers(1, 6))
def test_same_sequence_up_to_an_early_stop(events, model, stop_after):
    assert (calls(VectorClockEngine, events, model=model,
                  stop_after=stop_after)
            == calls(ByteVectorClockEngine, events, model=model,
                     stop_after=stop_after))


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(events=event_streams(), model=st.sampled_from(MODELS),
       dedupe=st.booleans(), max_reports=st.sampled_from([1, 2, 5, 1000]),
       predictive=st.booleans())
def test_same_race_detector_output(monkeypatch, events, model, dedupe,
                                   max_reports, predictive):
    kwargs = dict(memory_model=model, dedupe_by_location=dedupe,
                  max_reports=max_reports, predictive=predictive)
    assert (reports(events, monkeypatch, VectorClockEngine, **kwargs)
            == reports(events, monkeypatch, ByteVectorClockEngine,
                       **kwargs))


def _engine_after(events):
    engine = VectorClockEngine(lambda *report: True)
    engine.analyze(events)
    return engine


def _write(step, tid, array, start, nbytes, access=AccessKind.PLAIN):
    return AccessEvent(step=step, launch=0, tid=tid, block=0, epoch=0,
                       span=MemSpan(array, start, nbytes), is_read=False,
                       is_write=True, access=access, value=0)


def test_uniform_width_array_keeps_one_segment_per_span():
    engine = _engine_after([_write(1, 0, "x", 0, 4),
                            _write(2, 1, "x", 4, 4),
                            _write(3, 2, "x", 0, 4)])
    assert sorted(engine._shadow) == [("x", 0), ("x", 4)]
    assert not engine._bytewise


def test_wider_atomic_converts_only_its_array():
    engine = _engine_after([_write(1, 0, "x", 0, 4),
                            _write(2, 1, "x", 4, 4),
                            _write(3, 0, "y", 0, 4),
                            _write(4, 2, "x", 0, 8, AccessKind.ATOMIC)])
    assert engine._bytewise == {"x"}
    assert sorted(k for k in engine._shadow if k[0] == "x") == \
        [("x", b) for b in range(8)]
    assert ("y", 0) in engine._shadow and engine._shadow[("y", 0)].width == 4


@pytest.mark.parametrize("name", sorted(PATTERNS))
@pytest.mark.parametrize("variant", list(Variant))
def test_same_report_sequence_on_pattern_traces(name, variant):
    events = _pattern_events(name, variant, seed=0)
    assert (calls(VectorClockEngine, events)
            == calls(ByteVectorClockEngine, events))
