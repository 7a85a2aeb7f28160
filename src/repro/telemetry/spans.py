"""Hierarchical spans: wall-clock *and* simulated-clock timing.

A span covers one nested unit of work — study → sweep cell →
record/replay → kernel launch — with a wall-clock duration (what the
process spent) and an optional *simulated* duration (what the modelled
GPU spent, the quantity the paper reports).  The two clocks answer
different questions: "where does the harness spend its time" vs "where
does the simulated hardware spend its time".

Span ids are **stable**: derived from the parent id, the span name, and
a per-(parent, name) sequence number — never from wall time or
randomness — so two runs of the same workload produce the same span
tree with the same ids, and a diff of two telemetry exports lines up
span for span.

Usage::

    from repro.telemetry import span

    with span("sweep.cell", algorithm="cc", input="internet") as sp:
        ...
        sp.set_sim_ms(result.median_ms)

Like the metrics registry, the recorder is disabled by default and the
disabled path is a no-op context manager singleton.
"""

from __future__ import annotations

import hashlib
import time
from typing import Callable

__all__ = [
    "Span",
    "SpanRecorder",
    "NullSpanRecorder",
    "NULL_SPANS",
    "get_spans",
    "enable",
    "disable",
]

ROOT_ID = "root"


class Span:
    """One finished (or in-flight) span."""

    __slots__ = ("span_id", "parent_id", "name", "start_s", "duration_s",
                 "sim_ms", "attrs")

    def __init__(self, span_id: str, parent_id: str | None, name: str,
                 start_s: float) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start_s = start_s
        self.duration_s: float | None = None
        self.sim_ms: float | None = None
        self.attrs: dict[str, object] = {}

    # -- the handle API available inside the ``with`` block -----------
    def set(self, **attrs: object) -> "Span":
        self.attrs.update(attrs)
        return self

    def set_sim_ms(self, sim_ms: float) -> "Span":
        """Attach the simulated-clock duration of this unit of work."""
        self.sim_ms = float(sim_ms)
        return self

    def to_dict(self) -> dict:
        return {
            "id": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "start_s": self.start_s,
            "duration_s": self.duration_s,
            "sim_ms": self.sim_ms,
            "attrs": dict(self.attrs),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Span":
        sp = cls(data["id"], data.get("parent"), data["name"],
                 float(data.get("start_s", 0.0)))
        sp.duration_s = data.get("duration_s")
        sp.sim_ms = data.get("sim_ms")
        sp.attrs = dict(data.get("attrs", {}))
        return sp


def stable_span_id(parent_id: str | None, name: str, seq: int) -> str:
    """Deterministic span id from position in the call tree."""
    raw = f"{parent_id or ROOT_ID}/{name}#{seq}".encode()
    return hashlib.blake2s(raw, digest_size=6).hexdigest()


class _SpanContext:
    """Context manager wrapping one span's lifetime."""

    __slots__ = ("_recorder", "_span")

    def __init__(self, recorder: "SpanRecorder", span: Span) -> None:
        self._recorder = recorder
        self._span = span

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, *exc_info) -> None:
        self._recorder._finish(self._span)


class SpanRecorder:
    """Records a tree of spans with stable ids.

    ``clock`` is injectable (monotonic seconds) so exporter golden
    tests can produce byte-stable output.
    """

    enabled = True

    def __init__(self, clock: Callable[[], float] = time.perf_counter
                 ) -> None:
        self.clock = clock
        self.finished: list[Span] = []
        self._stack: list[Span] = []
        self._seq: dict[tuple[str, str], int] = {}

    # ------------------------------------------------------------------
    def span(self, name: str, **attrs: object) -> _SpanContext:
        parent = self._stack[-1].span_id if self._stack else None
        seq_key = (parent or ROOT_ID, name)
        seq = self._seq.get(seq_key, 0)
        self._seq[seq_key] = seq + 1
        sp = Span(stable_span_id(parent, name, seq), parent, name,
                  self.clock())
        if attrs:
            sp.attrs.update(attrs)
        self._stack.append(sp)
        return _SpanContext(self, sp)

    def _finish(self, sp: Span) -> None:
        sp.duration_s = self.clock() - sp.start_s
        # unwind to (and including) sp — robust to a mid-span exception
        # leaving deeper entries on the stack
        while self._stack:
            top = self._stack.pop()
            if top is sp:
                break
        self.finished.append(sp)

    @property
    def current(self) -> Span | None:
        return self._stack[-1] if self._stack else None

    def clear(self) -> None:
        self.finished.clear()
        self._stack.clear()
        self._seq.clear()

    # ------------------------------------------------------------------
    def snapshot(self) -> list[dict]:
        """Finished spans as picklable dicts (finish order)."""
        return [sp.to_dict() for sp in self.finished]

    def merge(self, spans: list[dict], worker: str | None = None) -> None:
        """Append shipped spans (e.g. from a worker process).  ``worker``
        tags each appended span for attribution."""
        for data in spans:
            sp = Span.from_dict(data)
            if worker is not None:
                sp.attrs.setdefault("worker", worker)
            self.finished.append(sp)


class NullSpanRecorder:
    """Disabled recorder: ``span()`` returns a shared no-op context."""

    enabled = False
    finished: list[Span] = []

    def span(self, name: str, **attrs: object) -> "_NullContext":
        return _NULL_CONTEXT

    @property
    def current(self) -> None:
        return None

    def snapshot(self) -> list[dict]:
        return []

    def merge(self, spans: list[dict], worker: str | None = None) -> None:
        pass

    def clear(self) -> None:
        pass


class _NullSpan:
    __slots__ = ()

    def set(self, **attrs: object) -> "_NullSpan":
        return self

    def set_sim_ms(self, sim_ms: float) -> "_NullSpan":
        return self


class _NullContext:
    __slots__ = ()

    def __enter__(self) -> _NullSpan:
        return _NULL_SPAN

    def __exit__(self, *exc_info) -> None:
        pass


_NULL_SPAN = _NullSpan()
_NULL_CONTEXT = _NullContext()

NULL_SPANS = NullSpanRecorder()

_SPANS: SpanRecorder | NullSpanRecorder = NULL_SPANS


def get_spans() -> SpanRecorder | NullSpanRecorder:
    """The active span recorder (null recorder when telemetry is off)."""
    return _SPANS


def enable(recorder: SpanRecorder | None = None) -> SpanRecorder:
    global _SPANS
    _SPANS = recorder if recorder is not None else SpanRecorder()
    return _SPANS


def disable() -> None:
    global _SPANS
    _SPANS = NULL_SPANS
