"""In-memory span tracer for the benchmark's traced runs.

Spans are recorded from the benchmark's own files only: around the
calls the benchmark makes itself (:meth:`Tracer.span`) and by wrapping,
for the length of a traced run, the name a caller inside the program
actually binds (:meth:`Tracer.wrap`, e.g. ``repro.core.study.
run_algorithm``).  Nothing under ``src/`` changes.  An untraced run
uses :class:`NullTracer`, which installs no wrappers.

A span keeps its name, start and end (``perf_counter_ns``), its parent
span, the id of the run (one benchmark iteration or set-up) it belongs
to, the process that recorded it, and a dict of counts.  A forked pool
worker inherits the wrappers; its spans go, one JSON line each, to a
``spans-<pid>.jsonl`` file in :attr:`Tracer.worker_dir`, which the
parent folds in with :meth:`Tracer.collect_workers`.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class Span:
    name: str
    start: int
    end: int = 0
    parent: int | None = None      #: index of the parent in its process
    run: str = ""
    proc: str = "main"            #: "main" or "worker-<pid>"
    counts: dict = field(default_factory=dict)

    @property
    def duration_ns(self) -> int:
        return self.end - self.start

    def to_json(self) -> dict:
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "run": self.run, "proc": self.proc,
                "counts": self.counts}


class NullTracer:
    """Tracing off: spans cost a context-manager call, nothing more."""

    @contextlib.contextmanager
    def span(self, name: str, **counts):
        yield {}

    def set_run(self, run: str) -> None:
        pass


class Tracer(NullTracer):
    """Records spans in memory; see the module docstring."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.run = ""
        self.worker_dir: Path | None = None
        self._pid = os.getpid()
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []
        self._worker_file = None

    def set_run(self, run: str) -> None:
        self.run = run

    # ------------------------------------------------------------------
    def _in_worker(self) -> bool:
        """True in a forked child; resets the inherited state once."""
        if os.getpid() == self._pid:
            return False
        if self._worker_file is None:
            self.spans, self._stack = [], []
            self._worker_file = open(  # line-buffered: survives os._exit
                self.worker_dir / f"spans-{os.getpid()}.jsonl", "a",
                buffering=1)
        return True

    @contextlib.contextmanager
    def span(self, name: str, **counts):
        """Time the enclosed block; yields the span's counts dict."""
        worker = self.worker_dir is not None and self._in_worker()
        sp = Span(name, time.perf_counter_ns(),
                  parent=self._stack[-1] if self._stack else None,
                  run=self.run, counts=dict(counts))
        self.spans.append(sp)
        index = len(self.spans) - 1
        self._stack.append(index)
        try:
            yield sp.counts
        finally:
            sp.end = time.perf_counter_ns()
            self._stack.pop()
            if worker:
                sp.proc = f"worker-{os.getpid()}"
                record = sp.to_json()
                record["id"] = index
                self._worker_file.write(json.dumps(record) + "\n")

    def wrap(self, owner, attr: str, name: str, measure=None) -> None:
        """Replace ``owner.attr`` with a spanned wrapper until
        :meth:`unwrap_all`.  ``measure(args, kwargs)`` (optional) runs
        before the call and returns ``done(result, counts)``, which
        fills the span's counts after it."""
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with tracer.span(name) as counts:
                done = measure(args, kwargs) if measure else None
                result = original(*args, **kwargs)
                if done is not None:
                    done(result, counts)
                return result

        setattr(owner, attr, wrapper)
        self._installed.append((owner, attr, original))

    def unwrap_all(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def collect_workers(self) -> None:
        """Fold the spans forked workers wrote into :attr:`spans`.

        A worker's span ids are indices into its own list; they are
        remapped here, and the worker's outermost spans get no parent.
        """
        if self.worker_dir is None:
            return
        for path in sorted(self.worker_dir.glob("spans-*.jsonl")):
            records = [json.loads(line)
                       for line in path.read_text().splitlines() if line]
            remap: dict[int, int] = {}
            for rec in sorted(records, key=lambda r: r["id"]):
                remap[rec["id"]] = len(self.spans)
                self.spans.append(Span(
                    rec["name"], rec["start"], rec["end"],
                    parent=None, run=rec["run"], proc=rec["proc"],
                    counts=rec["counts"]))
            for rec in records:
                if rec["parent"] in remap:
                    self.spans[remap[rec["id"]]].parent = \
                        remap[rec["parent"]]
            path.unlink()

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps([s.to_json() for s in self.spans]))


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the time its direct children cover.

    Children of one parent never overlap (every process is
    single-threaded), so the covered time is their summed duration.
    Times are integer nanoseconds, so the sum of a tree's self times
    equals its root's duration exactly.
    """
    out = [s.duration_ns for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.duration_ns
    return out
