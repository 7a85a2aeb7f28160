"""Adapters that put the trace cache and the shared result store behind
one interface, so a single ladder suite (quarantine, degrade, prune)
runs against both stores built on :class:`repro.utils.records.RecordDir`.

Entry ``i`` is one record: a synthetic trace with seed ``i``, or one
published cell on device ``dev<i>``.
"""

from __future__ import annotations

from pathlib import Path

from repro.core.variants import Variant
from repro.gpu.timing import AccessStats
from repro.perf.trace import TRACE_FORMAT, Trace, TraceCache
from repro.service.store import STORE_FORMAT, ResultStore


def make_trace(seed: int = 0) -> Trace:
    stats = AccessStats()
    stats.rounds = 3
    return Trace(algorithm="cc", variant=Variant.BASELINE, seed=seed,
                 staleness_rounds=-1, graph_fp=f"graph{seed}",
                 plan_fp="plan", stats=stats, output_fp="out", output=None)


def make_records(device: str = "titanv") -> list[dict]:
    return [{"kind": "result", "algorithm": "cc", "input": "internet",
             "device": device, "variant": variant,
             "runtimes_ms": [1.5]} for variant in ("baseline",
                                                   "race_free")]


class TraceLadder:
    store = "trace"
    prefix = "trace"
    pattern = "trace-*.json"
    fmt = TRACE_FORMAT
    #: a one-character edit inside a string value (CRC goes stale)
    flip = ('"output_fp": "out"', '"output_fp": "oot"')

    def __init__(self, disk_dir: Path) -> None:
        self.disk_dir = disk_dir
        self.obj = TraceCache(disk_dir=disk_dir)

    def reopen(self) -> "TraceLadder":
        """A cold reader over the same directory."""
        return type(self)(self.disk_dir)

    def put(self, i: int) -> None:
        self.obj.store(make_trace(i))

    def get(self, i: int):
        return self.obj.lookup(make_trace(i).key())

    def expected(self, i: int):
        return make_trace(i)

    def memory_entries(self) -> int:
        return len(self.obj)

    def usage(self) -> tuple[int, int]:
        return self.obj.disk_usage()

    def prune(self, max_bytes: int) -> tuple[int, int]:
        return self.obj.prune(max_bytes)


class StoreLadder(TraceLadder):
    store = "result"
    prefix = "cell"
    pattern = "cell-*.json"
    fmt = STORE_FORMAT
    flip = ('"variant": "baseline"', '"variant": "baselinf"')

    def __init__(self, disk_dir: Path) -> None:
        self.disk_dir = disk_dir
        self.obj = ResultStore(disk_dir, reps=1, scale=1.0)

    def put(self, i: int) -> None:
        self.obj.publish("cc", "internet", f"dev{i}",
                         make_records(f"dev{i}"))

    def get(self, i: int):
        return self.obj.lookup("cc", "internet", f"dev{i}")

    def expected(self, i: int):
        return make_records(f"dev{i}")

    def memory_entries(self) -> int:
        return len(self.obj._mem)

    def usage(self) -> tuple[int, int]:
        return self.obj.disk.usage()

    def prune(self, max_bytes: int) -> tuple[int, int]:
        return self.obj.disk.prune(max_bytes)
