"""Trace record/replay: run the functional execution once, price it
per device.

The recorded access trace of a performance-level run depends on the
device only through ``plain_staleness_rounds`` (the register-caching
visibility constant), and the run-to-run noise term is seeded by
(seed, algorithm, variant) alone.  Everything *else* the device
contributes — cache geometry, atomic penalties, clock — enters only
when the :class:`~repro.gpu.timing.TimingModel` prices the recorded
:class:`~repro.gpu.timing.AccessStats`.  So a sweep over four devices
need not execute the vectorized algorithm four times: devices sharing
a staleness constant replay one cached trace, and pricing a trace costs
microseconds instead of a full numpy execution.

This module holds the cache; the record/replay entry points live in
:mod:`repro.perf.engine` (``record_trace`` / ``replay_trace``), which
remains the single place that runs ``perf_runner``.

Cache key
---------

``(algorithm, graph fingerprint, variant, seed, staleness rounds,
access-plan fingerprint)``.  The graph fingerprint covers structure and
weights, so a rescaled suite input or a different weight seed can never
alias a cached trace; the plan fingerprint covers every access site's
kind/order/width, so editing an algorithm's ``ACCESS_PLAN`` invalidates
its traces (including any persisted by an older build).

Layers
------

* **in-memory** — a plain dict, shared by every run of one
  :class:`~repro.core.study.Study` (and everything else holding the
  cache object).  Retains output arrays by default so ``last_run``
  consumers and validation keep working.
* **on-disk** (optional) — one ``trace-<digest>.json`` record per
  trace under ``disk_dir``, holding the stats and the output
  *fingerprint* but never the output arrays.  This is what lets
  parallel sweep workers and successive bench sessions share
  recordings.  Its integrity ladder (CRC, ``*.corrupt`` quarantine,
  sticky degrade, prune) is :mod:`repro.utils.records`.
"""

from __future__ import annotations

import hashlib
import zlib
from dataclasses import dataclass, fields
from pathlib import Path

from repro.core.variants import Variant
from repro.gpu.timing import AccessStats
from repro.utils.records import RecordDir, count_event

TRACE_FORMAT = 2
"""On-disk trace format version; bump to invalidate persisted traces.
Format 2 adds a CRC32 content checksum (``crc``) over the payload so
bit-flipped or hand-edited files are quarantined instead of trusted."""

ANY_STALENESS = -1
"""Wildcard staleness class for recordings that never consumed the
constant.

Only executions that actually *use* ``staleness_rounds`` (baseline MIS,
whose polling loop reads delayed values) differ between staleness
classes; every other algorithm's trace is identical on all devices.
The recorder tracks consumption, and :func:`~repro.perf.engine
.record_trace` keys unconsuming recordings with this wildcard so one
functional execution serves the whole device table."""


@dataclass
class Trace:
    """One recorded functional execution, ready to be priced."""

    algorithm: str
    variant: Variant
    seed: int
    staleness_rounds: int
    graph_fp: str
    plan_fp: str
    stats: AccessStats
    output_fp: str
    #: output arrays of the recording run; ``None`` when the trace was
    #: re-loaded from disk (outputs are never persisted)
    output: dict | None

    @property
    def rounds(self) -> int:
        return int(self.stats.rounds)

    def key(self) -> tuple:
        return trace_key(self.algorithm, self.graph_fp, self.variant,
                         self.seed, self.staleness_rounds, self.plan_fp)

    def without_output(self) -> "Trace":
        if self.output is None:
            return self
        return Trace(self.algorithm, self.variant, self.seed,
                     self.staleness_rounds, self.graph_fp, self.plan_fp,
                     self.stats, self.output_fp, output=None)


def trace_key(algorithm: str, graph_fp: str, variant: Variant, seed: int,
              staleness_rounds: int, plan_fp: str) -> tuple:
    """The cache key of one functional execution."""
    return (algorithm, graph_fp, variant.value, int(seed),
            int(staleness_rounds), plan_fp)


def plan_fingerprint(plan) -> str:
    """Stable digest of an :class:`~repro.core.transform.AccessPlan`.

    Covers every site's name, kind, width, store/RMW role, sharing, and
    memory order — any change to the access plan changes the
    fingerprint and therefore invalidates cached traces (in memory and
    on disk).  Cached per plan object: plans are frozen module-level
    constants.
    """
    cached = _PLAN_FPS.get(id(plan))
    if cached is not None and cached[0] is plan:
        return cached[1]
    parts = [plan.algorithm]
    for s in plan.sites:
        parts.append(f"{s.name}|{s.kind.value}|{s.elem_bytes}|"
                     f"{int(s.is_store)}|{int(s.is_rmw)}|{int(s.shared)}|"
                     f"{s.order.value}")
    fp = hashlib.sha256("\n".join(parts).encode()).hexdigest()[:32]
    _PLAN_FPS[id(plan)] = (plan, fp)
    return fp


#: id -> (plan, fingerprint); the plan reference keeps ids from being
#: recycled under the cache's feet
_PLAN_FPS: dict[int, tuple] = {}


def output_fingerprint(output: dict) -> str:
    """Content digest of a run's output arrays (dtype/shape/bytes)."""
    import numpy as np

    h = hashlib.sha256()
    for name in sorted(output):
        arr = np.asarray(output[name])
        h.update(name.encode())
        h.update(str(arr.dtype).encode())
        h.update(str(arr.shape).encode())
        h.update(arr.tobytes())
    return h.hexdigest()[:32]


def stable_config_hash(algorithm: str, variant: Variant) -> int:
    """Deterministic stand-in for ``hash((algorithm, variant.value))``.

    Python's string hash is randomized per interpreter process, so the
    historical seeding made simulated runtimes differ between
    invocations (and would have differed per pool worker).  CRC32 is
    stable everywhere; see CHANGES.md for the compatibility note.
    """
    return zlib.crc32(f"{algorithm}:{variant.value}".encode())


def _stats_to_dict(stats: AccessStats) -> dict:
    return {f.name: getattr(stats, f.name) for f in fields(stats)}


def _stats_from_dict(data: dict) -> AccessStats:
    stats = AccessStats()
    for f in fields(stats):
        value = data[f.name]
        setattr(stats, f.name,
                int(value) if f.name == "rounds" else float(value))
    return stats


class TraceCache:
    """In-memory + optional on-disk store of recorded traces.

    Parameters
    ----------
    disk_dir:
        Directory for the persistent layer (created on first write);
        ``None`` keeps the cache memory-only.  Disk reads, writes,
        quarantine, degrade and prune are one
        :class:`~repro.utils.records.RecordDir` (``store="trace"``).
    retain_outputs:
        Keep the recording run's output arrays in the memory layer so
        replays can hand them back (needed by validation and
        ``last_run.output`` consumers).  Outputs never reach disk.
    """

    def __init__(self, disk_dir: str | Path | None = None,
                 retain_outputs: bool = True) -> None:
        self.disk_dir = Path(disk_dir) if disk_dir is not None else None
        self.disk = (RecordDir(self.disk_dir, prefix="trace",
                               fmt=TRACE_FORMAT, store="trace")
                     if self.disk_dir is not None else None)
        self.retain_outputs = retain_outputs
        self._memory: dict[tuple, Trace] = {}
        self.recorded = 0
        self.memory_hits = 0
        self.disk_hits = 0

    def __len__(self) -> int:
        return len(self._memory)

    @property
    def quarantined(self) -> int:
        """Corrupt disk files moved aside."""
        return self.disk.quarantined if self.disk else 0

    @property
    def disk_errors(self) -> int:
        """Disk-write failures observed (ENOSPC, EIO, ...)."""
        return self.disk.disk_errors if self.disk else 0

    @property
    def degraded(self) -> bool:
        """True once the disk layer was abandoned after repeated write
        errors; sticky — recreate the cache to retry the disk."""
        return self.disk is not None and self.disk.degraded

    # ------------------------------------------------------------------
    def lookup(self, key: tuple, need_output: bool = False) -> Trace | None:
        """A cached trace for ``key``, or ``None``.

        ``need_output=True`` treats a trace without retained output
        arrays as a miss (the caller will re-record), since disk traces
        and output-stripped memory traces cannot satisfy validation.
        """
        trace = self._memory.get(key)
        if trace is not None:
            if trace.output is not None or not need_output:
                self.memory_hits += 1
                count_event("trace", "memory_hit")
                return trace
            # cached but output-stripped: the caller must re-record
            count_event("trace", "re_record_miss")
            return None
        if need_output or self.disk is None:
            count_event("trace", "miss")
            return None
        trace = self._read_disk(key)
        if trace is not None:
            self.disk_hits += 1
            count_event("trace", "disk_hit")
            self._memory[key] = trace
        else:
            count_event("trace", "miss")
        return trace

    def store(self, trace: Trace) -> None:
        """Insert a freshly recorded trace into both layers.

        A disk-write failure never loses the trace (the memory layer
        already has it); after repeated failures the disk layer
        degrades to memory-only instead of paying a doomed syscall per
        record.
        """
        self.recorded += 1
        count_event("trace", "record")
        key = trace.key()
        self._memory[key] = (trace if self.retain_outputs
                             else trace.without_output())
        if self.disk is not None:
            self.disk.write(_digest(key), {
                **dict(zip(_KEY_FIELDS, key)),
                "stats": _stats_to_dict(trace.stats),
                "output_fp": trace.output_fp,
            })

    # ------------------------------------------------------------------
    # Disk layer maintenance
    # ------------------------------------------------------------------
    def disk_usage(self) -> tuple[int, int]:
        """(entry count, total bytes) of the on-disk layer."""
        return self.disk.usage() if self.disk else (0, 0)

    def prune(self, max_bytes: int) -> tuple[int, int]:
        """Evict traces until the disk layer fits ``max_bytes``;
        returns (files removed, bytes freed).

        The on-disk layer otherwise grows without bound — every new
        (algorithm, graph, variant, seed, staleness, plan) combination
        adds a file and nothing ever removes one.  Quarantined files
        go first, then traces oldest-first by mtime
        (:meth:`~repro.utils.records.RecordDir.prune`); re-recorded
        traces overwrite, and so refresh, their file.  The in-memory
        layer is untouched.
        """
        return self.disk.prune(max_bytes) if self.disk else (0, 0)

    # ------------------------------------------------------------------
    def _read_disk(self, key: tuple) -> Trace | None:
        payload = self.disk.read(_digest(key))
        if payload is None:
            return None
        if tuple(map(payload.get, _KEY_FIELDS)) != key:
            return None  # hash-prefix collision or stale schema
        try:
            stats = _stats_from_dict(payload["stats"])
        except (KeyError, TypeError, ValueError):
            return None
        algorithm, graph_fp, variant, seed, staleness, plan_fp = key
        return Trace(algorithm, Variant(variant), seed, staleness,
                     graph_fp, plan_fp, stats,
                     output_fp=payload.get("output_fp", ""), output=None)


#: the payload fields that repeat the cache key, in key order
_KEY_FIELDS = ("algorithm", "graph_fp", "variant", "seed",
               "staleness_rounds", "plan_fp")


def _digest(key: tuple) -> str:
    """The file-name digest of a cache key (``trace-<digest>.json``)."""
    return hashlib.sha256(repr(key).encode()).hexdigest()[:32]
