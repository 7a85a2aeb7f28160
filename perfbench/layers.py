"""The traced layer boundaries and the per-layer metrics derived from them.

:func:`installed` wraps, for the length of a traced job, the names the
program's callers bind at each layer boundary; :func:`job_metrics`
turns one job's spans into the per-layer metrics of ``BENCHMARK.json``.
"""

from __future__ import annotations

import contextlib
import os
import resource
from collections import defaultdict
from statistics import median

from perfbench.tracer import Span, self_times
from perfbench.workloads import ALGORITHMS, REPAIR_TARGETS

#: span name -> the program layer (module) it times, for the self-time
#: table; "perfbench" is the benchmark's own loop outside any call
LAYER_OF = {
    "setup": "perfbench",
    "iteration": "perfbench",
    "graphs.build": "graphs",
    "study.sweep": "core.study",
    "results.save": "core.study",
    "engine.run": "perf.engine",
    "perf.record": "perf.engine record + algorithms",
    "perf.replay": "perf.engine replay",
    "trace.lookup": "perf.trace",
    "trace.store": "perf.trace",
    "checkpoint.save": "core.resilience",
    "parallel.execute": "core.parallel",
    "repair.target": "repair.pipeline",
    "repair.localize": "repair.localize",
    "repair.prefilter": "repair.prefilter",
    "repair.synthesize": "repair.synth",
    "repair.reference": "repair.verify",
    "repair.verify": "repair.verify",
    "repair.shrink": "repair.verify shrink",
    "repair.shrink_trial": "repair.verify",
    "repair.rank": "repair.rank",
    "check.explore": "check.explore (DPOR)",
    "simt.launch": "gpu.simt",
    "vclock.analyze": "gpu.racecheck + check.vclock",
    "litmus": "memmodel",
}



# ----------------------------------------------------------------------
# What each wrapper counts
# ----------------------------------------------------------------------

def _record(args, kwargs):
    def done(result, counts):
        counts["algorithm"] = args[0].key
    return done


def _lookup(args, kwargs):
    def done(result, counts):
        counts["hits"] = int(result is not None)
    return done


def _checkpoint(args, kwargs):
    study = args[0]
    path = args[1] if len(args) > 1 else kwargs.get("path")

    def done(result, counts):
        counts["bytes"] = os.path.getsize(path or study.checkpoint)
    return done


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _pool(args, kwargs):
    before = _children_cpu_s()
    jobs = args[2] if len(args) > 2 else kwargs["jobs"]

    def done(result, counts):
        counts["tasks"] = len(args[1])
        counts["jobs"] = jobs
        counts["worker_cpu_s"] = _children_cpu_s() - before
    return done


def _accepted(args, kwargs):
    def done(result, counts):
        counts["accepted"] = int(result.accepted)
    return done


def _candidates(args, kwargs):
    def done(result, counts):
        counts["candidates"] = len(result)
    return done


def _schedules(args, kwargs):
    def done(result, counts):
        counts["schedules"] = result.explore.schedules
    return done


def _events(args, kwargs):
    events = args[1] if len(args) > 1 else kwargs["events"]

    def done(result, counts):
        counts["events"] = len(events)
    return done


@contextlib.contextmanager
def installed(tracer):
    """Wrap every traced boundary while the block runs."""
    import repro.core.parallel as parallel
    import repro.core.resilience as resilience
    import repro.core.study as study
    import repro.perf.engine as engine
    import repro.repair.pipeline as pipeline
    import repro.repair.rank as rank
    import repro.repair.verify as verify
    from repro.gpu.racecheck import RaceDetector
    from repro.gpu.simt import SimtExecutor
    from repro.perf.trace import TraceCache

    wrap = tracer.wrap
    try:
        # sweep path: Study.run / ResilientStudy.run_cell -> run_algorithm
        wrap(study, "run_algorithm", "engine.run")
        wrap(resilience, "run_algorithm", "engine.run")
        wrap(engine, "record_trace", "perf.record", _record)
        wrap(engine, "replay_trace", "perf.replay")
        wrap(TraceCache, "lookup", "trace.lookup", _lookup)
        wrap(TraceCache, "store", "trace.store")
        wrap(resilience.ResilientStudy, "save_checkpoint",
             "checkpoint.save", _checkpoint)
        # imported by Study._parallel_prefetch at call time
        wrap(parallel, "execute_tasks", "parallel.execute", _pool)
        # repair pipeline stages, as repro.repair.pipeline binds them
        wrap(pipeline, "localize", "repair.localize")
        wrap(pipeline, "prefilter", "repair.prefilter")
        wrap(pipeline, "synthesize", "repair.synthesize", _candidates)
        wrap(pipeline, "reference_output", "repair.reference")
        wrap(pipeline, "verify_candidate", "repair.verify", _accepted)
        wrap(pipeline, "shrink_fixset", "repair.shrink")
        wrap(pipeline, "rank_fixes", "repair.rank")
        # shrink_fixset's own re-verifications, and verification's DPOR call
        wrap(verify, "verify_candidate", "repair.shrink_trial", _accepted)
        wrap(verify, "check", "check.explore", _schedules)
        # the ranking stage prices fixes through the perf engine
        wrap(rank, "record_trace", "perf.record", _record)
        wrap(rank, "replay_trace", "perf.replay")
        wrap(SimtExecutor, "launch", "simt.launch")
        wrap(RaceDetector, "analyze", "vclock.analyze", _events)
        yield
    finally:
        tracer.unwrap_all()


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------

def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Totals:
    """Inclusive time, self time, calls and summed counts per span name
    over one set of spans (seconds for times)."""

    def __init__(self, spans: list[Span], selfs: list[int]) -> None:
        self.incl = defaultdict(float)
        self.self = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(lambda: defaultdict(float))
        self.by_label = defaultdict(float)
        for sp, own in zip(spans, selfs):
            dur = sp.duration_ns / 1e9
            self.incl[sp.name] += dur
            self.self[sp.name] += own / 1e9
            self.calls[sp.name] += 1
            for key, value in sp.counts.items():
                if isinstance(value, str):
                    self.by_label[(sp.name, value)] += dur
                else:
                    self.counts[sp.name][key] += value
            if sp.name == "parallel.execute":
                self.counts[sp.name]["capacity_s"] += \
                    sp.counts.get("jobs", 0) * dur


def job_metrics(t: Totals) -> dict[str, float]:
    """Per-layer metrics of one traced job (see README.md)."""
    c = t.counts
    accepted = c["repair.verify"]["accepted"] \
        + c["repair.shrink_trial"]["accepted"]
    verifications = t.calls["repair.verify"] + t.calls["repair.shrink_trial"]
    return {
        "record_s": t.incl["perf.record"],
        "record.calls": t.calls["perf.record"],
        **{f"record.{a}_s": t.by_label[("perf.record", a)]
           for a in ALGORITHMS},
        "replay_s": t.incl["perf.replay"],
        "replay.calls": t.calls["perf.replay"],
        "trace.lookup_s": t.incl["trace.lookup"],
        "trace.lookups": t.calls["trace.lookup"],
        "trace.hit_ratio": _ratio(c["trace.lookup"]["hits"],
                                  t.calls["trace.lookup"]),
        "trace.store_s": t.incl["trace.store"],
        "trace.disk_mb": c["iteration"]["disk_bytes"] / 1e6,
        "engine.self_s": t.self["engine.run"],
        "study.self_s": t.self["study.sweep"],
        "results.save_s": t.incl["results.save"],
        "checkpoint.save_s": t.incl["checkpoint.save"],
        "checkpoint.saves": t.calls["checkpoint.save"],
        "checkpoint.written_mb": c["checkpoint.save"]["bytes"] / 1e6,
        "parallel.execute_s": t.incl["parallel.execute"],
        "parallel.tasks": c["parallel.execute"]["tasks"],
        "parallel.worker_cpu_s": c["parallel.execute"]["worker_cpu_s"],
        "parallel.utilization": _ratio(
            c["parallel.execute"]["worker_cpu_s"],
            c["parallel.execute"]["capacity_s"]),
        "repair.localize_s": t.incl["repair.localize"],
        "repair.verify_s": t.incl["repair.verify"],
        "repair.shrink_s": t.self["repair.shrink"],
        "repair.shrink_incl_s": t.incl["repair.shrink"],
        "repair.rank_s": t.incl["repair.rank"],
        "repair.candidates": c["repair.synthesize"]["candidates"],
        "repair.accept_ratio": _ratio(accepted, verifications),
        "repair.shrink_trials": t.calls["repair.shrink_trial"],
        **{f"repair.{name}_s": t.by_label[("repair.target", name)]
           for name in REPAIR_TARGETS},
        "check.calls": t.calls["check.explore"],
        "dpor.self_s": t.self["check.explore"],
        "dpor.schedules": c["check.explore"]["schedules"],
        "dpor.schedules_per_s": _ratio(c["check.explore"]["schedules"],
                                       t.incl["check.explore"]),
        "simt.launch_s": t.incl["simt.launch"],
        "simt.launches": t.calls["simt.launch"],
        "vclock.analyze_s": t.incl["vclock.analyze"],
        "vclock.events": c["vclock.analyze"]["events"],
        "litmus_s": t.incl["litmus"],
    }


def setup_metrics(t: Totals) -> dict[str, float]:
    return {"graphs.build_s": t.incl["graphs.build"],
            "graphs.builds": t.calls["graphs.build"]}


def per_run(spans: list[Span], prefix: str) -> dict[str, Totals]:
    """:class:`Totals` of every run whose id starts with ``prefix``,
    over the spans of all processes."""
    selfs = self_times(spans)
    groups: dict[str, tuple[list, list]] = {}
    for sp, own in zip(spans, selfs):
        if sp.run.startswith(prefix):
            group = groups.setdefault(sp.run, ([], []))
            group[0].append(sp)
            group[1].append(own)
    return {run: Totals(s, o) for run, (s, o) in groups.items()}


def median_metrics(rows: list[dict[str, float]]) -> dict[str, float]:
    return {key: median(row[key] for row in rows) for key in rows[0]}


def self_time_table(spans: list[Span], runs: int) -> str:
    """Self time per layer, per traced job, main process then workers."""
    selfs = self_times(spans)
    table: dict[tuple[str, str], list[float]] = defaultdict(
        lambda: [0.0, 0])
    for sp, own in zip(spans, selfs):
        if not sp.run.startswith("iter"):
            continue
        proc = "main" if sp.proc == "main" else "workers"
        row = table[(proc, LAYER_OF.get(sp.name, sp.name))]
        row[0] += own / 1e9 / runs
        row[1] += 1 / runs
    lines = [f"{'process':<8} {'layer':<34} {'self s/job':>11} "
             f"{'spans/job':>10}"]
    for (proc, layer), (secs, n) in sorted(
            table.items(), key=lambda kv: (kv[0][0], -kv[1][0])):
        lines.append(f"{proc:<8} {layer:<34} {secs:>11.4f} {n:>10.0f}")
    return "\n".join(lines)
