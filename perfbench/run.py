"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload sweep_cold --seed 0 \
        --seconds 15 --trace 0

Run from the root of a checkout.  The workload is set up several
times (``setup_s`` is the median), then jobs run back to back for
``--seconds`` (at least two jobs).  ``--trace 0`` reports the end-to-end
metrics of untraced jobs; ``--trace 1`` alternates untraced and traced
jobs and reports the per-layer metrics of the traced ones, writes the
spans to ``perfbench/out/`` and prints a self-time table.  Every metric
is printed as ``name value unit``; the last line is one JSON object.
The exit code is 0 only when every correctness check passed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
#: no median rests on one sample, even when one job outlasts --seconds
MIN_JOBS = 2



def _units(kind: str) -> dict[str, str]:
    """Metric name -> unit for ``end_to_end`` or ``per_layer``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def _traced(tracer, on: bool):
    from perfbench import layers

    return layers.installed(tracer) if on else contextlib.nullcontext()


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 workdir: Path, out_dir: Path = OUT, **options) -> dict:
    """Set up, run the timed loop, check; returns the result fields plus
    ``lines`` (the human-readable report) and ``spans``.  ``options``
    go to the workload (the tests shrink it with them)."""
    from perfbench import layers
    from perfbench.tracer import NullTracer, Tracer
    from perfbench.workloads import WORKLOADS

    null = NullTracer()
    tracer = Tracer() if trace else null
    if trace:
        tracer.worker_dir = workdir / "worker-spans"
        tracer.worker_dir.mkdir(parents=True)
    workload = WORKLOADS[name](seed, workdir, **options)
    attempted = failed = 0
    notes: list[str] = []

    def tally(out) -> None:
        nonlocal attempted, failed
        attempted += out.checks
        failed += out.failed
        notes.extend(out.notes)

    setup_times = []
    for i in range(workload.setups):
        tracer.set_run(f"setup-{i}")
        with _traced(tracer, trace):
            with tracer.span("setup"):
                t0 = time.perf_counter()
                workload.setup(tracer)
                setup_times.append(time.perf_counter() - t0)

    walls = {False: [], True: []}
    cells = []
    start = time.perf_counter()
    i = 0
    while True:
        traced = trace and i % 2 == 1
        job_tracer = tracer if traced else null
        tracer.set_run(f"iter-{i}")
        with _traced(tracer, traced):
            with job_tracer.span("iteration") as counts:
                t0 = time.perf_counter()
                out = workload.iterate(job_tracer)
                wall = time.perf_counter() - t0
                counts.update(out.counts)
        if traced:
            tracer.collect_workers()
        walls[traced].append(wall)
        if not traced:
            cells.append(out.cells / wall)
        tally(out)
        i += 1
        samples = walls[False] + walls[True]
        done = len(samples) >= MIN_JOBS and (not trace or walls[True])
        elapsed = time.perf_counter() - start
        if done and elapsed + median(samples) > seconds:
            break
    tally(workload.final_checks())

    if trace:
        metrics = {}
        jobs = layers.per_run(tracer.spans, "iter")
        setups = layers.per_run(tracer.spans, "setup")
        metrics.update(layers.median_metrics(
            [layers.setup_metrics(t) for t in setups.values()]))
        metrics.update(layers.median_metrics(
            [layers.job_metrics(t) for t in jobs.values()]))
        metrics["tracing.overhead_ratio"] = \
            median(walls[True]) / median(walls[False])
        units = _units("per_layer")
        tracer.dump(out_dir / f"spans-{name}-seed{seed}.json")
        table = layers.self_time_table(tracer.spans, len(jobs))
    else:
        metrics = {"setup_s": median(setup_times),
                   "wall_s": median(walls[False]),
                   "cells_per_s": median(cells),
                   "peak_rss_mb": peak_rss_mb()}
        units = _units("end_to_end")
        table = ""
    metrics = {k: (metrics[k], unit) for k, unit in units.items()}

    lines = [f"workload {name} seed {seed}: {len(walls[False])} untraced"
             f" + {len(walls[True])} traced jobs, {workload.setups} set-ups"]
    lines += [f"{k} {v!r} {unit}" for k, (v, unit) in metrics.items()]
    lines.append("job walls (s): untraced "
                 + " ".join(f"{w:.3f}" for w in walls[False])
                 + (" | traced " + " ".join(f"{w:.3f}" for w in walls[True])
                    if trace else "")
                 + " | set-ups " + " ".join(f"{w:.3f}" for w in setup_times))
    lines.append(f"fail_ratio {failed / max(1, attempted)!r} ratio "
                 f"({failed} of {attempted} checks)")
    lines += [f"FAILED: {n}" for n in notes]
    if table:
        lines += ["", "self time per layer (traced jobs):", table]
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": unit}
                        for k, (v, unit) in metrics.items()},
            "lines": lines, "spans": tracer.spans if trace else [],
            "walls": walls}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}; run "
              "from the root of a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("\n".join(result["lines"]))
    print(json.dumps({k: result[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
