"""The four benchmark workloads.

Each workload is a closed loop: one client, one job at a time, all load
from this process (``sweep_parallel`` adds its two pool workers).  A
workload object is set up once per repetition of :meth:`setup`, then
:meth:`iterate` runs one job and returns an :class:`Outcome`; after the
timed loop, :meth:`final_checks` runs the checks that need no timing.

Every sweep job runs the paper's undirected comparison — 4 devices ×
``cc,gc,mis,mst`` × 17 inputs, 272 speedup cells — and hashes the bytes
``Study.save_results`` writes.  Those bytes must be the same for every
sweep workload at one seed, and equal a pinned digest at seed 0.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path

from perfbench.inputs import suite_builders
from perfbench.tracer import NullTracer

PINNED = Path(__file__).resolve().parent / "pinned"

#: suite scale and repetitions of every sweep (the paper uses scale 1
#: and 9 reps; this size keeps one sweep near 4 s on a 2-core host)
SCALE = 0.25
REPS = 1
ALGORITHMS = ["cc", "gc", "mis", "mst"]
#: pool size of ``sweep_parallel`` (the benchmark host has 2 cores)
PARALLEL_JOBS = 2

REPAIR_TARGETS = ("cc", "gc", "mst", "apsp_shared", "twophase")
LITMUS_CELLS = 40


@dataclass
class Outcome:
    """What one job did, and how many of its checks failed."""

    cells: int                  #: work items completed (cells_per_s)
    checks: int                 #: correctness checks attempted
    failed: int = 0             #: ... of which failed
    counts: dict = field(default_factory=dict)  #: root-span counts
    notes: list = field(default_factory=list)   #: failure messages


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def load_pinned(name: str) -> dict:
    return json.loads((PINNED / name).read_text())


class Sweep:
    """Shared set-up and checks of the three sweep workloads."""

    name = ""
    setups = 3

    def __init__(self, seed: int, workdir: Path,
                 scale: float = SCALE) -> None:
        from repro.gpu.device import DEVICE_ORDER

        self.seed = seed
        self.workdir = workdir
        self.scale = scale
        self.devices = list(DEVICE_ORDER)
        self.graphs = []
        self.digests: list[str] = []
        self._jobs = 0

    @property
    def cells(self) -> int:
        return len(self.devices) * len(ALGORITHMS) * len(self.graphs)

    def _fresh(self, stem: str) -> Path:
        self._jobs += 1
        return self.workdir / f"{stem}-{self._jobs}"

    def build_graphs(self, tracer) -> None:
        """Build the suite and each graph's weighted copy (MST's input).

        The process-wide weighted-copy cache is emptied first, so every
        set-up repetition pays for the weights as the first sweep of a
        fresh process would.
        """
        from repro.graphs import suite

        suite._WEIGHTED_CACHE.clear()
        self.graphs = []
        for _, build in suite_builders(self.seed, self.scale):
            with tracer.span("graphs.build"):
                graph = build()
                suite.weighted_graph(graph, seed=12345)
            self.graphs.append(graph)

    def setup(self, tracer) -> None:
        self.build_graphs(tracer)

    def serial_sweep(self, tracer, trace_cache):
        """The cold path: one Study, every device, jobs=1."""
        from repro.core.study import Study

        study = Study(reps=REPS, scale=self.scale,
                      trace_cache=trace_cache, jobs=1)
        cells = 0
        with tracer.span("study.sweep"):
            for device in self.devices:
                cells += len(study.speedup_table(device, ALGORITHMS,
                                                 self.graphs, jobs=1))
        return study, cells

    def save(self, tracer, study) -> str:
        path = self._fresh("results")
        with tracer.span("results.save"):
            study.save_results(path)
        digest = sha256_file(path)
        path.unlink()
        return digest

    def expected_digest(self) -> str | None:
        """The pinned seed-0 digest, or None for other seeds or sizes."""
        pin = load_pinned("sweep_seed0.json")
        if (self.seed, self.scale, REPS) == (0, pin["scale"],
                                                   pin["reps"]):
            return pin["sha256"]
        return None

    def reference_digest(self) -> str | None:
        """Digest of the serial cold path, when the workload has one."""
        return self.digests[0] if self.digests else None

    def outcome(self, cells: int, digest: str, **counts) -> Outcome:
        """One job's outcome: every cell it did not complete failed."""
        self.digests.append(digest)
        out = Outcome(cells=cells, checks=self.cells,
                      failed=self.cells - cells, counts=counts)
        if out.failed:
            out.notes.append(f"{out.failed} of {self.cells} cells failed")
        return out

    def final_checks(self) -> Outcome:
        """Digest agreement: every job, the cold path, and the pin."""
        out = Outcome(cells=0, checks=0)
        expected = [("pinned seed-0", self.expected_digest()),
                    ("serial cold path", self.reference_digest())]
        for label, want in expected:
            if want is None:
                continue
            for digest in self.digests:
                out.checks += 1
                if digest != want:
                    out.failed += 1
                    out.notes.append(f"save_results digest {digest[:12]} "
                                     f"!= {label} {want[:12]}")
        return out


class SweepCold(Sweep):
    """In-memory trace cache starting empty: every trace is recorded."""

    name = "sweep_cold"

    def iterate(self, tracer) -> Outcome:
        from repro.perf.trace import TraceCache

        study, cells = self.serial_sweep(tracer, TraceCache())
        return self.outcome(cells, self.save(tracer, study))


class SweepWarm(Sweep):
    """Resilient sweep with checkpoints over a pre-filled trace dir."""

    name = "sweep_warm"

    def setup(self, tracer) -> None:
        from repro.perf.trace import TraceCache

        self.build_graphs(tracer)
        if getattr(self, "trace_dir", None) is not None:
            shutil.rmtree(self.trace_dir)  # an earlier set-up's fill
        self.trace_dir = self._fresh("traces")
        study, _ = self.serial_sweep(tracer,
                                     TraceCache(disk_dir=self.trace_dir))
        self.fill_digest = self.save(tracer, study)

    def reference_digest(self) -> str | None:
        return self.fill_digest

    def iterate(self, tracer) -> Outcome:
        from repro.core.resilience import ResilientStudy
        from repro.perf.trace import TraceCache

        checkpoint = self._fresh("checkpoint") / "sweep.json"
        checkpoint.parent.mkdir(parents=True)
        cache = TraceCache(disk_dir=self.trace_dir)
        study = ResilientStudy(reps=REPS, scale=self.scale,
                               trace_cache=cache, checkpoint=checkpoint,
                               jobs=1)
        cells = 0
        with tracer.span("study.sweep"):
            for device in self.devices:
                cells += len(study.sweep(device, ALGORITHMS, self.graphs,
                                         jobs=1).completed)
        digest = self.save(tracer, study)
        shutil.rmtree(checkpoint.parent)
        return self.outcome(cells, digest,
                            disk_bytes=cache.disk_usage()[1])


class SweepParallel(Sweep):
    """The cold sweep on a 2-worker pool sharing a fresh trace dir."""

    name = "sweep_parallel"

    def iterate(self, tracer) -> Outcome:
        from repro.core.study import Study
        from repro.perf.trace import TraceCache

        trace_dir = self._fresh("traces")
        cache = TraceCache(disk_dir=trace_dir)
        study = Study(reps=REPS, scale=self.scale, trace_cache=cache,
                      jobs=PARALLEL_JOBS)
        cells = 0
        with tracer.span("study.sweep"):
            for device in self.devices:
                cells += len(study.speedup_table(device, ALGORITHMS,
                                                 self.graphs,
                                                 jobs=PARALLEL_JOBS))
        digest = self.save(tracer, study)
        disk_bytes = cache.disk_usage()[1]
        shutil.rmtree(trace_dir, ignore_errors=True)
        return self.outcome(cells, digest, disk_bytes=disk_bytes)

    def reference_digest(self) -> str | None:
        """Run the serial cold path once, untimed, for comparison."""
        from repro.perf.trace import TraceCache

        study, _ = self.serial_sweep(NullTracer(), TraceCache())
        return self.save(NullTracer(), study)


class VerifyRepair:
    """``repair(target, budget="smoke")`` per target, then the litmus
    corpus: the verification tier behind ``repro repair``."""

    name = "verify_repair"
    #: set-up is milliseconds of work here, so take more samples
    setups = 25

    def __init__(self, seed: int, workdir: Path,
                 targets=REPAIR_TARGETS) -> None:
        self.seed = seed
        self.targets = tuple(targets)
        #: the seed shifts the localization schedules (seeds 0,1,2)
        self.localize_seeds = (3 * seed, 3 * seed + 1, 3 * seed + 2)
        self.tables: list[dict[str, list[str]]] = []

    def setup(self, tracer) -> None:
        """Build every target (its kernels' graphs and access plans)
        fresh, and its race-free reference output."""
        from repro.repair import targets as registry
        from repro.repair.verify import reference_output

        for name in self.targets:
            # build through the factory, not the memoizing get_target,
            # so every set-up repetition does the work; repair() then
            # finds this instance in the registry's cache
            target = registry._FACTORIES[name]()
            registry._CACHE[name] = target
            if target.canonical_output:
                reference_output(target)

    def iterate(self, tracer) -> Outcome:
        from repro.memmodel.litmus import run_corpus
        from repro.repair import repair
        from repro.repair.rank import format_table
        from repro.repair.targets import get_target

        out = Outcome(cells=0, checks=0)
        tables: dict[str, list[str]] = {}
        for name in self.targets:
            with tracer.span("repair.target", target=name):
                report = repair(name, budget="smoke",
                                seeds=self.localize_seeds)
            tables[name] = format_table(get_target(name), report.ranked,
                                        report.devices).splitlines()
            out.cells += 1
            out.checks += 1
            if not report.ok:
                out.failed += 1
                out.notes.append(f"repair({name}) left obligations open")
        with tracer.span("litmus"):
            results = run_corpus()
        out.cells += len(results)
        out.checks += LITMUS_CELLS
        passed = sum(1 for r in results if r.ok)
        if passed != LITMUS_CELLS:
            out.failed += LITMUS_CELLS - passed
            out.notes.append(f"litmus corpus {passed}/{LITMUS_CELLS}")
        self.tables.append(tables)
        return out

    def final_checks(self) -> Outcome:
        """Every job's fix tables agree; at seed 0 they equal the pin."""
        out = Outcome(cells=0, checks=0)
        want = (load_pinned("repair_seed0.json")
                if self.seed == 0 else self.tables[0])
        for tables in self.tables:
            for name in self.targets:
                out.checks += 1
                if tables.get(name) != want.get(name):
                    out.failed += 1
                    out.notes.append(f"fix table of {name} differs from "
                                     + ("the pinned seed-0 copy"
                                        if self.seed == 0
                                        else "the first job's"))
        return out


WORKLOADS = {w.name: w for w in (SweepCold, SweepWarm, SweepParallel,
                                 VerifyRepair)}

