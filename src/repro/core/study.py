"""The experimental methodology of Section V.

A :class:`Study` runs (algorithm, input, device, variant) configurations
``reps`` times (the paper uses nine), takes the *median* simulated
runtime, and derives speedups as ``baseline_median / racefree_median`` —
a value above 1 means the race-free code is faster.

Repetitions differ in their randomization seed (vertex priorities,
tie-breaks, schedule-dependent staleness subsets), which is the
simulator's analog of run-to-run hardware variance.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, ClassVar

from repro.core.variants import AlgorithmInfo, Variant, get_algorithm
from repro.errors import (
    CellTimeoutError,
    DeadlockError,
    ReproError,
    StudyError,
    SweepInterrupted,
    TransientKernelFault,
    ValidationError,
)
from repro.gpu.device import DeviceSpec, get_device
from repro.graphs.csr import CSRGraph
from repro.graphs.suite import load_suite_graph, weighted_graph
from repro.perf.engine import PerfRun, run_algorithm
from repro.perf.trace import TraceCache
from repro.telemetry.metrics import get_registry
from repro.telemetry.spans import get_spans
from repro.utils.atomicio import atomic_write_text
from repro.utils.backoff import BackoffPolicy
from repro.utils.stats import median, relative_deviation

TRACE_CACHE_ENV = "REPRO_TRACE_CACHE"
"""Environment variable naming the on-disk trace-cache directory used
by studies that were not given an explicit cache."""


def json_document(fields: list[tuple[str, object]]) -> str:
    """``json.dumps(dict(fields), indent=1)``, assembled from parts.

    A ``list`` value must hold the already-encoded item texts of a
    top-level list (:meth:`RecordTexts.encode`'s indented texts); any
    other value is a scalar encoded here.  The output is byte-identical
    to encoding the whole document at once, because JSON encoding is
    compositional: a list item's text depends only on the item and its
    nesting depth.
    """
    parts = []
    for name, value in fields:
        if isinstance(value, list):
            value = ("[\n  " + ",\n  ".join(value) + "\n ]"
                     if value else "[]")
        else:
            value = json.dumps(value)
        parts.append(f" {json.dumps(name)}: {value}")
    return "{\n" + ",\n".join(parts) + "\n}"


class RecordTexts:
    """Encode-once JSON text of a memo's records.

    Result logs and checkpoints re-write every record after every cell;
    encoding each record once instead keeps a per-cell save linear in
    the new cells rather than in the whole study.  Per memo key the
    cache holds the memo object it encoded and two texts: the record as
    an item of a top-level list under ``json.dumps(indent=1)`` (see
    :func:`json_document`), and its canonical ``sort_keys=True`` text
    (what :func:`repro.core.resilience.checkpoint_crc` checksums).

    An entry is reused only while the memo still holds the *same*
    object — a checkpoint load or a retried cell replaces the entry with
    a new one — and memo records are never mutated in place.  Keys that
    left the memo are dropped.
    """

    def __init__(self, to_record) -> None:
        self._to_record = to_record
        self._entries: dict[tuple, tuple[object, str, str]] = {}

    def encode(self, memo: dict) -> tuple[list[str], list[str]]:
        """(indented item texts, canonical texts), in memo order."""
        entries = self._entries
        indented, canonical = [], []
        for key, obj in memo.items():
            entry = entries.get(key)
            if entry is None or entry[0] is not obj:
                record = self._to_record(obj)
                # JSON strings never hold a raw newline, so shifting
                # every line break re-indents the text to list depth 2
                entry = (obj,
                         json.dumps(record, indent=1).replace("\n", "\n  "),
                         json.dumps(record, sort_keys=True))
                entries[key] = entry
            indented.append(entry[1])
            canonical.append(entry[2])
        if len(entries) > len(memo):
            for key in entries.keys() - memo.keys():
                del entries[key]
        return indented, canonical


@dataclass
class RunResult:
    """Median-of-reps runtime of one (algo, input, device, variant)."""

    algorithm: str
    input_name: str
    device_key: str
    variant: Variant
    runtimes_ms: list[float]
    #: outputs/stats of the final repetition; None when the result was
    #: re-loaded from a saved log (outputs are not persisted)
    last_run: PerfRun | None
    #: the ``"kind"`` a worker message puts before :meth:`to_record`
    KIND: ClassVar[str] = "result"

    @property
    def median_ms(self) -> float:
        return median(self.runtimes_ms)

    @property
    def relative_deviation(self) -> float:
        return relative_deviation(self.runtimes_ms)

    @property
    def key(self) -> tuple:
        """The study memo key of this cell."""
        return (self.algorithm, self.input_name, self.device_key,
                self.variant)

    # The record codec: the one dict shape of result logs, checkpoints,
    # worker messages (which add a leading ``"kind"``) and the shared
    # result store.
    def to_record(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "input": self.input_name,
            "device": self.device_key,
            "variant": self.variant.value,
            "runtimes_ms": list(self.runtimes_ms),
        }

    @classmethod
    def from_record(cls, record: dict) -> RunResult:
        """Inverse of :meth:`to_record` (extra keys are ignored); raises
        KeyError/TypeError/ValueError on a malformed record.  The result
        carries no ``last_run``: outputs are never persisted."""
        return cls(record["algorithm"], record["input"], record["device"],
                   Variant(record["variant"]),
                   [float(x) for x in record["runtimes_ms"]], last_run=None)


@dataclass(frozen=True)
class CellBudget:
    """Per-cell execution limits.

    ``max_seconds`` is a wall-clock budget checked between repetitions
    and attempts; exceeding it records a ``timeout`` failure.
    ``max_steps`` is the SIMT micro-step budget for kernel-level
    execution (forwarded to :class:`~repro.gpu.simt.SimtExecutor`),
    which converts infinite polling loops into
    :class:`~repro.errors.DeadlockError` — recorded here as
    ``livelock``.  Performance-level runs always terminate, so for them
    only the wall-clock limit and injected livelocks apply.
    """

    max_seconds: float | None = None
    max_steps: int | None = None


@dataclass(frozen=True)
class CellFailure:
    """One failed sweep cell, preserved instead of crashing the sweep.

    Field names mirror :class:`SpeedupCell` so report code can lay
    failures out in the same grid.
    """

    algorithm: str
    input_name: str
    device_key: str
    variant: str
    reason: str           # livelock | timeout | validation | fault | error
    message: str
    attempts: int
    elapsed_s: float
    KIND: ClassVar[str] = "failure"

    def describe(self) -> str:
        return (f"FAIL({self.reason}) {self.algorithm}/{self.input_name}/"
                f"{self.device_key}/{self.variant}")

    @property
    def key(self) -> tuple:
        """The study memo key of this cell."""
        return (self.algorithm, self.input_name, self.device_key,
                Variant(self.variant))

    def to_record(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "input": self.input_name,
            "device": self.device_key,
            "variant": self.variant,
            "reason": self.reason,
            "message": self.message,
            "attempts": self.attempts,
            "elapsed_s": self.elapsed_s,
        }

    @classmethod
    def from_record(cls, record: dict) -> CellFailure:
        """Inverse of :meth:`to_record` (extra keys are ignored); raises
        KeyError/TypeError/ValueError on a malformed record.  A record
        missing ``message``/``attempts``/``elapsed_s`` (hand-edited
        checkpoints) gets "", 1 and 0.0."""
        return cls(algorithm=record["algorithm"], input_name=record["input"],
                   device_key=record["device"],
                   variant=Variant(record["variant"]).value,
                   reason=record["reason"],
                   message=record.get("message", ""),
                   attempts=int(record.get("attempts", 1)),
                   elapsed_s=float(record.get("elapsed_s", 0.0)))


@dataclass(frozen=True)
class GuardedFailure:
    """Outcome classification produced by :func:`run_guarded`."""

    reason: str
    message: str
    attempts: int
    elapsed_s: float
    #: the exception that ended the last attempt (None when the
    #: wall-clock budget expired before an attempt could start)
    error: ReproError | None = field(default=None, compare=False,
                                     repr=False)


def run_guarded(
    fn: Callable[[int], object],
    retries: int = 0,
    backoff_s: float = 0.0,
    budget: CellBudget | None = None,
    sleep: Callable[[float], None] = time.sleep,
    backoff: BackoffPolicy | None = None,
):
    """Run ``fn(attempt)`` under the resilience policy.

    Returns ``(value, None)`` on success or ``(None, GuardedFailure)``
    on failure.  The policy:

    * :class:`TransientKernelFault` — retry up to ``retries`` times
      with exponential full-jitter backoff (a
      :class:`~repro.utils.backoff.BackoffPolicy` built from
      ``backoff_s``, or ``backoff`` verbatim when given), clamped to
      the wall-clock budget's remaining time so a retry can never
      sleep past its own deadline; ``fn``
      receives the attempt index so it can derive fresh schedule seeds.
    * :class:`DeadlockError` — recorded as ``livelock`` (the step
      budget turned an infinite polling loop into this error); no
      retry, livelocks are schedule-lottery losses the caller should
      see.
    * :class:`CellTimeoutError` — recorded as ``timeout``.
    * :class:`ValidationError` — recorded as ``validation`` (silent
      corruption caught by the reference checkers).
    * any other :class:`ReproError` — recorded as ``error``.

    Non-:class:`ReproError` exceptions propagate: they indicate bugs in
    the harness, not failures of the simulated hardware.
    """
    if backoff is None and backoff_s > 0.0:
        backoff = BackoffPolicy(base_s=backoff_s)
    start = time.monotonic()
    attempts = 0
    last_fault: TransientKernelFault | None = None

    def failed(reason: str, exc: ReproError | None,
               message: str | None = None) -> tuple[None, GuardedFailure]:
        return None, GuardedFailure(
            reason, str(exc) if message is None else message, attempts,
            time.monotonic() - start, error=exc)

    for attempt in range(max(0, retries) + 1):
        if (budget is not None and budget.max_seconds is not None
                and time.monotonic() - start > budget.max_seconds):
            return failed(
                "timeout", None,
                f"cell exceeded {budget.max_seconds:g}s wall-clock budget "
                f"before attempt {attempt}")
        attempts += 1
        try:
            return fn(attempt), None
        except SweepInterrupted:
            # raised by the graceful-interrupt signal handler, which
            # can fire at any bytecode — an operator stop, never a
            # recordable cell failure
            raise
        except TransientKernelFault as exc:
            last_fault = exc
            if attempt < retries and backoff is not None:
                remaining = None
                if (budget is not None
                        and budget.max_seconds is not None):
                    remaining = (budget.max_seconds
                                 - (time.monotonic() - start))
                delay = backoff.delay(attempt, remaining_s=remaining)
                if delay > 0.0:
                    sleep(delay)
        except CellTimeoutError as exc:
            return failed("timeout", exc)
        except DeadlockError as exc:
            return failed("livelock", exc)
        except ValidationError as exc:
            return failed("validation", exc)
        except ReproError as exc:
            return failed("error", exc)
    return failed(
        "fault", last_fault,
        f"transient fault persisted through {attempts} attempt(s): "
        f"{last_fault}")


@dataclass
class SpeedupCell:
    """One cell of Tables IV-VIII."""

    algorithm: str
    input_name: str
    device_key: str
    baseline_ms: float
    racefree_ms: float

    @property
    def speedup(self) -> float:
        """baseline runtime / race-free runtime (>1: race-free faster)."""
        if self.racefree_ms <= 0:
            raise StudyError("race-free runtime must be positive")
        return self.baseline_ms / self.racefree_ms


class Study:
    """Runs the paper's comparison on the simulated devices.

    Every cell runs through :meth:`run_cell`, the one loop over a
    cell's repetitions, under the cell policy below; :meth:`run`,
    :meth:`speedup` and :meth:`speedup_table` are strict views over it.
    With the default policy the guard rails cost nothing until
    something goes wrong.  :class:`~repro.core.resilience.ResilientStudy`
    adds durability (checkpoints, the graceful interrupt) on top.

    Parameters
    ----------
    reps:
        Runs per configuration (paper: 9).
    scale:
        Input scale factor forwarded to the suite loader.
    validate:
        Verify every output against the reference checkers (slow; used
        by the test-suite, off for the big sweeps).
    trace_cache:
        The record/replay cache (see :mod:`repro.perf.trace`).  By
        default each study gets its own in-memory cache, with an
        on-disk layer when ``REPRO_TRACE_CACHE`` names a directory.
        Pass a :class:`~repro.perf.trace.TraceCache`, a directory path
        (enables the disk layer there), or ``False`` to disable
        caching entirely (every repetition re-executes the vectorized
        algorithm — the pre-replay engine).
    jobs:
        Default worker count for :meth:`speedup_table` (and
        :meth:`~repro.core.resilience.ResilientStudy.sweep`); ``None``
        reads ``REPRO_JOBS``, 1 means serial.
    memory_model:
        Price every run under this consistency model
        (:mod:`repro.memmodel`): shared atomic sites are lifted to the
        model's order floor before recording, e.g. ``"ptx:acq_rel"``
        prices the acquire/release world.  None keeps the paper's
        relaxed default.
    retries:
        Extra attempts per cell after a transient kernel fault, each
        with a fresh schedule-seed family.
    backoff_s:
        Base of the exponential full-jitter retry backoff
        (:class:`~repro.utils.backoff.BackoffPolicy`; 0 disables
        sleeping).
    budget:
        Per-cell :class:`CellBudget` (wall-clock and SIMT step limits).
    faults:
        Optional :class:`~repro.gpu.faults.FaultPlan`; every repetition
        of every cell gets its own deterministic injector derived from
        (cell key, repetition, attempt).
    """

    #: per-task wall-clock deadline in seconds for parallel-sweep
    #: workers (None waits forever) — see :mod:`repro.core.parallel`
    task_deadline_s: float | None = None

    def __init__(self, reps: int = 9, scale: float = 1.0,
                 validate: bool = False,
                 trace_cache: TraceCache | str | Path | bool | None = None,
                 jobs: int | None = None,
                 memory_model=None, retries: int = 0,
                 backoff_s: float = 0.0,
                 budget: CellBudget | None = None,
                 faults=None) -> None:
        from repro.core.parallel import resolve_jobs

        if reps < 1:
            raise StudyError(f"reps must be >= 1, got {reps}")
        if retries < 0:
            raise StudyError(f"retries must be >= 0, got {retries}")
        self.reps = reps
        self.scale = scale
        self.validate = validate
        self.retries = retries
        self.backoff_s = backoff_s
        self.budget = budget or CellBudget()
        self.faults = faults
        if memory_model is not None:
            from repro.memmodel.models import resolve_model

            memory_model = resolve_model(memory_model)
        self.memory_model = memory_model
        if trace_cache is None or trace_cache is True:
            trace_cache = TraceCache(
                disk_dir=os.environ.get(TRACE_CACHE_ENV) or None)
        elif trace_cache is False:
            trace_cache = None
        elif isinstance(trace_cache, (str, Path)):
            trace_cache = TraceCache(disk_dir=trace_cache)
        self.trace_cache: TraceCache | None = trace_cache
        self.jobs = resolve_jobs(jobs)
        self._results: dict[tuple, RunResult] = {}
        self._failures: dict[tuple, CellFailure] = {}
        self._result_texts = RecordTexts(RunResult.to_record)
        #: content fingerprints of graphs seen per input name, so two
        #: different graphs cannot silently share one memo entry
        self._graph_fps: dict[str, str] = {}
        #: cells actually executed for this study, here or on a worker
        #: (memoized or checkpoint-loaded cells do not count) — the
        #: observable that resume tests assert on
        self.cells_executed = 0

    # ------------------------------------------------------------------
    @staticmethod
    def _rep_seed(rep: int, attempt: int = 0) -> int:
        """Per-repetition randomization seed (the simulator's analog of
        run-to-run variance).  ``attempt > 0`` — a retry after a
        transient fault — shifts to a fresh schedule-seed family;
        attempt 0 reproduces the historical seeds exactly."""
        return 1000 * rep + 7 + 7919 * attempt

    def _note_fingerprint(self, name: str, graph: CSRGraph) -> None:
        """Record ``graph``'s content for ``name``; reject a clash.

        A :class:`CSRGraph` passed directly whose ``.name`` collides
        with a different graph (a suite input, or an earlier passed
        graph) would otherwise silently reuse or overwrite the other's
        cached result.
        """
        fp = graph.fingerprint()
        prev = self._graph_fps.get(name)
        if prev is not None and prev != fp:
            raise StudyError(
                f"graph name {name!r} already used in this study for "
                "different content; rename the graph (results are "
                "memoized per input name)"
            )
        self._graph_fps[name] = fp

    def _memo_key(self, algorithm: str, graph_or_name, device: str,
                  variant: Variant) -> tuple[tuple, str]:
        """(memo key, input name) — with the name-clash check applied
        for directly-passed graphs *before* any memo lookup."""
        if isinstance(graph_or_name, CSRGraph):
            name = graph_or_name.name
            self._note_fingerprint(name, graph_or_name)
        else:
            name = graph_or_name
        return (algorithm, name, device, variant), name

    def _prepare_graph(self, algo: AlgorithmInfo,
                       graph_or_name) -> CSRGraph:
        if isinstance(graph_or_name, CSRGraph):
            graph = graph_or_name
        else:
            graph = load_suite_graph(graph_or_name, scale=self.scale)
            self._note_fingerprint(graph_or_name, graph)
        if algo.needs_weights and not graph.has_weights:
            # process-wide cache: every study (and every repetition of
            # every device) shares one weighted copy per graph content
            graph = weighted_graph(graph, seed=12345)
        return graph

    # ------------------------------------------------------------------
    # Cell execution
    # ------------------------------------------------------------------
    def _count_cell(self, outcome: str, attempts: int) -> None:
        reg = get_registry()
        if not reg.enabled:
            return
        reg.counter("repro_cells_total",
                    "Sweep cells executed, by final outcome", ("outcome",)
                    ).inc(1, outcome)
        reg.counter("repro_cell_attempts_total",
                    "Cell execution attempts (first tries + retries)"
                    ).inc(max(attempts, 1))
        if attempts > 1:
            reg.counter("repro_cell_retries_total",
                        "Extra attempts after transient kernel faults"
                        ).inc(attempts - 1)
        if outcome == "timeout":
            reg.counter("repro_watchdog_trips_total",
                        "Cells stopped by the wall-clock budget watchdog"
                        ).inc(1)

    def _injector(self, key: tuple, rep: int, attempt: int):
        if self.faults is None:
            return None
        algorithm, name, device, variant = key
        return self.faults.injector(
            algorithm, name, device, variant.value, rep, attempt)

    def _autosave(self) -> None:
        """Hook run after every newly recorded cell; a plain study
        keeps nothing durable (ResilientStudy checkpoints here)."""

    def forget_failures(self, algorithm: str, input_name: str,
                        device: str, variants=tuple(Variant)) -> None:
        """Drop memoized failures of these cells so the next request
        executes them again (a service's circuit breaker, not this
        memo, is its failure memory)."""
        for variant in variants:
            self._failures.pop((algorithm, input_name, device, variant),
                               None)

    def run_cell(self, algorithm: str, graph_or_name, device: str,
                 variant: Variant, strict: bool = False
                 ) -> RunResult | CellFailure:
        """Run one configuration — ``reps`` repetitions, median later —
        under the cell policy (budget, retries, fault plan) and memoize
        the outcome.

        Returns the :class:`RunResult` on success, or a
        :class:`CellFailure` record: a :class:`~repro.errors.ReproError`
        of the simulated execution never escapes, unless ``strict`` and
        this call executed the failing cell — then the original
        exception is re-raised (the failure stays memoized).
        """
        key, name = self._memo_key(algorithm, graph_or_name, device, variant)
        if key in self._results:
            return self._results[key]
        if key in self._failures:
            return self._failures[key]

        algo = get_algorithm(algorithm)
        spec = get_device(device)
        graph = self._prepare_graph(algo, graph_or_name)
        deadline = (None if self.budget.max_seconds is None
                    else time.monotonic() + self.budget.max_seconds)
        attempts_made = 0

        def attempt_cell(attempt: int) -> RunResult:
            nonlocal attempts_made
            attempts_made = attempt + 1
            runtimes: list[float] = []
            last: PerfRun | None = None
            for rep in range(self.reps):
                if deadline is not None and time.monotonic() > deadline:
                    raise CellTimeoutError(
                        f"cell exceeded {self.budget.max_seconds:g}s "
                        f"wall-clock budget after {rep} of {self.reps} "
                        "repetitions"
                    )
                last = run_algorithm(
                    algo, graph, spec, variant,
                    seed=self._rep_seed(rep, attempt),
                    faults=self._injector(key, rep, attempt),
                    trace_cache=self.trace_cache,
                    need_output=self.validate,
                    memory_model=self.memory_model)
                # every repetition is validated: reps differ in their
                # randomization seed, so a corrupt rep 3 would be
                # invisible if only the final repetition were checked
                if self.validate:
                    self._validate(algo, graph, last)
                runtimes.append(last.runtime_ms)
            return RunResult(algorithm, name, device, variant,
                             runtimes, last)

        with get_spans().span("sweep.cell", algorithm=algorithm,
                              input=name, device=device,
                              variant=variant.value) as sp:
            value, failure = run_guarded(
                attempt_cell, retries=self.retries,
                backoff_s=self.backoff_s, budget=self.budget)
            outcome = "ok" if failure is None else failure.reason
            sp.set(outcome=outcome, attempts=attempts_made)
        self._count_cell(outcome, attempts_made)
        self.cells_executed += 1
        if failure is None:
            self._results[key] = value
            self._autosave()
            return value
        record = CellFailure(
            algorithm=algorithm, input_name=name, device_key=device,
            variant=variant.value, reason=failure.reason,
            message=failure.message, attempts=failure.attempts,
            elapsed_s=failure.elapsed_s)
        self._failures[key] = record
        self._autosave()
        if strict and failure.error is not None:
            raise failure.error
        return record

    def run(self, algorithm: str, graph_or_name, device: str,
            variant: Variant) -> RunResult:
        """Strict view of :meth:`run_cell`: the memoized result, or an
        exception — the original one when this call executed the cell,
        a :class:`~repro.errors.StudyError` describing a failure that
        was memoized or merged from a worker."""
        out = self.run_cell(algorithm, graph_or_name, device, variant,
                            strict=True)
        if isinstance(out, CellFailure):
            raise StudyError(f"{out.describe()}: {out.message}")
        return out

    def speedup(self, algorithm: str, graph_or_name,
                device: str) -> SpeedupCell:
        """Baseline-vs-race-free speedup for one configuration."""
        return self._speedup(algorithm, graph_or_name, device, self.run)

    def _speedup(self, algorithm: str, graph_or_name, device: str,
                 run) -> SpeedupCell | CellFailure:
        """The speedup cell from ``run``'s two variants (both always
        run), or the first variant's :class:`CellFailure`."""
        algo = get_algorithm(algorithm)
        if not algo.has_races:
            raise StudyError(
                f"{algorithm} has no data races (Section IV.A); the paper "
                "does not measure its race-free speedup"
            )
        base = run(algorithm, graph_or_name, device, Variant.BASELINE)
        free = run(algorithm, graph_or_name, device, Variant.RACE_FREE)
        for out in (base, free):
            if isinstance(out, CellFailure):
                return out
        return SpeedupCell(
            algorithm=algorithm,
            input_name=base.input_name,
            device_key=device,
            baseline_ms=base.median_ms,
            racefree_ms=free.median_ms,
        )

    def speedup_table(self, device: str, algorithms: list[str],
                      inputs: list[str],
                      jobs: int | None = None) -> list[SpeedupCell]:
        """All cells of one of Tables IV-VIII.

        ``jobs > 1`` executes the missing cells on worker processes
        first (see :mod:`repro.core.parallel`), then assembles the
        table from the memo — the cells, their order, and any
        subsequently saved results are bit-identical to the serial
        path.
        """
        return self._table(device, algorithms, inputs, jobs, self.speedup)

    def _table(self, device: str, algorithms: list[str], inputs: list,
               jobs: int | None, cell, **span_attrs) -> list:
        """``cell(algorithm, input, device)`` for every table cell, in
        table order, after a ``jobs > 1`` worker prefetch."""
        jobs = jobs if jobs is not None else self.jobs
        with get_spans().span("study.sweep", device=device, jobs=jobs,
                              cells=len(algorithms) * len(inputs),
                              **span_attrs):
            if jobs > 1:
                self._parallel_prefetch(device, algorithms, inputs, jobs)
            return [cell(a, name, device)
                    for name in inputs for a in algorithms]

    # ------------------------------------------------------------------
    # Parallel execution (see repro.core.parallel)
    # ------------------------------------------------------------------
    def _cell_done(self, key: tuple) -> bool:
        """Whether the study already has an outcome for ``key``."""
        return key in self._results or key in self._failures

    def _worker_config(self):
        """The picklable policy a worker rebuilds this study from."""
        from repro.core import hostfaults
        from repro.core.parallel import WorkerConfig
        from repro.telemetry.metrics import telemetry_enabled

        trace_dir = (str(self.trace_cache.disk_dir)
                     if self.trace_cache is not None
                     and self.trace_cache.disk_dir is not None else None)
        return WorkerConfig(reps=self.reps, scale=self.scale,
                            validate=self.validate, retries=self.retries,
                            backoff_s=self.backoff_s, budget=self.budget,
                            faults=self.faults,
                            memory_model=self.memory_model,
                            trace_dir=trace_dir,
                            telemetry=telemetry_enabled(),
                            hostfaults=hostfaults.active_plan())

    def _merge_telemetry_record(self, record: dict) -> None:
        """Fold one worker's shipped metric/span deltas into the
        process-wide registry (records arrive in submission order, so
        the merged write sequence equals the serial one)."""
        get_registry().merge(record["snapshot"])
        get_spans().merge(record.get("spans", ()),
                          worker=record.get("worker"))

    def _merge_parallel_record(self, record: dict) -> None:
        """Fold one worker record into the memo (submission order).

        Each result/failure record is one cell a worker executed (the
        parent submits only cells missing from the memo), so it counts
        in ``cells_executed`` and is followed by :meth:`_autosave`.
        """
        if record.get("kind") == "telemetry":
            self._merge_telemetry_record(record)
            return
        codec, memo = ((CellFailure, self._failures)
                       if record["kind"] == CellFailure.KIND
                       else (RunResult, self._results))
        out = codec.from_record(record)
        if self._cell_done(out.key):
            return
        memo[out.key] = out
        self.cells_executed += 1
        self._autosave()

    def _parallel_prefetch(self, device: str, algorithms: list[str],
                           inputs: list[str], jobs: int) -> None:
        """Execute every missing (algorithm, input) pair on workers.

        Tasks are built — and their records merged — in the exact
        order the serial sweep would have executed them, which is what
        keeps the memo's insertion order (and therefore
        :meth:`save_results` output) byte-identical.  Building a task
        applies the graph-name clash check, so a clashing graph is
        rejected before any worker runs.
        """
        from repro.core.parallel import CellTask, execute_tasks

        tasks = []
        for graph_or_name in inputs:
            for a in algorithms:
                pending = tuple(
                    v.value for v in (Variant.BASELINE, Variant.RACE_FREE)
                    if not self._cell_done(
                        self._memo_key(a, graph_or_name, device, v)[0]))
                if pending:
                    tasks.append(CellTask(a, graph_or_name, device,
                                          pending))
        execute_tasks(self._worker_config(), tasks, jobs,
                      self._merge_parallel_record,
                      task_deadline_s=self.task_deadline_s)

    # ------------------------------------------------------------------
    # Result persistence (the artifact's ./results/ raw-runtime logs)
    # ------------------------------------------------------------------
    def _result_records(self) -> list[dict]:
        return [r.to_record() for r in self._results.values()]

    def save_results(self, path: str | Path) -> None:
        """Write every memoized runtime to a JSON log.

        The analog of the paper artifact's ``./results/`` directory:
        raw runtimes per (algorithm, input, device, variant), so table
        generation can be re-done without re-running the simulations.
        The write is crash-safe (temp file + atomic rename): a crash
        mid-save cannot leave a truncated log behind.
        """
        results, _ = self._result_texts.encode(self._results)
        atomic_write_text(path, json_document([
            ("reps", self.reps), ("scale", self.scale),
            ("results", results)]))

    def _load_payload(self, path: str | Path) -> dict:
        """Parse and protocol-check a saved log; StudyError on damage."""
        try:
            payload = json.loads(Path(path).read_text(encoding="utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise StudyError(
                f"corrupt or partial results file {path}: {exc}"
            ) from exc
        if not isinstance(payload, dict) or "results" not in payload:
            raise StudyError(f"{path} is not a study results file")
        if payload.get("reps") != self.reps or payload.get("scale") != self.scale:
            raise StudyError(
                "saved results were produced with a different reps/scale "
                f"({payload.get('reps')}/{payload.get('scale')} vs "
                f"{self.reps}/{self.scale})"
            )
        return payload

    def load_results(self, path: str | Path) -> int:
        """Pre-populate the memo from a saved log; returns the number of
        configurations loaded.  Loaded entries carry no ``last_run``
        (outputs are not persisted), so ``validate`` does not apply.
        Raises :class:`~repro.errors.StudyError` (not a bare JSON error)
        on corrupt or truncated files.  All-or-nothing: records are
        staged into a local map and committed to the memo only after
        every one has parsed, so a malformed record midway through the
        file cannot leave the study half-loaded."""
        payload = self._load_payload(path)
        staged: dict[tuple, RunResult] = {}
        try:
            for rec in payload["results"]:
                result = RunResult.from_record(rec)
                staged[result.key] = result
        except (KeyError, TypeError, ValueError) as exc:
            raise StudyError(
                f"malformed record in results file {path}: {exc!r}"
            ) from exc
        self._results.update(staged)
        return len(staged)

    # ------------------------------------------------------------------
    def _validate(self, algo: AlgorithmInfo, graph: CSRGraph,
                  run: PerfRun) -> None:
        from repro.algorithms import verify

        out = run.output
        if algo.key == "cc":
            verify.check_components(graph, out["labels"])
        elif algo.key == "gc":
            verify.check_coloring(graph, out["colors"])
        elif algo.key == "mis":
            verify.check_mis(graph, out["in_set"])
        elif algo.key == "mst":
            verify.check_mst(graph, out["in_mst"])
        elif algo.key == "scc":
            verify.check_scc(graph, out["labels"])
        elif algo.key == "apsp":
            verify.check_apsp(graph, out["dist"])


def paper_properties(name: str, scale: float = 1.0) -> tuple[int, int, float]:
    """(edge count, vertex count, average degree) of a suite input —
    the Table IX correlates; taken from the *scaled* graph actually run.

    ``scale`` must match the study that produced the speedups (a
    ``REPRO_SCALE != 1`` sweep correlates against differently sized
    graphs than the default suite).  Served from the shared suite
    cache, so repeated correlation passes never rebuild CSR arrays.
    """
    graph = load_suite_graph(name, scale=scale)
    return (graph.num_edges, graph.num_vertices,
            graph.num_edges / max(1, graph.num_vertices))
