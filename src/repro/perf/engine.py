"""The performance engine: recorded vectorized execution.

Algorithms at the performance level are ordinary numpy code, but every
access to *shared* data goes through a :class:`Recorder`, which

* looks up the access kind of the named site under the active variant
  (consulting the algorithm's :class:`~repro.core.transform.AccessPlan`
  and the race-removal transform),
* counts the access into the matching bucket of
  :class:`~repro.gpu.timing.AccessStats`, and
* for atomic streams, measures same-address contention (collisions
  within the round's access vector — CC/MST's hot set representatives).

``run_algorithm`` is the single entry point the study framework uses.
It is internally split into **record** (:func:`record_trace` — run the
vectorized algorithm once per staleness class) and **replay**
(:func:`replay_trace` — price a cached trace for a device), with an
optional :class:`~repro.perf.trace.TraceCache` so a multi-device sweep
executes each configuration's functional work once instead of once per
device.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.core.transform import AccessPlan, plan_for, site_kind
from repro.core.variants import Variant
from repro.errors import StudyError
from repro.gpu import tiers
from repro.gpu.accesses import AccessKind, MemoryOrder
from repro.gpu.device import DeviceSpec, device_key
from repro.gpu.timing import AccessStats, TimingModel
from repro.telemetry.metrics import SCOPE_PROCESS, get_registry
from repro.telemetry.spans import get_spans
from repro.perf.trace import (
    ANY_STALENESS,
    Trace,
    output_fingerprint,
    plan_fingerprint,
    stable_config_hash,
    trace_key,
)


@dataclass
class PerfRun:
    """Outcome of one performance-level run."""

    algorithm: str
    variant: Variant
    device: DeviceSpec
    output: dict[str, Any]
    stats: AccessStats
    runtime_ms: float
    rounds: int


class Recorder:
    """Counts the shared-memory traffic of one run.

    The recorder sees the device only through ``staleness_rounds`` (the
    register-caching visibility constant) — this is what makes recorded
    traces device-independent within a staleness class, so the trace
    cache can replay one execution on every device that shares the
    constant.  Pass either a full :class:`DeviceSpec` (the constant is
    taken from it) or ``staleness_rounds`` directly (the record path).
    """

    def __init__(self, plan: AccessPlan, variant: Variant,
                 device: DeviceSpec | None = None, *,
                 staleness_rounds: int | None = None) -> None:
        self.plan = plan
        self.variant = variant
        self.device = device
        if staleness_rounds is None:
            if device is None:
                raise StudyError("pass either device or staleness_rounds")
            staleness_rounds = device.plain_staleness_rounds
        self.staleness_rounds = int(staleness_rounds)
        #: set when an execution actually consumes the constant; traces
        #: that never do are valid for every staleness class
        self.staleness_consulted = False
        self.stats = AccessStats()
        self._footprints: dict[str, float] = {}

    # ------------------------------------------------------------------
    def _count(self, indices: np.ndarray | None, count: float | None) -> float:
        if count is not None:
            return float(count)
        if indices is None:
            raise StudyError("pass either indices or count")
        return float(np.asarray(indices).shape[0])

    def _contention(self, indices: np.ndarray | None) -> float:
        if indices is None:
            return 0.0
        idx = np.asarray(indices)
        if idx.size == 0:
            return 0.0
        return float(idx.shape[0] - np.unique(idx).shape[0])

    def _bucket(self, kind: AccessKind, n: float, store: bool) -> None:
        s = self.stats
        if kind is AccessKind.PLAIN:
            if store:
                s.plain_stores += n
            else:
                s.plain_loads += n
        elif kind is AccessKind.VOLATILE:
            if store:
                s.volatile_stores += n
            else:
                s.volatile_loads += n
        else:
            if store:
                s.atomic_stores += n
            else:
                s.atomic_loads += n

    # ------------------------------------------------------------------
    def _site(self, name: str):
        return plan_for(self.plan, self.variant).site(name)

    #: relative fence strength per memory order (relaxed is free;
    #: seq_cst forbids all reordering and costs double the one-sided
    #: acquire/release orders)
    ORDER_WEIGHT = {
        MemoryOrder.RELAXED: 0.0,
        MemoryOrder.ACQUIRE: 1.0,
        MemoryOrder.RELEASE: 1.0,
        MemoryOrder.ACQ_REL: 1.0,
        MemoryOrder.SEQ_CST: 2.0,
    }

    def _order_extra(self, site, n: float) -> None:
        if site.kind is AccessKind.ATOMIC:
            self.stats.ordered_atomics += n * self.ORDER_WEIGHT[site.order]

    def load(self, site: str, indices: np.ndarray | None = None,
             count: float | None = None) -> None:
        """Record loads at ``site`` (one per index, or ``count``)."""
        s = self._site(site)
        n = self._count(indices, count)
        self._bucket(s.kind, n, store=False)
        self._order_extra(s, n)
        # same-address atomic *loads* do not serialize on the modelled
        # hardware (L2 read combining); only stores and RMWs contend

    def store(self, site: str, indices: np.ndarray | None = None,
              count: float | None = None) -> None:
        """Record stores at ``site``."""
        s = self._site(site)
        n = self._count(indices, count)
        self._bucket(s.kind, n, store=True)
        self._order_extra(s, n)
        if s.kind is AccessKind.ATOMIC:
            self.stats.contended_atomics += self._contention(indices)

    def rmw(self, site: str, indices: np.ndarray | None = None,
            count: float | None = None) -> None:
        """Record read-modify-write atomics (atomic in *both* variants)."""
        s = self._site(site)
        n = self._count(indices, count)
        self.stats.atomic_rmws += n
        self._order_extra(s, n)
        self.stats.contended_atomics += self._contention(indices)

    def structure(self, count: float) -> None:
        """Read-only CSR structure loads: plain in both variants (no
        thread ever writes the graph, so these cannot race)."""
        self.stats.plain_loads += float(count)

    def compute(self, ops: float) -> None:
        """Non-memory work (index arithmetic, comparisons)."""
        self.stats.compute_ops += float(ops)

    def round(self, launches: int = 1) -> None:
        """One host-side iteration: ``launches`` kernel launches."""
        self.stats.rounds += launches

    def touch(self, name: str, nbytes: float) -> None:
        """Declare data footprint (unique bytes) of array ``name``."""
        self._footprints[name] = max(self._footprints.get(name, 0.0),
                                     float(nbytes))
        self.stats.footprint_bytes = sum(self._footprints.values())

    # ------------------------------------------------------------------
    def staleness(self, site: str) -> int:
        """Visibility delay (rounds) readers of ``site`` experience.

        Non-zero only for PLAIN sites — the register-caching compiler
        model — and scaled by the device's staleness constant.
        """
        kind = site_kind(self.plan, self.variant, site)
        if kind is AccessKind.PLAIN:
            return self.visibility_delay()
        return 0

    def visibility_delay(self) -> int:
        """Consume the staleness constant (marks the recording as
        staleness-class-dependent; see :data:`~repro.perf.trace
        .ANY_STALENESS`)."""
        self.staleness_consulted = True
        return self.staleness_rounds


#: scratch-vector bucket layout of :class:`BatchedRecorder`
_BUCKETS = (
    "plain_loads", "plain_stores", "volatile_loads", "volatile_stores",
    "atomic_loads", "atomic_stores", "atomic_rmws", "ordered_atomics",
    "contended_atomics", "compute_ops",
)
_LOAD_IDX = {AccessKind.PLAIN: 0, AccessKind.VOLATILE: 2,
             AccessKind.ATOMIC: 4}
_STORE_IDX = {AccessKind.PLAIN: 1, AccessKind.VOLATILE: 3,
              AccessKind.ATOMIC: 5}
_RMW_IDX, _ORDERED_IDX, _CONTENDED_IDX, _COMPUTE_IDX = 6, 7, 8, 9


class BatchedRecorder(Recorder):
    """Vectorized :class:`Recorder`: ndarray scratch, flushed per round.

    Per-site bucket increments land in a 10-slot float64 scratch vector
    and are folded into :class:`~repro.gpu.timing.AccessStats` once per
    :meth:`round` (and on final :attr:`stats` access) instead of once
    per call.  Site kinds and order weights are resolved once per site
    and cached.  Every increment the engine produces is integer-valued,
    so the regrouped float additions are exact and the resulting stats
    are byte-identical to the per-call recorder's.

    The contention measure replaces the base recorder's per-call
    ``np.unique`` (a sort, O(n log n)) with ``np.bincount`` collision
    counting (O(n + range)) whenever the index range is comparable to
    the stream length, falling back to ``np.unique`` for sparse ranges.
    """

    def __init__(self, plan: AccessPlan, variant: Variant,
                 device: DeviceSpec | None = None, *,
                 staleness_rounds: int | None = None) -> None:
        super().__init__(plan, variant, device,
                         staleness_rounds=staleness_rounds)
        self._scratch = np.zeros(len(_BUCKETS))
        self._resolved: dict[str, tuple[AccessKind, float]] = {}
        self._effective_plan = plan_for(self.plan, self.variant)
        self.flushes = 0

    # base __init__ assigns ``self.stats``; route it through a property
    # so every external read sees a flushed view
    @property
    def stats(self) -> AccessStats:
        self._flush()
        return self._stats

    @stats.setter
    def stats(self, value: AccessStats) -> None:
        self._stats = value

    def _flush(self) -> None:
        sc = getattr(self, "_scratch", None)
        if sc is None or not sc.any():
            return
        # plain floats, not np.float64: stats values flow into metric
        # gauges and JSON exports that expect native scalars
        s = self._stats
        s.plain_loads += float(sc[0])
        s.plain_stores += float(sc[1])
        s.volatile_loads += float(sc[2])
        s.volatile_stores += float(sc[3])
        s.atomic_loads += float(sc[4])
        s.atomic_stores += float(sc[5])
        s.atomic_rmws += float(sc[6])
        s.ordered_atomics += float(sc[7])
        s.contended_atomics += float(sc[8])
        s.compute_ops += float(sc[9])
        sc[:] = 0.0
        self.flushes += 1
        reg = get_registry()
        if reg.enabled:
            reg.counter("repro_simt_batch_recorder_flushes_total",
                        "Scratch-to-stats flushes of the batched recorder",
                        ("algorithm",)).inc(1, self.plan.algorithm)

    def _resolve(self, name: str) -> tuple[AccessKind, float]:
        entry = self._resolved.get(name)
        if entry is None:
            site = self._effective_plan.site(name)
            weight = (self.ORDER_WEIGHT[site.order]
                      if site.kind is AccessKind.ATOMIC else 0.0)
            entry = (site.kind, weight)
            self._resolved[name] = entry
        return entry

    def _contention(self, indices: np.ndarray | None) -> float:
        if indices is None:
            return 0.0
        idx = np.asarray(indices)
        if idx.size == 0:
            return 0.0
        lo = int(idx.min())
        span = int(idx.max()) - lo + 1
        if span <= 4 * idx.size + 1024:
            occupied = np.count_nonzero(
                np.bincount(idx.astype(np.int64) - lo, minlength=span))
            return float(idx.shape[0] - occupied)
        return float(idx.shape[0] - np.unique(idx).shape[0])

    # ------------------------------------------------------------------
    def load(self, site: str, indices: np.ndarray | None = None,
             count: float | None = None) -> None:
        kind, weight = self._resolve(site)
        n = self._count(indices, count)
        sc = self._scratch
        sc[_LOAD_IDX[kind]] += n
        if weight:
            sc[_ORDERED_IDX] += n * weight

    def store(self, site: str, indices: np.ndarray | None = None,
              count: float | None = None) -> None:
        kind, weight = self._resolve(site)
        n = self._count(indices, count)
        sc = self._scratch
        sc[_STORE_IDX[kind]] += n
        if weight:
            sc[_ORDERED_IDX] += n * weight
        if kind is AccessKind.ATOMIC:
            sc[_CONTENDED_IDX] += self._contention(indices)

    def rmw(self, site: str, indices: np.ndarray | None = None,
            count: float | None = None) -> None:
        kind, weight = self._resolve(site)
        n = self._count(indices, count)
        sc = self._scratch
        sc[_RMW_IDX] += n
        if kind is AccessKind.ATOMIC and weight:
            sc[_ORDERED_IDX] += n * weight
        sc[_CONTENDED_IDX] += self._contention(indices)

    def structure(self, count: float) -> None:
        self._scratch[0] += float(count)

    def compute(self, ops: float) -> None:
        self._scratch[_COMPUTE_IDX] += float(ops)

    def round(self, launches: int = 1) -> None:
        self._flush()
        self._stats.rounds += launches

    def touch(self, name: str, nbytes: float) -> None:
        self._footprints[name] = max(self._footprints.get(name, 0.0),
                                     float(nbytes))
        self._stats.footprint_bytes = sum(self._footprints.values())


def make_recorder(plan: AccessPlan, variant: Variant,
                  device: DeviceSpec | None = None, *,
                  staleness_rounds: int | None = None,
                  engine: str | None = None) -> Recorder:
    """Build the recorder for the selected execution tier.

    ``engine`` overrides the process-wide mode from
    :mod:`repro.gpu.tiers` (``interp``/``batched``/``auto``); both
    recorders produce byte-identical :class:`AccessStats`.
    """
    cls = BatchedRecorder if tiers.recorder_batch_enabled(engine) else Recorder
    return cls(plan, variant, device, staleness_rounds=staleness_rounds)


#: relative sigma of the run-to-run noise model (the paper reports a
#: median relative deviation of 0.6 % across its nine hardware runs)
RUNTIME_NOISE_SIGMA = 0.004


def noise_multiplier(algorithm_key: str, variant: Variant,
                     seed: int) -> float:
    """The seeded run-to-run noise factor of one repetition.

    Stands in for hardware variance (clock jitter, scheduling) so the
    paper's median-of-nine protocol remains meaningful on
    configurations whose computation is otherwise seed-invariant.
    Seeded by (seed, algorithm, variant) only — never by the device —
    which is what lets a replayed trace reproduce the direct engine's
    runtime bit-for-bit.  Uses a stable digest, not Python's
    per-process randomized string hash, so the factor is identical
    across interpreter invocations and worker processes.
    """
    rng = np.random.default_rng(
        (seed * 2654435761
         + stable_config_hash(algorithm_key, variant)) & 0xFFFFFFFF
    )
    return 1.0 + float(np.clip(rng.normal(0.0, RUNTIME_NOISE_SIGMA),
                               -0.015, 0.015))


def record_trace(algorithm, graph, variant: Variant, seed: int,
                 staleness_rounds: int, plan: AccessPlan | None = None,
                 engine: str | None = None) -> Trace:
    """Run the functional execution once and capture its trace.

    This is the expensive half of the record/replay split: it executes
    ``perf_runner`` (the full vectorized algorithm) under a
    :class:`Recorder` parameterized only by the staleness class, and
    returns the :class:`~repro.perf.trace.Trace` that
    :func:`replay_trace` can price for *any* device sharing that
    staleness constant.

    ``engine`` picks the recorder tier (see :func:`make_recorder`);
    the recorded stats are byte-identical either way.
    """
    if plan is None:
        plan = algorithm_plan(algorithm)
    recorder = make_recorder(plan, variant,
                             staleness_rounds=staleness_rounds,
                             engine=engine)
    with get_spans().span("perf.record", algorithm=algorithm.key,
                          variant=variant.value, seed=seed):
        output = algorithm.perf_runner(graph, recorder, seed)
    return Trace(
        algorithm=algorithm.key,
        variant=variant,
        seed=seed,
        # a recording that never consumed the constant is valid for
        # every staleness class: key it with the wildcard
        staleness_rounds=(int(staleness_rounds)
                          if recorder.staleness_consulted
                          else ANY_STALENESS),
        graph_fp=graph.fingerprint(),
        plan_fp=plan_fingerprint(plan),
        stats=recorder.stats,
        output_fp=output_fingerprint(output),
        output=output,
    )


def replay_trace(trace: Trace, device: DeviceSpec) -> float:
    """Price a recorded trace for one device (microseconds of work).

    Bit-identical to what the direct engine computes for the same
    (algorithm, graph, variant, seed) on ``device``: the same
    :class:`~repro.gpu.timing.TimingModel` call on the same stats,
    scaled by the same seeded noise factor.
    """
    noise = noise_multiplier(trace.algorithm, trace.variant, trace.seed)
    return TimingModel(device).estimate_ms(trace.stats) * noise


def run_algorithm(algorithm, graph, device: DeviceSpec, variant: Variant,
                  seed: int = 0, faults=None, trace_cache=None,
                  need_output: bool = True, memory_model=None) -> PerfRun:
    """Run one (algorithm, input, device, variant) configuration.

    ``algorithm`` is an :class:`~repro.core.variants.AlgorithmInfo`;
    its ``perf_runner(graph, recorder, seed)`` does the work and returns
    the output arrays.  The runtime is then priced by the timing model,
    plus a small seeded noise term standing in for hardware run-to-run
    variance.

    ``trace_cache`` is an optional
    :class:`~repro.perf.trace.TraceCache`: when the cache holds a trace
    for this (algorithm, graph, variant, seed, staleness-class), the
    functional execution is skipped entirely and the cached stats are
    re-priced for ``device`` — bit-identical to the direct path,
    microseconds instead of a full numpy execution.  ``need_output``
    forces a fresh recording when the cached trace carries no output
    arrays (disk-loaded traces never do); callers that validate
    outputs must set it.  Replayed runs may therefore have
    ``output=None`` when ``need_output`` is false.

    ``faults`` is an optional
    :class:`~repro.gpu.faults.FaultInjector`: it may abort the run with
    a :class:`~repro.errors.TransientKernelFault` before any work, and
    afterwards may stretch the runtime (scheduler stall), raise
    :class:`~repro.errors.DeadlockError` (stuck-stale polling loop), or
    silently corrupt the output arrays (torn/dropped non-atomic
    stores) — each gated on the *variant's* exposure, so race-free
    plans are immune to the data-corrupting kinds.  ``faults=None``
    leaves the run bit-identical to the unfaulted engine.  A faulted
    run never touches the trace cache: injection mutates outputs and
    runtimes in ways a shared recording must not absorb.

    ``memory_model`` (a :class:`~repro.memmodel.models.MemoryModel` or
    spec string) prices the run under that model's semantics: every
    shared atomic site's order is lifted to the model's floor before
    recording, so e.g. ``ptx:acq_rel`` answers "what would this
    variant cost with acquire/release atomics?".  The transformed plan
    has its own fingerprint, so model-priced traces never collide with
    default ones in a shared cache.  None keeps the paper's relaxed
    default (an identity transform).
    """
    plan = algorithm_plan(algorithm)
    if memory_model is not None:
        from repro.memmodel.models import resolve_model

        plan = resolve_model(memory_model).apply_to_plan(plan)
    staleness = device.plain_staleness_rounds

    if faults is not None:
        faults.begin_perf_run(algorithm.key, variant, plan)
        # faulted runs stay on the per-call interpreter recorder: fault
        # plans are exercised and validated against its exact behavior
        trace = record_trace(algorithm, graph, variant, seed, staleness,
                             plan=plan, engine=tiers.ENGINE_INTERP)
        runtime = replay_trace(trace, device)
        runtime = faults.perf_finish(trace.output, runtime)
        return _perf_run(algorithm, variant, device, trace, runtime,
                         input_name=graph.name, source="fault")

    trace = None
    source = "record"
    if trace_cache is not None:
        graph_fp = graph.fingerprint()
        plan_fp = plan_fingerprint(plan)
        key = trace_key(algorithm.key, graph_fp, variant, seed,
                        staleness, plan_fp)
        trace = trace_cache.lookup(key, need_output=need_output)
        if trace is None:
            # staleness-independent recordings live under the wildcard
            trace = trace_cache.lookup(
                trace_key(algorithm.key, graph_fp, variant, seed,
                          ANY_STALENESS, plan_fp),
                need_output=need_output)
        if trace is not None:
            source = "replay"
    if trace is None:
        trace = record_trace(algorithm, graph, variant, seed, staleness,
                             plan=plan)
        if trace_cache is not None:
            trace_cache.store(trace)
    return _perf_run(algorithm, variant, device, trace,
                     replay_trace(trace, device),
                     input_name=graph.name, source=source)


#: cell-granularity labels of every sim-scope run metric — one worker
#: task owns each labelset, which is what keeps float accumulation
#: order (and therefore merged parallel registries) identical to serial
CELL_LABELS = ("algorithm", "input", "device", "variant")


def _publish_run(run: PerfRun, input_name: str, source: str) -> None:
    """Emit the per-run metric family set for one priced run."""
    reg = get_registry()
    if not reg.enabled:
        return
    labels = (run.algorithm, input_name, device_key(run.device),
              run.variant.value)
    reg.counter("repro_perf_runs_total",
                "Performance-level runs priced", CELL_LABELS
                ).inc(1, *labels)
    reg.counter("repro_perf_rounds_total",
                "Host-side kernel rounds executed", CELL_LABELS
                ).inc(run.rounds, *labels)
    reg.histogram("repro_runtime_ms",
                  "Priced runtime of one repetition (ms)", CELL_LABELS
                  ).observe(run.runtime_ms, *labels)
    s = run.stats
    acc = reg.counter("repro_accesses_total",
                      "Shared-memory accesses by class and operation",
                      CELL_LABELS + ("kind", "op"))
    for kind, op, n in (
        ("plain", "load", s.plain_loads),
        ("plain", "store", s.plain_stores),
        ("volatile", "load", s.volatile_loads),
        ("volatile", "store", s.volatile_stores),
        ("atomic", "load", s.atomic_loads),
        ("atomic", "store", s.atomic_stores),
        ("atomic", "rmw", s.atomic_rmws),
    ):
        if n:
            acc.inc(n, *labels, kind, op)
    if s.contended_atomics:
        reg.counter("repro_contended_atomics_total",
                    "Same-address atomic store/RMW collisions", CELL_LABELS
                    ).inc(s.contended_atomics, *labels)
    # the Section VI.A mechanism: atomics and volatiles bypass L1 and
    # are served at L2, so racy->atomic conversion drains the L1
    bypass = (s.atomic_loads + s.atomic_stores + s.atomic_rmws
              + s.volatile_loads + s.volatile_stores)
    if bypass:
        reg.counter("repro_atomic_l1_bypass_total",
                    "Accesses bypassing L1 (atomics + volatiles served "
                    "at L2)", CELL_LABELS).inc(bypass, *labels)
    bd = TimingModel(run.device).estimate(s)
    reg.gauge("repro_l1_hit_rate",
              "L1 hit rate of plain accesses (analytic cache model)",
              CELL_LABELS).set(bd.l1_hit_rate, *labels)
    reg.gauge("repro_l2_hit_rate",
              "L2 hit rate of plain-access L1 misses", CELL_LABELS
              ).set(bd.l2_hit_rate, *labels)
    reg.gauge("repro_atomic_l2_hit_rate",
              "L2 hit rate of L1-bypassing (atomic/volatile) accesses",
              CELL_LABELS).set(bd.atomic_l2_hit_rate, *labels)
    # record vs replay is an operational property of this process's
    # trace cache (shared on disk), not of the simulated execution
    reg.counter("repro_perf_trace_source_total",
                "How each run's trace was obtained", ("source",),
                scope=SCOPE_PROCESS).inc(1, source)


def _perf_run(algorithm, variant: Variant, device: DeviceSpec,
              trace: Trace, runtime: float, *,
              input_name: str = "", source: str = "record") -> PerfRun:
    run = PerfRun(
        algorithm=algorithm.key,
        variant=variant,
        device=device,
        output=trace.output,
        stats=trace.stats,
        runtime_ms=runtime,
        rounds=trace.rounds,
    )
    _publish_run(run, input_name, source)
    return run


def algorithm_plan(algorithm) -> AccessPlan:
    """Fetch the ACCESS_PLAN declared by the algorithm's module."""
    import importlib

    module = importlib.import_module(algorithm.module)
    try:
        return module.ACCESS_PLAN
    except AttributeError:
        raise StudyError(
            f"module {algorithm.module} does not declare ACCESS_PLAN"
        ) from None
