"""Multi-process cell execution: the one supervisor of worker processes.

The paper's evaluation is a (algorithm x input x device x variant x
reps) grid of *independent* cells — every simulated runtime depends
only on its own (algorithm, graph, variant, seed, staleness class) and
the device constants, never on other cells.  This module is the only
code that creates worker processes, and it has two front ends:

* :func:`execute_tasks` — :meth:`repro.core.study.Study.speedup_table`
  and :meth:`repro.core.resilience.ResilientStudy.sweep` with
  ``jobs > 1`` (``repro sweep --jobs N``) build one :class:`CellTask`
  per missing (algorithm, input) pair and get their records merged back
  on the calling thread **in submission order** — so the memo (and
  therefore ``save_results`` output, speedup tables, and checkpoints)
  is byte-identical to the serial path;
* :class:`~repro.service.fleet.FleetExecutor` — ``repro serve
  --workers N``: one long-lived :class:`Supervisor` fed one cell per
  request.

A :class:`Supervisor` runs N worker *slots*.  Each slot is a forked
process holding a private :class:`~repro.core.study.Study` built from
the parent's :class:`WorkerConfig` (same reps/scale/validate/retry
policy, same fault plans and memory model — a worker never
checkpoints, so it needs no durability layer — and a
:class:`~repro.perf.trace.TraceCache` on the parent's
on-disk trace directory when one is configured — that shared disk
layer is how workers pricing different devices reuse one functional
execution per staleness class).  A supervisor thread watches the slots
over duplex pipes:

* pipe EOF detects a killed worker at once, 20 missed heartbeats a
  frozen one, and ``task_deadline_s`` one that stalls mid-task while
  still heartbeating;
* every slot holds up to two dispatches — one running, one queued in
  its pipe — so a worker never idles while the parent merges;
* a dead slot's outstanding dispatches are redispatched **at most
  once** (each to the freshest empty slot, which under
  ``disrupt_generations``-bounded kill plans is the one that survives);
  a task lost twice is reported ``lost`` instead of looping;
* a per-slot flap :class:`~repro.utils.breaker.CircuitBreaker` evicts
  a slot that keeps dying, so a crash loop cannot starve its siblings.

Outcomes land on :attr:`Supervisor.outcomes`, which each front end
drains on its own thread; merges never run on the supervisor thread.

Knobs: ``Study(jobs=N)`` / ``speedup_table(..., jobs=N)`` /
``repro sweep --jobs N``, all defaulting to the ``REPRO_JOBS``
environment variable (unset = 1 = serial, no worker is ever created),
and ``Study.task_deadline_s`` (unset = no per-task deadline).
"""

from __future__ import annotations

import multiprocessing as mp
import multiprocessing.connection as mp_connection
import os
import queue
import stat
import threading
import time
from collections import deque
from dataclasses import dataclass, replace
from typing import Callable

from repro.core.variants import Variant
from repro.errors import StudyError, WorkerTaskError
from repro.telemetry.metrics import SCOPE_PROCESS, get_registry
from repro.utils.breaker import CircuitBreaker

JOBS_ENV = "REPRO_JOBS"


def resolve_jobs(jobs: int | None = None) -> int:
    """Effective worker count: explicit argument, else ``REPRO_JOBS``,
    else 1 (serial)."""
    if jobs is None:
        raw = os.environ.get(JOBS_ENV, "").strip()
        if not raw:
            return 1
        try:
            jobs = int(raw)
        except ValueError:
            raise StudyError(
                f"{JOBS_ENV} must be an integer, got {raw!r}"
            ) from None
    jobs = int(jobs)
    if jobs < 1:
        raise StudyError(f"jobs must be >= 1, got {jobs}")
    return jobs


@dataclass(frozen=True)
class WorkerConfig:
    """Everything a worker needs to rebuild the parent's policy.

    All fields are picklable; ``faults`` and ``budget`` carry the
    study's fault plan and cell budget so injected fault streams
    (derived from the plan seed plus the cell key) are identical to the
    serial path's, and ``memory_model`` prices every run under the
    parent's consistency model.
    """

    reps: int
    scale: float
    validate: bool
    retries: int = 0
    backoff_s: float = 0.0
    budget: object | None = None
    faults: object | None = None
    memory_model: object | None = None
    trace_dir: str | None = None
    #: when true, workers run with telemetry enabled and ship their
    #: metric/span snapshots back as per-task ``telemetry`` records
    telemetry: bool = False
    #: optional :class:`~repro.core.hostfaults.HostFaultPlan`; workers
    #: re-install it so injected storage faults and worker
    #: kills/stalls follow the parent's deterministic plan
    hostfaults: object | None = None


@dataclass(frozen=True)
class CellTask:
    """One (algorithm, input, device) cell and the variants still to
    run.  ``graph_or_name`` is a suite name or a
    :class:`~repro.graphs.csr.CSRGraph`; ``budget`` is the cell's
    :class:`~repro.core.study.CellBudget` (None keeps the worker
    study's configured budget)."""

    algorithm: str
    graph_or_name: object
    device: str
    variants: tuple[str, ...]
    budget: object | None = None

    @property
    def key(self) -> tuple[str, str, str]:
        """The (algorithm, input name, device) identity of the cell."""
        name = getattr(self.graph_or_name, "name", self.graph_or_name)
        return self.algorithm, str(name), self.device

    def describe(self) -> str:
        return "/".join(self.key)


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------

def _close_foreign_sockets(keep_fd: int) -> None:
    """Close inherited sockets that belong to the parent process.

    A worker forked mid-run inherits every descriptor the parent holds
    at fork time: a service's listening socket, any *accepted client
    connections*, and the socketpairs of sibling workers.  A long-lived
    child keeping a client socket open means the peer never sees EOF
    after the server closes its side, and a child holding a sibling's
    pipe hides that sibling's death from the supervisor.  Only
    ``keep_fd`` (this worker's own duplex pipe, itself a socketpair)
    survives.
    """
    try:
        fds = [int(name) for name in os.listdir("/proc/self/fd")]
    except OSError:  # pragma: no cover - non-/proc platforms
        fds = list(range(3, 256))
    for fd in fds:
        if fd == keep_fd or fd < 3:
            continue
        try:
            if stat.S_ISSOCK(os.fstat(fd).st_mode):
                os.close(fd)
        except OSError:
            continue


def _worker_study(config: WorkerConfig):
    """Build the worker's private study from the parent's policy."""
    import contextlib
    import signal

    from repro import telemetry
    from repro.core import hostfaults
    from repro.core.study import Study
    from repro.perf.trace import TraceCache

    # a forked worker inherits the parent's graceful-interrupt handler;
    # in a worker that handler would turn teardown signals into
    # spurious SweepInterrupted tracebacks — interruption policy
    # belongs to the parent, so restore the defaults here
    with contextlib.suppress(OSError, ValueError):
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    with contextlib.suppress(OSError, ValueError):
        signal.signal(signal.SIGTERM, signal.SIG_DFL)

    # a forked worker inherits the parent's registry object — reset to
    # a fresh one (or to disabled) so shipped snapshots are pure deltas
    # and nothing the parent already counted is counted again
    if config.telemetry:
        telemetry.enable()
    else:
        telemetry.disable()
    # (re-)install the host-fault plan: under a spawn context the
    # worker starts clean, under fork it inherits the parent's hook —
    # either way the config is the single source of truth
    if config.hostfaults is not None:
        hostfaults.install(config.hostfaults)
    else:
        hostfaults.uninstall()
    # workers never validate against the parent's retained outputs, so
    # they keep memory lean; the disk layer (when configured) is the
    # channel that shares recordings between workers and sweeps
    cache = TraceCache(disk_dir=config.trace_dir,
                       retain_outputs=config.validate)
    return Study(reps=config.reps, scale=config.scale,
                 validate=config.validate, trace_cache=cache,
                 memory_model=config.memory_model, retries=config.retries,
                 backoff_s=config.backoff_s, budget=config.budget,
                 faults=config.faults)


def _run_task(study, task: CellTask) -> list[dict]:
    """Execute every pending variant of one task; one record per
    variant, plus this task's telemetry deltas.

    Every variant runs even after a failed baseline — exactly what the
    serial :meth:`~repro.core.resilience.ResilientStudy.speedup_cell`
    does — so the ledger memo matches the serial path's.
    """
    variants = [Variant(value) for value in task.variants]
    # a re-requested failed cell must actually execute: the service's
    # breaker, not this memo, remembers failures
    study.forget_failures(*task.key, variants)
    if task.budget is not None:
        study.budget = task.budget
    records: list[dict] = []
    for variant in variants:
        out = study.run_cell(task.algorithm, task.graph_or_name,
                             task.device, variant)
        records.append({"kind": out.KIND, **out.to_record()})
    _append_telemetry_record(records)
    return records


def _append_telemetry_record(records: list[dict]) -> None:
    """Ship this task's metric/span deltas (and reset them).

    Snapshot-then-clear makes each record a pure per-task delta, so the
    parent merging records in submission order performs exactly the
    write sequence the serial path would have.
    """
    from repro.telemetry.spans import get_spans

    registry = get_registry()
    if not registry.enabled:
        return
    spans = get_spans()
    records.append({
        "kind": "telemetry",
        "snapshot": registry.snapshot(),
        "spans": spans.snapshot(),
        "worker": str(os.getpid()),
    })
    registry.clear()
    spans.clear()


def _worker_main(conn, config: WorkerConfig, graphs: tuple, slot_id: int,
                 generation: int, heartbeat_s: float) -> None:
    """One worker process: heartbeat, then run tasks until told to stop.

    Messages in are ``(seq, CellTask)`` or ``None`` (stop); a task whose
    ``graph_or_name`` is an int names an entry of ``graphs``.  Messages
    out are ``("beat",)``, ``("done", seq, records)`` and
    ``("error", seq, message)`` — an exception raised by a task is
    reported, and the worker lives on.
    """
    from repro.core import hostfaults

    _close_foreign_sockets(conn.fileno())
    study = _worker_study(config)
    send_lock = threading.Lock()
    stop_beat = threading.Event()

    def send(msg) -> None:
        with send_lock:
            conn.send(msg)

    def beat() -> None:
        while not stop_beat.wait(heartbeat_s):
            try:
                send(("beat",))
            except (OSError, ValueError):
                return

    threading.Thread(target=beat, name=f"repro-beat-{slot_id}",
                     daemon=True).start()
    try:
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                break
            if msg is None:
                break
            seq, task = msg
            if isinstance(task.graph_or_name, int):
                task = replace(task, graph_or_name=graphs[task.graph_or_name])
            # the injected kill/stall window: deterministic on the
            # (slot, cell) identity, bounded by the slot generation
            hostfaults.maybe_disrupt(hostfaults.active_plan(), slot_id,
                                     task.key, generation)
            try:
                reply = ("done", seq, _run_task(study, task))
            except Exception as exc:
                reply = ("error", seq, repr(exc))
            try:
                send(reply)
            except (OSError, ValueError):
                break
    finally:
        stop_beat.set()
        conn.close()


# ----------------------------------------------------------------------
# Supervisor side
# ----------------------------------------------------------------------

def _count(name: str, help_text: str) -> None:
    reg = get_registry()
    if reg.enabled:
        reg.counter(name, help_text, scope=SCOPE_PROCESS).inc(1)


class OrderedMerge:
    """Stage items by submission index; merge them strictly in index
    order — the order the serial sweep would have produced them, which
    keeps the memo (and so ``save_results`` output and checkpoints)
    byte-identical however the workers finish."""

    def __init__(self, merge: Callable[[object], None]) -> None:
        self._merge = merge
        self._staged: dict[int, object] = {}
        self.merged = 0

    def stage(self, index: int, item) -> None:
        self._staged[index] = item
        while self.merged in self._staged:
            self._merge(self._staged.pop(self.merged))
            self.merged += 1


@dataclass
class _Dispatch:
    """One submitted task and how often it has been sent to a slot."""

    task: CellTask
    #: called once, at first dispatch; False means the submitter has
    #: abandoned the task (it is reported ``cancelled``, never run)
    claim: Callable[[], bool] | None
    dispatches: int = 0


class _Slot:
    """One supervised worker slot across its respawn generations."""

    __slots__ = ("slot_id", "proc", "conn", "generation", "state",
                 "outstanding", "started", "last_beat", "beat_flagged",
                 "dispatched", "completed")

    def __init__(self, slot_id: int) -> None:
        self.slot_id = slot_id
        self.proc = None
        self.conn = None
        self.generation = -1
        self.state = "dead"     # idle | busy | dead | evicted
        #: dispatched task seqs in pipe order; the head is running
        self.outstanding: list[int] = []
        #: when the head of ``outstanding`` started running
        self.started = 0.0
        self.last_beat = 0.0
        self.beat_flagged = False
        self.dispatched = 0
        self.completed = 0

    @property
    def live(self) -> bool:
        return self.state in ("idle", "busy")


class Supervisor:
    """N worker slots behind one supervisor thread (module docstring).

    :meth:`submit` queues a task and returns its sequence number; each
    task's fate arrives on :attr:`outcomes` as ``(kind, seq, payload)``
    with kind ``"done"`` (payload: the records), ``"error"`` (the
    worker's exception text), ``"lost"`` (why: killed twice, or no live
    slot left) or ``"cancelled"``.  :meth:`close` returns only after
    every worker process has been joined.

    ``graphs`` are handed to every worker when it is forked; a task on
    one of them ships the graph's index, not its pickled arrays — so a
    dispatch is a few bytes and never blocks on a busy worker's pipe.
    """

    #: heartbeats a worker may miss before it is flagged (telemetry),
    #: and before it is declared dead and torn down
    MISS_AFTER = 3
    DEAD_AFTER = 20
    #: dispatches a slot holds at once: one running, one queued
    DEPTH = 2

    def __init__(self, config: WorkerConfig, workers: int, *,
                 graphs: tuple = (), heartbeat_s: float = 0.5,
                 task_deadline_s: float | None = None,
                 flap_threshold: int = 3, flap_cooldown_s: float = 30.0,
                 on_event: Callable[[dict], None] | None = None) -> None:
        if task_deadline_s is not None and task_deadline_s <= 0:
            raise StudyError(
                f"task deadline must be > 0, got {task_deadline_s}")
        self.config = config
        self.graphs = graphs
        self._graph_index = {id(g): i for i, g in enumerate(graphs)}
        self.heartbeat_s = heartbeat_s
        self.task_deadline_s = task_deadline_s
        self.on_event = on_event
        self.outcomes: queue.SimpleQueue = queue.SimpleQueue()
        self.flap_breaker = CircuitBreaker(threshold=flap_threshold,
                                           cooldown_s=flap_cooldown_s)
        #: observability counters (also exported as telemetry)
        self.respawns = 0
        self.redispatches = 0
        self.heartbeat_misses = 0
        self.evictions = 0
        self._lock = threading.Lock()
        self._tasks: dict[int, _Dispatch] = {}   # submitted, unreported
        self._queue: deque[int] = deque()
        self._seq = 0
        # fork inherits warm module state (algorithm registry, suite
        # graph cache) where available; else the platform default
        methods = mp.get_all_start_methods()
        self._ctx = mp.get_context("fork" if "fork" in methods else None)
        self._wake_r, self._wake_w = os.pipe()
        os.set_blocking(self._wake_r, False)
        self.slots = [_Slot(i) for i in range(workers)]
        for slot in self.slots:
            self._spawn(slot)
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._supervise, name="repro-supervisor", daemon=True)
        self._thread.start()

    # ------------------------------------------------------------------
    # Front-end surface
    # ------------------------------------------------------------------
    def submit(self, task: CellTask,
               claim: Callable[[], bool] | None = None) -> int:
        """Queue ``task``; its outcome arrives on :attr:`outcomes`."""
        with self._lock:
            seq = self._seq
            self._seq += 1
            self._tasks[seq] = _Dispatch(task, claim)
            self._queue.append(seq)
        os.write(self._wake_w, b"\0")
        return seq

    def close(self, kill: bool = False) -> None:
        """Stop every worker and join it (so ``RUSAGE_CHILDREN`` counts
        it).  Idle workers get a stop message and a join grace;
        stragglers — and everyone when ``kill`` — are SIGKILLed."""
        if not self._stop.is_set():
            self._stop.set()
            os.write(self._wake_w, b"\0")
            self._thread.join()
            os.close(self._wake_r)
            os.close(self._wake_w)
        with self._lock:
            for slot in self.slots:
                if slot.live and not kill:
                    try:
                        slot.conn.send(None)
                    except (OSError, ValueError):
                        pass
            for slot in self.slots:
                if slot.proc is not None:
                    if kill:
                        slot.proc.kill()
                    slot.proc.join(timeout=2.0)
                    if slot.proc.is_alive():
                        slot.proc.kill()
                        slot.proc.join()
                if slot.conn is not None:
                    slot.conn.close()
                    slot.conn = None
                if slot.live:
                    slot.state = "dead"

    def status(self) -> dict:
        with self._lock:
            workers = [{
                "id": s.slot_id,
                "pid": s.proc.pid if s.proc is not None else None,
                "generation": s.generation,
                "state": s.state,
                "dispatched": s.dispatched,
                "completed": s.completed,
            } for s in self.slots]
        return {"workers": workers, "respawns": self.respawns,
                "redispatches": self.redispatches,
                "heartbeat_misses": self.heartbeat_misses,
                "evictions": self.evictions}

    @property
    def degraded(self) -> bool:
        """True when a slot was evicted (its flap breaker opened) or
        every worker is gone."""
        with self._lock:
            return (any(s.state == "evicted" for s in self.slots)
                    or not any(s.live for s in self.slots))

    # ------------------------------------------------------------------
    # Slot lifecycle (supervisor thread, or before it starts/after stop)
    # ------------------------------------------------------------------
    def _emit(self, event: dict) -> None:
        callback = self.on_event
        if callback is not None:
            try:
                callback(event)
            except Exception:  # pragma: no cover - observer bug
                pass

    def _report(self, seq: int, kind: str, payload) -> None:
        self._tasks.pop(seq)
        self.outcomes.put((kind, seq, payload))

    def _spawn(self, slot: _Slot) -> None:
        """(Re)start one slot's worker process, one generation up."""
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        slot.generation += 1
        proc = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, self.config, self.graphs, slot.slot_id,
                  slot.generation, self.heartbeat_s),
            name=f"repro-worker-{slot.slot_id}-g{slot.generation}",
            daemon=True)
        proc.start()
        child_conn.close()
        slot.proc = proc
        slot.conn = parent_conn
        slot.state = "idle"
        slot.last_beat = time.monotonic()
        slot.beat_flagged = False
        if slot.generation > 0:
            self.respawns += 1
            _count("repro_fleet_respawns_total",
                   "Worker slots respawned after a death")
        self._emit({"event": "worker_spawn", "worker": slot.slot_id,
                    "generation": slot.generation, "pid": proc.pid})

    def _worker_died(self, slot: _Slot, why: str) -> None:
        """Tear a slot down, redispatch its tasks, respawn or evict."""
        if not slot.live:
            return
        lost, slot.outstanding = slot.outstanding, []
        slot.state = "dead"
        if slot.proc.is_alive():
            slot.proc.kill()
        slot.proc.join(timeout=2.0)
        slot.conn.close()
        slot.conn = None
        self.flap_breaker.record_failure(slot.slot_id)
        self._emit({"event": "worker_exit", "worker": slot.slot_id,
                    "generation": slot.generation, "why": why})
        # reversed appendleft keeps the lost tasks in submission order
        # at the head of the queue
        for seq in reversed(lost):
            dispatch = self._tasks[seq]
            if dispatch.dispatches >= 2:
                # redispatched once already: give up instead of
                # bouncing the task around a dying fleet
                self._report(seq, "lost",
                             f"lost twice to worker deaths ({why})")
                continue
            self.redispatches += 1
            _count("repro_fleet_redispatches_total",
                   "Dispatched tasks redispatched after their worker died")
            self._queue.appendleft(seq)
            algorithm, name, device = dispatch.task.key
            self._emit({"event": "failover", "worker": slot.slot_id,
                        "generation": slot.generation,
                        "cell": {"algorithm": algorithm, "input": name,
                                 "device": device},
                        "why": why})
        if self.flap_breaker.allow(slot.slot_id):
            self._spawn(slot)
        else:
            slot.state = "evicted"
            self.evictions += 1
            _count("repro_fleet_evictions_total",
                   "Worker slots evicted by their flap circuit-breaker")
            self._emit({"event": "worker_evicted", "worker": slot.slot_id,
                        "generation": slot.generation})

    # ------------------------------------------------------------------
    # Supervisor loop
    # ------------------------------------------------------------------
    def _supervise(self) -> None:
        try:
            self._watch()
        except Exception as exc:
            # e.g. a respawn's fork failing under memory pressure: report
            # every unfinished task so no front end waits forever
            with self._lock:
                for seq in list(self._tasks):
                    self._report(seq, "error",
                                 f"worker supervisor failed: {exc!r}")
            raise

    def _watch(self) -> None:
        tick = max(0.01, min(0.05, self.heartbeat_s / 2))
        while True:
            conns = {s.conn: s for s in self.slots if s.live}
            try:
                ready = mp_connection.wait([self._wake_r, *conns],
                                           timeout=tick)
            except OSError:  # a pipe died mid-wait
                ready = []
            if self._stop.is_set():
                return
            with self._lock:
                for conn in ready:
                    if conn == self._wake_r:
                        os.read(self._wake_r, 4096)
                        continue
                    slot = conns[conn]
                    if slot.conn is conn:
                        self._receive(slot)
                self._check_health()
                self._assign()

    def _receive(self, slot: _Slot) -> None:
        try:
            msg = slot.conn.recv()
        except (EOFError, OSError):
            self._worker_died(slot, "pipe closed")
            return
        now = time.monotonic()
        slot.last_beat = now
        slot.beat_flagged = False
        if msg[0] == "beat":
            return
        kind, seq, payload = msg
        slot.outstanding.remove(seq)
        slot.started = now  # the next queued task starts now
        if not slot.outstanding:
            slot.state = "idle"
        slot.completed += 1
        self.flap_breaker.record_success(slot.slot_id)
        self._report(seq, kind, payload)

    def _check_health(self) -> None:
        now = time.monotonic()
        for slot in self.slots:
            if not slot.live:
                continue
            if not slot.proc.is_alive():
                self._worker_died(slot, "process exited")
                continue
            silent = now - slot.last_beat
            if (silent > self.MISS_AFTER * self.heartbeat_s
                    and not slot.beat_flagged):
                slot.beat_flagged = True
                self.heartbeat_misses += 1
                _count("repro_fleet_heartbeat_misses_total",
                       "Heartbeat windows a worker missed")
            if silent > self.DEAD_AFTER * self.heartbeat_s:
                self._worker_died(slot, "heartbeat lost")
                continue
            if (slot.outstanding and self.task_deadline_s is not None
                    and now - slot.started > self.task_deadline_s):
                # a stalled worker still heartbeats — the per-task
                # deadline is what catches it (kill + redispatch)
                self._worker_died(slot, "task deadline expired")

    def _assign(self) -> None:
        while self._queue:
            live = [s for s in self.slots if s.live]
            if not live:
                # every slot is gone: report what is queued rather
                # than letting the front end wait forever
                while self._queue:
                    self._report(self._queue.popleft(), "lost",
                                 "lost: no live workers remain")
                return
            seq = self._queue[0]
            dispatch = self._tasks[seq]
            if dispatch.dispatches:
                # a redispatch goes to the freshest empty slot — under
                # generation-bounded kill plans that is the one that
                # will not be killed again
                free = [s for s in live if not s.outstanding]
                if not free:
                    return
                slot = max(free, key=lambda s: (s.generation, -s.slot_id))
            else:
                free = [s for s in live if len(s.outstanding) < self.DEPTH]
                if not free:
                    return
                slot = min(free,
                           key=lambda s: (len(s.outstanding), s.slot_id))
            self._queue.popleft()
            if (not dispatch.dispatches and dispatch.claim is not None
                    and not dispatch.claim()):
                self._report(seq, "cancelled", None)
                continue
            dispatch.dispatches += 1
            if not slot.outstanding:
                slot.started = time.monotonic()
            slot.outstanding.append(seq)
            slot.state = "busy"
            slot.dispatched += 1
            task = dispatch.task
            index = self._graph_index.get(id(task.graph_or_name))
            if index is not None:
                task = replace(task, graph_or_name=index)
            try:
                slot.conn.send((seq, task))
            except (OSError, ValueError):
                self._worker_died(slot, "dispatch failed")


def execute_tasks(config: WorkerConfig, tasks: list[CellTask], jobs: int,
                  merge: Callable[[dict], None],
                  task_deadline_s: float | None = None) -> None:
    """Run ``tasks`` on ``jobs`` workers, merging records serially.

    Every task is submitted up front, but ``merge`` runs on the calling
    thread, one record per variant, strictly in submission order — the
    order the serial sweep would have produced — even across worker
    deaths and redispatches.

    A task a worker *raises* on (as opposed to dying) is a harness bug,
    not a host fault: it propagates as
    :class:`~repro.errors.WorkerTaskError` naming the (algorithm,
    input, device) cell.  A task lost to worker deaths twice raises
    :class:`~repro.errors.StudyError` naming the cell.  Either error —
    or a :class:`~repro.errors.SweepInterrupted` raised while waiting —
    kills the workers and propagates.  Returns only after every worker
    has been joined.
    """
    if not tasks:
        return
    staging = OrderedMerge(lambda records: [merge(r) for r in records])
    graphs = {id(t.graph_or_name): t.graph_or_name for t in tasks
              if not isinstance(t.graph_or_name, str)}
    supervisor = Supervisor(config, min(jobs, len(tasks)),
                            graphs=tuple(graphs.values()),
                            task_deadline_s=task_deadline_s)
    try:
        for task in tasks:
            supervisor.submit(task)
        for _ in tasks:
            kind, seq, payload = supervisor.outcomes.get()
            if kind == "done":
                staging.stage(seq, payload)
            elif kind == "error":
                raise WorkerTaskError(
                    f"cell task {tasks[seq].describe()} failed in a "
                    f"worker: {payload}")
            else:
                raise StudyError(
                    f"cell task {tasks[seq].describe()} {payload} — "
                    "workers are dying faster than the sweep can make "
                    "progress")
    except BaseException:
        supervisor.close(kill=True)
        raise
    supervisor.close()
