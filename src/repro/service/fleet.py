"""The worker fleet: N supervised sweep processes behind one listener.

:class:`FleetExecutor` is a drop-in replacement for
:class:`~repro.service.scheduler.StudyExecutor` (same ``submit`` /
``results_payload`` / ``checkpoint_now`` / ``shutdown`` surface) that
executes cells on the worker processes of one
:class:`~repro.core.parallel.Supervisor` — the same supervisor, worker
routine and submission-order staging that ``repro sweep --jobs N``
runs on (heartbeats, redispatch at most once, per-slot flap breaker;
see :mod:`repro.core.parallel`).  On top of it the fleet adds:

* the parent's **ledger study**: completed records are folded into it
  strictly in submission order by a merge thread, and a future
  resolves only after its cell is merged — so ``/v1/results`` and
  checkpoints stay byte-identical to the single-worker serial path;
* **memo and store serving**: a cell both of whose variants are in the
  ledger resolves at once, and an optional
  :class:`~repro.service.store.ResultStore` serves published cells
  without dispatching (store-served cells do not count as executed and
  carry no telemetry records, so nothing is priced twice) and receives
  every fully-``ok`` cell for other replicas;
* **futures**: one per submitted cell; a cell lost to worker deaths
  twice resolves to ``CellFailure(reason="fleet")``;
* **events**, ``fleet_status`` and the ``fleet_degraded`` readiness
  signal.

Worker kill/stall injection rides the host-fault layer:
:func:`repro.core.hostfaults.maybe_disrupt` draws on the installed plan
keyed on (slot, cell) and the slot's *generation*, so
``disrupt_generations=1`` kills every first-generation worker exactly
once and lets respawns make progress.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future
from dataclasses import dataclass

from repro.core.parallel import CellTask, OrderedMerge, Supervisor
from repro.core.resilience import ResilientStudy
from repro.core.study import CellBudget, CellFailure, RunResult, SpeedupCell
from repro.core.variants import Variant
from repro.errors import ServiceError, WorkerTaskError
from repro.service.protocol import CellKey
from repro.service.store import ResultStore


@dataclass
class _FleetTask:
    """One submitted cell: its seat in the merge order and its fate."""

    seat: int                    #: its submission index
    key: CellKey
    future: Future


class FleetExecutor:
    """N supervised worker processes behind the StudyExecutor surface.

    Parameters mirror :class:`~repro.service.scheduler.StudyExecutor`
    plus the supervisor knobs; ``trace_cache`` backs the parent ledger
    and its ``disk_dir`` is the shared layer workers record traces
    into, ``store`` is the optional shared result store, and ``flap_*``
    configure the per-slot respawn circuit-breaker (``flap_threshold``
    consecutive deaths evict the slot).
    """

    def __init__(self, *, workers: int = 2, reps: int = 3,
                 scale: float = 1.0, validate: bool = False,
                 retries: int = 0, backoff_s: float = 0.0,
                 max_steps: int | None = None, faults=None,
                 trace_cache=None, checkpoint=None,
                 store: ResultStore | None = None,
                 heartbeat_s: float = 0.5,
                 flap_threshold: int = 3,
                 flap_cooldown_s: float = 30.0,
                 task_deadline_s: float | None = None) -> None:
        if workers < 1:
            raise ServiceError(f"fleet needs >= 1 worker, got {workers}")
        self.workers = workers
        self._max_steps = max_steps
        self.store = store
        self.study = ResilientStudy(
            reps=reps, scale=scale, validate=validate, retries=retries,
            backoff_s=backoff_s, budget=CellBudget(max_steps=max_steps),
            faults=faults, checkpoint=checkpoint, trace_cache=trace_cache)
        self._study_lock = threading.RLock()
        self._count_lock = threading.Lock()
        self._lock = threading.Lock()
        self._queued = 0
        self._closed = False
        #: optional thread-safe callback receiving fleet event dicts
        self.on_event = None
        self._seats = 0
        self._tasks: dict[int, _FleetTask] = {}     # by seat
        self._by_seq: dict[int, _FleetTask] = {}    # by supervisor seq
        self._staging = OrderedMerge(self._merge)
        self.supervisor = Supervisor(
            self.study._worker_config(), workers, heartbeat_s=heartbeat_s,
            task_deadline_s=task_deadline_s,
            flap_threshold=flap_threshold, flap_cooldown_s=flap_cooldown_s,
            on_event=self._emit)
        self._merger = threading.Thread(
            target=self._drain_outcomes, name="repro-fleet-merge",
            daemon=True)
        self._merger.start()

    # ------------------------------------------------------------------
    # StudyExecutor surface
    # ------------------------------------------------------------------
    @property
    def queued(self) -> int:
        """Cells submitted and not yet resolved."""
        with self._count_lock:
            return self._queued

    @property
    def degraded(self) -> bool:
        cache = self.study.trace_cache
        return cache is not None and cache.degraded

    @property
    def fleet_degraded(self) -> bool:
        """True when the respawn budget has been spent somewhere: a
        slot was evicted (flap breaker open) or every worker is gone."""
        return self.supervisor.degraded

    def submit(self, key: CellKey, budget_s: float | None) -> Future:
        """Queue one cell; returns a ``concurrent.futures.Future``.

        Serving ladder: ledger memo (free) → shared store (merge
        without execution) → dispatch to the fleet.  Cancelling the
        future before a worker picks the cell up skips it entirely.
        """
        with self._count_lock:
            if self._closed:
                raise ServiceError("fleet executor is shut down")
            self._queued += 1
        future: Future = Future()
        future.add_done_callback(self._one_done)

        with self._study_lock:
            study = self.study
            # a fresh service-level attempt at a failed cell must
            # execute and merge
            study.forget_failures(key.algorithm, key.input_name,
                                  key.device)
            pending = tuple(
                v.value for v in Variant
                if (key.algorithm, key.input_name, key.device, v)
                not in study._results)
        if not pending:
            future.set_result(self._cell_from_records(key, []))
            return future

        with self._lock:
            task = _FleetTask(seat=self._seats, key=key, future=future)
            self._seats += 1
            self._tasks[task.seat] = task
            records = self._store_lookup(key)
            if records is not None:
                self._stage(task, records, executed=False)
                self._resolve(task, records)
            else:
                budget = CellBudget(max_seconds=budget_s,
                                    max_steps=self._max_steps)
                seq = self.supervisor.submit(
                    CellTask(key.algorithm, key.input_name, key.device,
                             pending, budget),
                    claim=future.set_running_or_notify_cancel)
                self._by_seq[seq] = task
        return future

    def _one_done(self, _future) -> None:
        with self._count_lock:
            self._queued -= 1

    def results_payload(self) -> dict:
        with self._study_lock:
            return {"reps": self.study.reps, "scale": self.study.scale,
                    "results": self.study._result_records()}

    def save_results(self, path) -> None:
        with self._study_lock:
            self.study.save_results(path)

    def checkpoint_now(self) -> None:
        with self._study_lock:
            if self.study.checkpoint is not None:
                self.study.save_checkpoint()

    def shutdown(self) -> None:
        """Stop the fleet: workers get a stop message and a join
        grace, stragglers are killed, unresolved cells fail."""
        with self._count_lock:
            self._closed = True
        self.supervisor.close()
        self.supervisor.outcomes.put((None, None, None))
        self._merger.join()
        with self._lock:
            for task in list(self._tasks.values()):
                self._resolve_failure(task, "shutdown",
                                      "fleet shut down before the "
                                      "cell completed")

    # ------------------------------------------------------------------
    # Fleet status
    # ------------------------------------------------------------------
    def fleet_status(self) -> dict:
        return dict(self.supervisor.status(),
                    store=self.store.status() if self.store else None)

    def _emit(self, event: dict) -> None:
        callback = self.on_event
        if callback is not None:
            try:
                callback(event)
            except Exception:  # pragma: no cover - observer bug
                pass

    def _store_lookup(self, key: CellKey) -> list[dict] | None:
        if self.store is None:
            return None
        return self.store.lookup(key.algorithm, key.input_name,
                                 key.device)

    # ------------------------------------------------------------------
    # Outcomes: ordered merge, then resolution (the merge thread)
    # ------------------------------------------------------------------
    def _drain_outcomes(self) -> None:
        while True:
            kind, seq, payload = self.supervisor.outcomes.get()
            if kind is None:
                return
            with self._lock:
                task = self._by_seq.pop(seq)
                if kind == "done":
                    self._task_done(task, payload)
                elif kind == "cancelled":
                    # abandoned before any dispatch: fill its seat in
                    # the merge order, nothing else
                    self._stage(task, [], executed=False)
                elif kind == "error":
                    self._stage(task, [], executed=False)
                    if not task.future.done():
                        task.future.set_exception(WorkerTaskError(
                            f"cell task {task.key.describe()} failed in "
                            f"a worker: {payload}"))
                else:
                    self._resolve_failure(task, "fleet", f"cell {payload}")

    def _stage(self, task: _FleetTask, records: list[dict],
               executed: bool) -> None:
        self._tasks.pop(task.seat)
        self._staging.stage(task.seat, (records, executed))

    def _merge(self, item: tuple[list[dict], bool]) -> None:
        records, executed = item
        with self._study_lock:
            before = self.study.cells_executed
            for record in records:
                self.study._merge_parallel_record(record)
            if not executed:
                # store-served cells were computed elsewhere: like
                # memoized/checkpoint-loaded cells they do not count
                self.study.cells_executed = before

    def _task_done(self, task: _FleetTask, records: list[dict]) -> None:
        # stage BEFORE resolving: the moment a study's last future
        # resolves, a client may read /v1/results — every record of
        # every resolved cell must already be folded into the ledger
        self._stage(task, records, executed=True)
        self._resolve(task, records)
        results = [r for r in records if r.get("kind") == RunResult.KIND]
        if self.store is not None and len(results) == len(Variant):
            self.store.publish(task.key.algorithm, task.key.input_name,
                               task.key.device, results)

    def _resolve(self, task: _FleetTask, records: list[dict]) -> None:
        if not task.future.done():
            task.future.set_result(
                self._cell_from_records(task.key, records))

    def _resolve_failure(self, task: _FleetTask, reason: str,
                         message: str) -> None:
        # the seat in the merge order must still be filled (or every
        # later cell's merge would wait forever), and it must be filled
        # before the future resolves — see _task_done
        self._stage(task, [], executed=False)
        if task.future.done():
            return
        task.future.set_result(CellFailure(
            algorithm=task.key.algorithm, input_name=task.key.input_name,
            device_key=task.key.device, variant=Variant.BASELINE.value,
            reason=reason, message=message, attempts=1, elapsed_s=0.0))

    def _cell_from_records(self, key: CellKey, records: list[dict]):
        """The cell a worker's records describe — baseline failure
        first, like ``speedup_cell``; a variant the records do not
        carry comes from the ledger memo."""
        results: dict[Variant, RunResult] = {}
        for record in records:
            if record.get("kind") == CellFailure.KIND:
                return CellFailure.from_record(record)
            if record.get("kind") == RunResult.KIND:
                result = RunResult.from_record(record)
                results[result.variant] = result
        with self._study_lock:
            for variant in Variant:
                memo = self.study._results.get(
                    (key.algorithm, key.input_name, key.device, variant))
                if memo is not None:
                    results.setdefault(variant, memo)
        base = results.get(Variant.BASELINE)
        free = results.get(Variant.RACE_FREE)
        if base is None or free is None:
            return CellFailure(
                algorithm=key.algorithm, input_name=key.input_name,
                device_key=key.device, variant=Variant.BASELINE.value,
                reason="fleet", message="worker returned an incomplete "
                "record set", attempts=1, elapsed_s=0.0)
        return SpeedupCell(key.algorithm, key.input_name, key.device,
                           baseline_ms=base.median_ms,
                           racefree_ms=free.median_ms)
