"""The per-byte vector-clock engine that the span-granular shadow of
:mod:`repro.check.vclock` replaced.

Copied verbatim except for the class names (``ByteVectorClockEngine``,
``ByteEpoch``, ``_RefByteShadow``) and the imports, which take
``VectorClock`` and ``conflicts`` from the program.  Tests use it as a
reference: the program's engine must make exactly the ``on_report``
calls this one makes, in the same order.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterable

from repro.check.vclock import VectorClock, conflicts
from repro.gpu.accesses import AccessKind
from repro.gpu.simt import AccessEvent


@dataclass(frozen=True)
class ByteEpoch:
    """One access stamped with its thread clock (FastTrack's ``c@t``)."""

    tid: int
    clock: int
    event: AccessEvent


@dataclass
class _RefByteShadow:
    """Shadow state for one byte of one array."""

    last_write: ByteEpoch | None = None
    #: readers since the last write, newest epoch per thread
    readers: dict[int, ByteEpoch] = field(default_factory=dict)
    #: displaced writes/readers — the predictive window
    write_history: deque = field(default_factory=lambda: deque(maxlen=4))
    read_history: deque = field(default_factory=lambda: deque(maxlen=8))


class ByteVectorClockEngine:
    """Streams :class:`AccessEvent` records through epoch shadow state.

    ``on_report(first, second, byte, predicted) -> bool`` is invoked for
    every racy pair found; returning False stops the analysis (the
    caller implements deduplication and report caps).

    Parameters
    ----------
    history:
        Displaced-access window per byte for predictive detection
        (0 disables prediction entirely).
    memory_model:
        The consistency model supplying atomic happens-before edges
        (a :class:`~repro.memmodel.models.MemoryModel`, spec string, or
        None for the paper's relaxed default, under which atomics never
        synchronize).
    """

    def __init__(self,
                 on_report: Callable[[AccessEvent, AccessEvent, int, bool],
                                     bool],
                 history: int = 4,
                 memory_model=None) -> None:
        from repro.memmodel.models import resolve_model

        self._on_report = on_report
        self._history = history
        self._model = resolve_model(memory_model)
        #: per-(array, start, bucket) release clocks; bucket is "dev"
        #: or ("b", block) for block-scoped releases
        self._release: dict[tuple, VectorClock] = {}
        self._clocks: dict[int, VectorClock] = {}
        self._launch_clock = VectorClock()
        self._thread_launch: dict[int, int] = {}
        self._current_launch: int | None = None
        # per-block barrier bookkeeping, reset at each launch boundary
        self._block_epoch: dict[int, int] = {}
        self._barrier_clock: dict[int, VectorClock] = {}
        self._pending_barrier: dict[int, VectorClock] = {}
        self._thread_epoch: dict[int, int] = {}
        self._shadow: dict[tuple[str, int], _RefByteShadow] = {}

    # ------------------------------------------------------------------
    def _thread_clock(self, tid: int) -> VectorClock:
        vc = self._clocks.get(tid)
        if vc is None:
            vc = self._clocks[tid] = VectorClock()
        return vc

    def _enter_launch(self, launch: int) -> None:
        """All threads of the previous launch synchronize: fold every
        clock into the launch clock and reset the barrier state."""
        if self._current_launch is not None:
            for vc in self._clocks.values():
                self._launch_clock.join(vc)
        self._current_launch = launch
        self._block_epoch.clear()
        self._barrier_clock.clear()
        self._pending_barrier.clear()
        self._thread_epoch.clear()
        # the launch join dominates prior releases; drop their clocks
        self._release.clear()

    def _sync_thread(self, ev: AccessEvent, vc: VectorClock) -> None:
        """Apply launch-boundary and barrier joins owed to this thread."""
        if self._thread_launch.get(ev.tid) != ev.launch:
            vc.join(self._launch_clock)
            self._thread_launch[ev.tid] = ev.launch
        block = ev.block
        if ev.epoch > self._block_epoch.get(block, 0):
            # one or more barriers completed since the last event of
            # this block: fold the participants' clocks into the
            # barrier clock exactly once per transition
            bc = self._barrier_clock.setdefault(block, VectorClock())
            pend = self._pending_barrier.pop(block, None)
            if pend is not None:
                bc.join(pend)
            self._block_epoch[block] = ev.epoch
        if ev.epoch > self._thread_epoch.get(ev.tid, 0):
            bc = self._barrier_clock.get(block)
            if bc is not None:
                vc.join(bc)
            self._thread_epoch[ev.tid] = ev.epoch

    # ------------------------------------------------------------------
    def feed(self, ev: AccessEvent) -> bool:
        """Process one event; returns False when the caller asked to
        stop via ``on_report``."""
        if ev.launch != self._current_launch:
            self._enter_launch(ev.launch)
        vc = self._thread_clock(ev.tid)
        self._sync_thread(ev, vc)
        model = self._model
        is_atomic = ev.access is AccessKind.ATOMIC
        if is_atomic and ev.is_read:
            eff = model.runtime_order(ev.order)
            if model.acquire_syncs(eff):
                key = (ev.span.array, ev.span.start)
                rel = self._release.get((*key, "dev"))
                if rel is not None:
                    vc.join(rel)
                rel = self._release.get((*key, ("b", ev.block)))
                if rel is not None:
                    vc.join(rel)
        clock = vc.advance(ev.tid)
        epoch = ByteEpoch(ev.tid, clock, ev)
        if is_atomic and ev.is_write:
            eff = model.runtime_order(ev.order)
            if model.release_syncs(eff):
                # a block-scoped release (when the model distinguishes
                # scopes) publishes to same-block acquirers only
                bucket = ("dev" if model.scope_syncs(ev.scope,
                                                     same_block=False)
                          else ("b", ev.block))
                dst = self._release.setdefault(
                    (ev.span.array, ev.span.start, bucket), VectorClock())
                dst.join(vc)

        for byte in range(ev.span.start, ev.span.end):
            shadow = self._shadow.get((ev.span.array, byte))
            if shadow is None:
                shadow = _RefByteShadow(
                    write_history=deque(maxlen=self._history),
                    read_history=deque(maxlen=2 * self._history))
                self._shadow[(ev.span.array, byte)] = shadow
            if not self._check_byte(shadow, ev, vc, byte):
                return False
            self._update_byte(shadow, ev, epoch)

        # accumulate this thread's clock toward the next barrier
        pend = self._pending_barrier.setdefault(ev.block, VectorClock())
        pend.join(vc)
        return True

    def analyze(self, events: Iterable[AccessEvent]) -> None:
        for ev in events:
            if not self.feed(ev):
                return

    # ------------------------------------------------------------------
    def _check_byte(self, shadow: _RefByteShadow, ev: AccessEvent,
                    vc: VectorClock, byte: int) -> bool:
        def unordered(e: ByteEpoch) -> bool:
            return (conflicts(e.event, ev)
                    and not vc.contains(e.tid, e.clock))

        lw = shadow.last_write
        if lw is not None and unordered(lw):
            if not self._on_report(lw.event, ev, byte, False):
                return False
        if ev.is_write:
            for reader in shadow.readers.values():
                if unordered(reader):
                    if not self._on_report(reader.event, ev, byte, False):
                        return False
        if self._history:
            for past in shadow.write_history:
                if unordered(past):
                    if not self._on_report(past.event, ev, byte, True):
                        return False
            if ev.is_write:
                for past in shadow.read_history:
                    if unordered(past):
                        if not self._on_report(past.event, ev, byte, True):
                            return False
        return True

    @staticmethod
    def _update_byte(shadow: _RefByteShadow, ev: AccessEvent,
                     epoch: ByteEpoch) -> None:
        if ev.is_write:
            if shadow.last_write is not None:
                shadow.write_history.append(shadow.last_write)
            for reader in shadow.readers.values():
                shadow.read_history.append(reader)
            shadow.readers.clear()
            shadow.last_write = epoch
        if ev.is_read:
            shadow.readers[ev.tid] = epoch
