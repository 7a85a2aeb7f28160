"""Vector-clock happens-before engine with predictive race reports.

This replaces the race detector's shadow-pair scan with FastTrack-style
epoch reasoning (Flanagan & Freund): every access event carries an
*epoch* ``tid@clock``; per-byte shadow state keeps the last-write epoch
and the readers since that write, and an access races with a prior
access iff the prior epoch is not contained in the current thread's
vector clock.  The clock joins model exactly the simulator's
synchronization vocabulary:

* the implicit barrier between kernel launches joins every thread's
  clock (the ordering iGuard reportedly misses, causing its false
  positives);
* ``__syncthreads()`` joins the clocks of all threads in the block
  (per-block barrier clock, one join per epoch transition);
* atomic happens-before edges are *model-supplied*
  (:mod:`repro.memmodel`): under the default ``RelaxedGPU`` model
  relaxed atomics never create edges — matching both libcu++ and the
  paper's codes — while an acquiring atomic read joins the per-location
  release clock left by releasing atomic writes when the model says the
  pair synchronizes (always under SC/TSO, only for
  acquire/release/seq_cst orders under ``RelaxedGPU``/``PTXScoped``).
  A ``PTXScoped`` block-scope release publishes into a per-block
  release bucket that only same-block acquirers join.

**Predictive reports.**  A per-schedule shadow detector forgets a write
as soon as the next write to the same byte lands, so it only flags the
racy pair this execution happened to place adjacently.  Following the
predictive-race line of work ("Predictive Data Race Detection for
GPUs", PAPERS.md), the engine additionally keeps a bounded *history* of
displaced writes and readers per byte: a conflicting access that is
unordered with a displaced entry is a race in some feasible reordering
of the observed trace even if this trace separated the pair — those
reports carry ``predicted=True``.  On race-free programs every
conflicting pair is ordered, so prediction can never introduce a false
positive there.

**Span-granular shadow.**  The state above is defined per byte, but
kernels touch each array in fixed-width pieces, so the engine keeps one
shadow *segment* per ``(array, start)`` with the span width stored: all
bytes of a segment always see the same accesses and therefore hold the
same state.  The segments of an array stay disjoint.  The first access
that overlaps a segment of a different width (a sub-word write into a
word, an 8-byte atomic over two 4-byte pieces) converts that whole
array to per-byte state, copying each segment's state to its bytes;
from then on the array is tracked byte by byte.  A segment check
gathers the racy partners once and reports them for each byte in
ascending order, which is exactly the ``on_report`` call sequence of a
per-byte shadow, so report caps, deduplication and early stops behave
identically.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Iterable, NamedTuple

from repro.gpu.accesses import AccessKind
from repro.gpu.simt import AccessEvent
from repro.telemetry.metrics import SCOPE_PROCESS, get_registry


class VectorClock:
    """A sparse thread→clock map with join / contains operations."""

    __slots__ = ("_c",)

    def __init__(self, init: dict[int, int] | None = None) -> None:
        self._c: dict[int, int] = dict(init) if init else {}

    def get(self, tid: int) -> int:
        return self._c.get(tid, 0)

    def advance(self, tid: int) -> int:
        """Increment ``tid``'s own component; returns the new clock."""
        value = self._c.get(tid, 0) + 1
        self._c[tid] = value
        return value

    def join(self, other: "VectorClock") -> None:
        for tid, clock in other._c.items():
            if clock > self._c.get(tid, 0):
                self._c[tid] = clock

    def contains(self, tid: int, clock: int) -> bool:
        """True iff the epoch ``tid@clock`` happens-before this clock."""
        return clock <= self._c.get(tid, 0)

    def copy(self) -> "VectorClock":
        return VectorClock(self._c)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        body = ", ".join(f"t{t}@{c}" for t, c in sorted(self._c.items()))
        return f"<VC {body}>"


class Epoch(NamedTuple):
    """One access stamped with its thread clock (FastTrack's ``c@t``)."""

    tid: int
    clock: int
    event: AccessEvent


class _Shadow:
    """Shadow state shared by the ``width`` bytes of one segment."""

    __slots__ = ("width", "last_write", "readers", "write_history",
                 "read_history")

    def __init__(self, width: int, history: int) -> None:
        self.width = width
        self.last_write: Epoch | None = None
        #: readers since the last write, newest epoch per thread
        self.readers: dict[int, Epoch] = {}
        #: displaced writes/readers — the predictive window
        self.write_history: deque = deque(maxlen=history)
        self.read_history: deque = deque(maxlen=2 * history)

    def byte_copy(self) -> "_Shadow":
        """An independent one-byte shadow holding this state."""
        copy = _Shadow(1, 0)
        copy.last_write = self.last_write
        copy.readers = dict(self.readers)
        copy.write_history = self.write_history.copy()
        copy.read_history = self.read_history.copy()
        return copy


def conflicts(a: AccessEvent, b: AccessEvent) -> bool:
    """Race-relevant conflict: different threads, at least one write,
    not both atomic (byte overlap is implied by shared shadow state)."""
    if a.tid == b.tid:
        return False
    if not (a.is_write or b.is_write):
        return False
    if a.access is AccessKind.ATOMIC and b.access is AccessKind.ATOMIC:
        return False
    return True


class VectorClockEngine:
    """Streams :class:`AccessEvent` records through epoch shadow state.

    ``on_report(first, second, byte, predicted) -> bool`` is invoked for
    every racy pair found, per byte in ascending order; returning False
    stops the analysis (the caller implements deduplication and report
    caps), and a stopped engine must not be fed again.

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
        #: one segment per (array, start); one-byte segments per byte
        #: for the arrays in ``_bytewise``
        self._shadow: dict[tuple[str, int], _Shadow] = {}
        #: per segment-granular array: byte -> start of its segment
        self._owner: dict[str, dict[int, int]] = {}
        self._bytewise: set[str] = set()

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
        epoch = Epoch(ev.tid, clock, ev)
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

        span = ev.span
        array = span.array
        shadow = None
        if span.nbytes and array not in self._bytewise:
            shadow = self._shadow.get((array, span.start))
            if shadow is None or shadow.width != span.nbytes:
                shadow = self._new_segment(array, span.start, span.end)
        if shadow is not None:
            if not self._check(shadow, ev, vc, span.start, span.end):
                return False
            self._update(shadow, ev, epoch)
        else:
            for byte in range(span.start, span.end):
                shadow = self._shadow.get((array, byte))
                if shadow is None:
                    shadow = self._shadow[(array, byte)] = _Shadow(
                        1, self._history)
                if not self._check(shadow, ev, vc, byte, byte + 1):
                    return False
                self._update(shadow, ev, epoch)

        # accumulate this thread's clock toward the next barrier
        pend = self._pending_barrier.setdefault(ev.block, VectorClock())
        pend.join(vc)
        return True

    def analyze(self, events: Iterable[AccessEvent]) -> None:
        fed = 0
        for ev in events:
            fed += 1
            if not self.feed(ev):
                break
        reg = get_registry()
        if reg.enabled:
            reg.counter("repro_check_vclock_events_total",
                        "Access events fed to the vector-clock engine",
                        scope=SCOPE_PROCESS).inc(fed)

    # ------------------------------------------------------------------
    def _new_segment(self, array: str, start: int,
                     end: int) -> _Shadow | None:
        """Shadow for a span that matches no segment: a fresh segment
        when it is disjoint from the array's segments, else None after
        converting the array to per-byte state."""
        owner = self._owner.setdefault(array, {})
        if any(byte in owner for byte in range(start, end)):
            self._to_bytes(array)
            return None
        shadow = self._shadow[(array, start)] = _Shadow(end - start,
                                                        self._history)
        for byte in range(start, end):
            owner[byte] = start
        return shadow

    def _to_bytes(self, array: str) -> None:
        """Give every byte of the array's segments its own copy of its
        segment's state; the array stays per-byte from then on."""
        self._bytewise.add(array)
        for start in set(self._owner.pop(array).values()):
            segment = self._shadow.pop((array, start))
            for byte in range(start, start + segment.width):
                self._shadow[(array, byte)] = segment.byte_copy()

    def _check(self, shadow: _Shadow, ev: AccessEvent, vc: VectorClock,
               lo: int, hi: int) -> bool:
        """Report every unordered conflicting partner of ``ev`` in the
        shadow, for each byte of ``lo..hi-1`` in turn."""
        def unordered(e: Epoch) -> bool:
            return (conflicts(e.event, ev)
                    and not vc.contains(e.tid, e.clock))

        partners: list[tuple[AccessEvent, bool]] = []
        lw = shadow.last_write
        if lw is not None and unordered(lw):
            partners.append((lw.event, False))
        if ev.is_write:
            for reader in shadow.readers.values():
                if unordered(reader):
                    partners.append((reader.event, False))
        if self._history:
            for past in shadow.write_history:
                if unordered(past):
                    partners.append((past.event, True))
            if ev.is_write:
                for past in shadow.read_history:
                    if unordered(past):
                        partners.append((past.event, True))
        if partners:
            report = self._on_report
            for byte in range(lo, hi):
                for first, predicted in partners:
                    if not report(first, ev, byte, predicted):
                        return False
        return True

    @staticmethod
    def _update(shadow: _Shadow, ev: AccessEvent, epoch: Epoch) -> None:
        if ev.is_write:
            if shadow.last_write is not None:
                shadow.write_history.append(shadow.last_write)
            for reader in shadow.readers.values():
                shadow.read_history.append(reader)
            shadow.readers.clear()
            shadow.last_write = epoch
        if ev.is_read:
            shadow.readers[ev.tid] = epoch
