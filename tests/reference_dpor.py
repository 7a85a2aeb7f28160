"""The linear backtrack walk that the array-indexed DPOR backtracking
of :mod:`repro.check.explore` replaced.

``add_backtrack_points`` is ``ScheduleExplorer._add_backtrack_points``
as it was, copied verbatim except for its name and indentation: for
every event it walks each other thread's whole history backwards.
Tests use it as a reference: the indexed computation must nominate
exactly the same ``(node, tid)`` backtrack points.
"""

from __future__ import annotations

from repro.check.explore import (
    _dependent,
    _DirectedScheduler,
    _Node,
    _trace_steps,
)
from repro.gpu.simt import DRAIN_BASE, AccessEvent


def add_backtrack_points(self, stack: list[_Node],
                         sched: _DirectedScheduler,
                         events: list[AccessEvent]) -> None:
    """Flanagan-Godefroid backtrack computation from the conflict
    relation of the just-executed trace."""
    steps = _trace_steps(sched, events)
    # per-thread history of (decision, op, launch, block, epoch) for
    # every memory event that thread performed.  A decision may carry
    # several events (an atomic that forces store-buffer drains, a
    # block-scope release promoting multiple entries); scheduled
    # drains act under their own DRAIN_BASE+seq pseudo-tid.
    by_thread: dict[int, list[tuple]] = {}

    def nominate(node: _Node, tid: int) -> None:
        # Source-DPOR-style insertion: the canonical candidate only
        # helps if the branch selector will actually run it, i.e. it
        # is runnable and not asleep at that node.  Skipping a
        # *sleeping* candidate silently is the classic FG+sleep-sets
        # completeness trap (the covering trace the sleep invariant
        # appeals to may itself have been pruned by a redundant-
        # schedule abort; observable as missed IRIW outcomes), so
        # fall back to nominating the awake runnable threads — some
        # awake trace prefix leads into the same reordering class.
        if tid in node.runnable and tid not in node.sleep:
            node.backtrack.add(tid)
            return
        awake = set(node.runnable) - set(node.sleep)
        node.backtrack.update(awake or node.runnable)

    for d, infos in enumerate(steps):
        here = stack[d] if d < len(stack) else None
        for tid, op, launch, block, epoch in infos:
            # A runnable store-buffer drain agent whose pending
            # flush conflicts with this decision's access is a
            # schedule alternative classic FG analysis cannot see:
            # if the flush only ever executes fused into a later
            # forced drain (an atomic, a fence), it never appears in
            # any trace under its own pseudo-tid, so no observed
            # event pair ever nominates it.  Nominate it here.
            if here is not None:
                for q in here.runnable:
                    if (q >= DRAIN_BASE and q != tid
                            and _dependent(op, here.pending.get(q))):
                        nominate(here, q)
            for q, history in by_thread.items():
                if q == tid:
                    continue
                for j, jop, jlaunch, jblock, jepoch in reversed(history):
                    if jlaunch != launch:
                        break  # launch barrier orders everything older
                    if jblock == block and jepoch != epoch:
                        break  # __syncthreads() between them
                    if _dependent(op, jop):
                        nominate(stack[j], tid)
                        break
            by_thread.setdefault(tid, []).append(
                (d, op, launch, block, epoch))
