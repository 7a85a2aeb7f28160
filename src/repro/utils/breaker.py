"""Keyed circuit breakers: stop re-burning workers on keys that keep
failing.

The service keys one per cell, the worker supervisor
(:mod:`repro.core.parallel`) one per worker slot.  A cell that livelocks, times out, or validates wrong once may succeed
on a retry (the resilient study's own policy covers that); a cell that
fails on *every* service-level attempt is a different animal — each new
client asking for it would re-burn a full cell budget to reproduce a
known failure.  The
breaker is the service-level memo for those: after ``threshold``
consecutive failed executions the cell's breaker **opens**, and further
requests are short-circuited to the cached degraded ``FAIL(reason)``
record instantly.  After ``cooldown_s`` the breaker goes **half-open**
and admits exactly one trial execution; success closes it, failure
re-opens it for another cooldown.

State is purely in-memory and per-process — a restarted server
re-learns its breakers, which is the correct bias (the failure may have
been environmental).
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, field
from typing import Callable, Hashable

from repro.telemetry.metrics import SCOPE_PROCESS, get_registry


class BreakerState(enum.Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


@dataclass
class _Entry:
    failures: int = 0
    state: BreakerState = BreakerState.CLOSED
    opened_at: float = 0.0
    #: True while the single half-open trial execution is in flight
    trial_inflight: bool = field(default=False)


def _count(event: str) -> None:
    reg = get_registry()
    if reg.enabled:
        reg.counter("repro_service_breaker_events_total",
                    "Circuit breaker events, by kind", ("event",),
                    scope=SCOPE_PROCESS).inc(1, event)


class CircuitBreaker:
    """Keyed breaker bank (one state machine per cell key).

    Parameters
    ----------
    threshold:
        Consecutive failed executions that open a key's breaker.
    cooldown_s:
        Open duration before one half-open trial is admitted.
    clock:
        Monotonic time source (injectable for tests).
    """

    def __init__(self, threshold: int = 3, cooldown_s: float = 30.0,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {threshold}")
        if cooldown_s < 0:
            raise ValueError(f"cooldown_s must be >= 0, got {cooldown_s}")
        self.threshold = threshold
        self.cooldown_s = cooldown_s
        self._clock = clock
        self._entries: dict[Hashable, _Entry] = {}

    def _entry(self, key: Hashable) -> _Entry:
        entry = self._entries.get(key)
        if entry is None:
            entry = self._entries[key] = _Entry()
        return entry

    # ------------------------------------------------------------------
    def state(self, key: Hashable) -> BreakerState:
        """Current state (an elapsed cooldown reads as half-open)."""
        entry = self._entries.get(key)
        if entry is None:
            return BreakerState.CLOSED
        if (entry.state is BreakerState.OPEN
                and self._clock() - entry.opened_at >= self.cooldown_s):
            return BreakerState.HALF_OPEN
        return entry.state

    def allow(self, key: Hashable) -> bool:
        """Whether an execution of ``key`` may proceed now.

        Closed: always.  Open: only once the cooldown has elapsed, and
        then exactly *one* in-flight trial at a time (the half-open
        contract) — concurrent requests keep short-circuiting until the
        trial resolves.
        """
        entry = self._entry(key)
        if entry.state is BreakerState.CLOSED:
            return True
        if entry.state is BreakerState.HALF_OPEN:
            return False  # a trial is already in flight
        if self._clock() - entry.opened_at < self.cooldown_s:
            _count("short_circuit")
            return False
        entry.state = BreakerState.HALF_OPEN
        entry.trial_inflight = True
        _count("half_open")
        return True

    def record_success(self, key: Hashable) -> None:
        entry = self._entry(key)
        if entry.state is not BreakerState.CLOSED:
            _count("close")
        entry.failures = 0
        entry.state = BreakerState.CLOSED
        entry.trial_inflight = False

    def record_failure(self, key: Hashable) -> None:
        entry = self._entry(key)
        entry.failures += 1
        if entry.state is BreakerState.HALF_OPEN:
            # the trial failed: straight back to open for a fresh cooldown
            entry.state = BreakerState.OPEN
            entry.opened_at = self._clock()
            entry.trial_inflight = False
            _count("reopen")
        elif (entry.state is BreakerState.CLOSED
                and entry.failures >= self.threshold):
            entry.state = BreakerState.OPEN
            entry.opened_at = self._clock()
            _count("open")

    def abort_trial(self, key: Hashable) -> None:
        """A half-open trial was cancelled before producing a verdict
        (e.g. every subscriber abandoned it): re-open without counting
        a failure, so the next cooldown admits a fresh trial."""
        entry = self._entry(key)
        if entry.state is BreakerState.HALF_OPEN:
            entry.state = BreakerState.OPEN
            entry.opened_at = self._clock()
            entry.trial_inflight = False

    # ------------------------------------------------------------------
    def open_keys(self) -> list[Hashable]:
        """Keys whose breaker is currently open or half-open."""
        return [k for k in self._entries
                if self.state(k) is not BreakerState.CLOSED]
