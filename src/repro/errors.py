"""Exception hierarchy for the repro package.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch one base class at API boundaries.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class GraphError(ReproError):
    """Raised for malformed or inconsistent graph data."""


class GraphFormatError(GraphError):
    """Raised when parsing a graph file that violates its format."""


class DeviceError(ReproError):
    """Raised for unknown devices or invalid device specifications."""


class KernelError(ReproError):
    """Raised when a simulated kernel misbehaves (bad yield, bad index)."""


class MemoryAccessError(KernelError):
    """Raised for out-of-bounds or type-mismatched memory operations."""


class DataRaceError(ReproError):
    """Raised when the race checker is configured to fail on races."""


class DeadlockError(KernelError):
    """Raised when the SIMT executor detects that no thread can make
    progress (e.g. a spin loop reading a register-cached stale value)."""


class TransientKernelFault(KernelError):
    """Raised when an injected *transient* fault aborts a kernel launch
    (spurious launch failure, ECC retirement, driver hiccup).  Unlike a
    livelock, a retry with a fresh schedule seed may succeed."""


class CellTimeoutError(ReproError):
    """Raised when one sweep cell exceeds its wall-clock budget."""


class FaultConfigError(ReproError):
    """Raised for malformed fault-injection specifications."""


class ValidationError(ReproError):
    """Raised when an algorithm result fails verification."""


class ScheduleReplayError(ReproError):
    """Raised when a recorded schedule cannot be replayed: the program
    diverged from the decision log (different runnable set, exhausted
    log), which means program or inputs changed since recording."""


class ExplorationError(ReproError):
    """Raised when systematic schedule exploration loses determinism:
    re-executing a decision prefix reached a different state than the
    run that recorded it."""


class StudyError(ReproError):
    """Raised for inconsistent experiment configurations."""


class WorkerTaskError(StudyError):
    """Raised when a sweep cell task fails inside a worker process.

    Wraps the worker's exception with the (algorithm, input, device)
    task key, so a parallel sweep failure names the cell that caused it
    instead of surfacing an anonymous traceback."""


class ServiceError(ReproError):
    """Raised for sweep-service configuration or lifecycle errors."""


class ProtocolError(ServiceError):
    """Raised for malformed service requests (bad HTTP framing, invalid
    JSON, or a study request that fails validation).  The server maps
    it to a 400-family response instead of dropping the connection."""


class SweepInterrupted(ReproError):
    """Raised when SIGINT/SIGTERM interrupts a resilient sweep.

    By the time this propagates the final checkpoint write has
    completed, so a later ``--resume`` continues from the last finished
    cell.  The CLI maps it to a distinct exit code (3)."""
