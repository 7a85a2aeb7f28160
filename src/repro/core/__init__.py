"""The paper's primary contribution as a library.

* :mod:`repro.core.transform` — the race-removal transform: an access
  *plan* names every shared-memory access site of an algorithm with its
  baseline access kind; the transform rewrites the plan so every racy
  site becomes a relaxed atomic (Section IV).
* :mod:`repro.core.variants` — the BASELINE / RACE_FREE variant axis and
  the registry of algorithm implementations.
* :mod:`repro.core.study` — the experimental methodology of Section V:
  run variant x input x device for nine repetitions, take medians,
  compute speedups; one cell executor with per-cell fault isolation,
  budgets and retries.
* :mod:`repro.core.report` — speedup tables (Tables IV-VIII), geometric
  means (Fig. 6), and property correlations (Table IX).
* :mod:`repro.core.resilience` — the durable sweep layer:
  checkpoint/resume and the graceful interrupt.
* :mod:`repro.core.hostfaults` — deterministic injection of *host*
  failures (torn writes, full disks, killed/stalled workers).
* :mod:`repro.core.chaos` — the harness asserting byte-identical
  recovery from each injected host failure.
"""

from repro.core.variants import Variant, AlgorithmInfo, get_algorithm, list_algorithms
from repro.core.transform import AccessSite, AccessPlan, remove_races
from repro.core.study import Study, RunResult, SpeedupCell
from repro.core.hostfaults import HostFaultKind, HostFaultPlan, HostFaultSpec
from repro.core.chaos import ChaosReport, ChaosScenario, run_chaos
from repro.core.resilience import (
    CellBudget,
    CellFailure,
    ResilientStudy,
    SweepResult,
    run_guarded,
)
from repro.core.report import (
    correlation_table,
    geomean_summary,
    resilient_speedup_table,
    speedup_table,
)

__all__ = [
    "Variant",
    "AlgorithmInfo",
    "get_algorithm",
    "list_algorithms",
    "AccessSite",
    "AccessPlan",
    "remove_races",
    "Study",
    "RunResult",
    "SpeedupCell",
    "ResilientStudy",
    "CellBudget",
    "CellFailure",
    "SweepResult",
    "run_guarded",
    "HostFaultKind",
    "HostFaultPlan",
    "HostFaultSpec",
    "ChaosReport",
    "ChaosScenario",
    "run_chaos",
    "speedup_table",
    "resilient_speedup_table",
    "geomean_summary",
    "correlation_table",
]
