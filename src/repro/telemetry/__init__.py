"""repro.telemetry — metrics, span tracing, and exporters.

The observability layer of the stack: a process-local registry of
labelled counters/gauges/histograms (:mod:`repro.telemetry.metrics`),
hierarchical wall-clock + simulated-clock spans
(:mod:`repro.telemetry.spans`), and JSONL / Prometheus / console
exporters with a ``snapshot()``/``merge()`` pair that lets worker processes
ship their registries back to the parent
(:mod:`repro.telemetry.export`).

Disabled by default; the disabled path is a true no-op (module-level
null sinks, zero allocations), so study outputs are bit-identical with
telemetry off.  Enable for a scope::

    from repro import telemetry

    with telemetry.session() as (registry, spans):
        study.speedup_table("titanv", ["cc"], ["internet"])
        print(telemetry.export.to_console(registry))

or globally (the CLI's ``--telemetry`` / the bench harness's
``REPRO_TELEMETRY`` knob)::

    registry, spans = telemetry.enable()
    ...
    telemetry.export.write_jsonl("out.jsonl", registry, spans)
    telemetry.disable()

See ``docs/observability.md`` for the metric catalog and how the
L1-hit-rate metrics reproduce the paper's Section VI.A explanation.
"""

from __future__ import annotations

import contextlib

from repro.telemetry import export, metrics, spans
from repro.telemetry.metrics import (
    MetricsRegistry,
    get_registry,
    telemetry_enabled,
)
from repro.telemetry.spans import SpanRecorder, get_spans

__all__ = [
    "metrics",
    "spans",
    "export",
    "MetricsRegistry",
    "SpanRecorder",
    "get_registry",
    "get_spans",
    "telemetry_enabled",
    "enable",
    "disable",
    "session",
    "span",
]


def enable(registry: MetricsRegistry | None = None,
           recorder: SpanRecorder | None = None
           ) -> tuple[MetricsRegistry, SpanRecorder]:
    """Enable metrics *and* spans; returns (registry, span recorder)."""
    return metrics.enable(registry), spans.enable(recorder)


def disable() -> None:
    """Restore the no-op null sinks (the default state)."""
    metrics.disable()
    spans.disable()


@contextlib.contextmanager
def session(registry: MetricsRegistry | None = None,
            recorder: SpanRecorder | None = None):
    """Enable telemetry for a ``with`` block, restoring the previous
    sinks on exit (tests and examples use this)."""
    prev_registry = metrics._REGISTRY
    prev_spans = spans._SPANS
    try:
        yield enable(registry, recorder)
    finally:
        metrics._REGISTRY = prev_registry
        spans._SPANS = prev_spans


def span(name: str, **attrs: object):
    """Open a span on the active recorder (no-op context when off)."""
    return get_spans().span(name, **attrs)
