"""Process-local metrics: labelled counters, gauges, and histograms.

The registry is the run-wide, machine-readable account of what the
stack did — the observability analog of the paper's profiling argument
("Profiling the two code versions revealed that the baseline code has a
much higher L1 hit rate ..." — Section VI.A).  Instrumentation sites
throughout the package fetch the active registry with
:func:`get_registry` and emit through it; the exporters in
:mod:`repro.telemetry.export` render it as JSONL, Prometheus text, or a
console table.

Disabled is the default, and the disabled path is a true no-op: the
module-level :data:`NULL_REGISTRY` hands back the shared
:data:`NULL_FAMILY` singleton, whose ``inc``/``set``/``observe`` do
nothing and allocate nothing, so study results (and their saved JSON
and checkpoints) are bit-identical with telemetry off.

Metric scopes
-------------

Every family declares a *scope*:

* ``sim`` — derived solely from the simulated execution (access
  counts, hit rates, rounds, cell outcomes).  Sim-scope metrics are
  deterministic: a parallel (``jobs=N``) sweep's merged registry equals
  the serial registry exactly, because every sim-scope sample is
  labelled at cell granularity (algorithm/input/device/variant) and
  counter sums of whole numbers are exact in floating point.
* ``process`` — operational facts of *this* process (trace-cache hits,
  wall-clock spans, worker attribution) that legitimately differ
  between serial and parallel execution.

``snapshot(scope="sim")`` filters accordingly; the determinism tests
compare sim-scope snapshots.
"""

from __future__ import annotations

import bisect
from typing import Iterable

__all__ = [
    "COUNTER",
    "GAUGE",
    "HISTOGRAM",
    "SCOPE_SIM",
    "SCOPE_PROCESS",
    "Family",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_FAMILY",
    "NULL_REGISTRY",
    "get_registry",
    "enable",
    "disable",
    "telemetry_enabled",
]

COUNTER = "counter"
GAUGE = "gauge"
HISTOGRAM = "histogram"

SCOPE_SIM = "sim"
SCOPE_PROCESS = "process"

SNAPSHOT_FORMAT = 1
"""Version of the snapshot dict layout (also the JSONL schema version)."""

#: default histogram buckets (simulated milliseconds)
DEFAULT_BUCKETS = (0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0,
                   100.0, 250.0, 1000.0)


class _NullFamily:
    """Shared do-nothing metric: every operation is a no-op and returns
    either ``None`` or the singleton itself, so disabled instrumentation
    sites allocate nothing."""

    __slots__ = ()

    def labels(self, *values: object) -> "_NullFamily":
        return self

    def inc(self, amount: float = 1, *label_values: object) -> None:
        pass

    def set(self, value: float, *label_values: object) -> None:
        pass

    def observe(self, value: float, *label_values: object) -> None:
        pass


NULL_FAMILY = _NullFamily()


class _Hist:
    """Mutable histogram state for one labelset."""

    __slots__ = ("counts", "sum", "count")

    def __init__(self, n_buckets: int) -> None:
        self.counts = [0] * (n_buckets + 1)  # last bucket = +Inf
        self.sum = 0.0
        self.count = 0


class Family:
    """One metric family: a name, a kind, and per-labelset samples.

    Sample operations take the label values positionally, in the order
    of ``labelnames`` — e.g. for a counter declared with
    ``labelnames=("algorithm", "variant")``::

        fam.inc(1, "cc", "baseline")

    or bind a labelset once with :meth:`labels` and reuse the handle.
    """

    __slots__ = ("name", "kind", "help", "labelnames", "scope",
                 "buckets", "_samples")

    def __init__(self, name: str, kind: str, help: str,
                 labelnames: tuple[str, ...], scope: str,
                 buckets: tuple[float, ...] | None = None) -> None:
        self.name = name
        self.kind = kind
        self.help = help
        self.labelnames = tuple(labelnames)
        self.scope = scope
        self.buckets = tuple(buckets) if buckets is not None else None
        self._samples: dict[tuple[str, ...], object] = {}

    # ------------------------------------------------------------------
    def _key(self, label_values: tuple[object, ...]) -> tuple[str, ...]:
        if len(label_values) != len(self.labelnames):
            raise ValueError(
                f"metric {self.name!r} takes {len(self.labelnames)} "
                f"label value(s) {self.labelnames}, got "
                f"{len(label_values)}"
            )
        return tuple(str(v) for v in label_values)

    def labels(self, *values: object) -> "_Bound":
        return _Bound(self, self._key(values))

    def inc(self, amount: float = 1, *label_values: object) -> None:
        if self.kind not in (COUNTER, GAUGE):
            raise ValueError(f"cannot inc {self.kind} {self.name!r}")
        if self.kind == COUNTER and amount < 0:
            raise ValueError(
                f"counter {self.name!r} cannot decrease (inc {amount})")
        key = self._key(label_values)
        self._samples[key] = self._samples.get(key, 0) + amount

    def set(self, value: float, *label_values: object) -> None:
        if self.kind != GAUGE:
            raise ValueError(f"cannot set {self.kind} {self.name!r}")
        self._samples[self._key(label_values)] = value

    def observe(self, value: float, *label_values: object) -> None:
        if self.kind != HISTOGRAM:
            raise ValueError(f"cannot observe {self.kind} {self.name!r}")
        key = self._key(label_values)
        hist = self._samples.get(key)
        if hist is None:
            hist = self._samples[key] = _Hist(len(self.buckets))
        hist.counts[bisect.bisect_left(self.buckets, value)] += 1
        hist.sum += value
        hist.count += 1

    # ------------------------------------------------------------------
    def value(self, *label_values: object) -> float:
        """Current value of one labelset (0 when never touched)."""
        if self.kind == HISTOGRAM:
            raise ValueError("use hist() for histograms")
        return self._samples.get(self._key(label_values), 0)

    def hist(self, *label_values: object) -> _Hist | None:
        return self._samples.get(self._key(label_values))

    def samples(self) -> list[tuple[tuple[str, ...], object]]:
        """(label values, value-or-_Hist) pairs, sorted by labels."""
        return sorted(self._samples.items())

    def __len__(self) -> int:
        return len(self._samples)


class _Bound:
    """A family bound to one labelset (prometheus-client style)."""

    __slots__ = ("_family", "_key")

    def __init__(self, family: Family, key: tuple[str, ...]) -> None:
        self._family = family
        self._key = key

    def inc(self, amount: float = 1) -> None:
        self._family.inc(amount, *self._key)

    def set(self, value: float) -> None:
        self._family.set(value, *self._key)

    def observe(self, value: float) -> None:
        self._family.observe(value, *self._key)


class MetricsRegistry:
    """A process-local collection of metric families.

    ``counter``/``gauge``/``histogram`` declare-or-fetch a family:
    re-declaring with the same name returns the existing family (and
    rejects a kind or labelnames mismatch), so instrumentation sites
    can declare lazily at the point of use.
    """

    enabled = True

    def __init__(self) -> None:
        self._families: dict[str, Family] = {}

    # ------------------------------------------------------------------
    def _family(self, name: str, kind: str, help: str,
                labelnames: Iterable[str], scope: str,
                buckets: tuple[float, ...] | None = None) -> Family:
        labelnames = tuple(labelnames)
        fam = self._families.get(name)
        if fam is not None:
            if fam.kind != kind or fam.labelnames != labelnames:
                raise ValueError(
                    f"metric {name!r} re-declared as {kind}{labelnames}; "
                    f"existing is {fam.kind}{fam.labelnames}"
                )
            return fam
        fam = Family(name, kind, help, labelnames, scope, buckets)
        self._families[name] = fam
        return fam

    def counter(self, name: str, help: str = "",
                labelnames: Iterable[str] = (),
                scope: str = SCOPE_SIM) -> Family:
        return self._family(name, COUNTER, help, labelnames, scope)

    def gauge(self, name: str, help: str = "",
              labelnames: Iterable[str] = (),
              scope: str = SCOPE_SIM) -> Family:
        return self._family(name, GAUGE, help, labelnames, scope)

    def histogram(self, name: str, help: str = "",
                  labelnames: Iterable[str] = (),
                  scope: str = SCOPE_SIM,
                  buckets: tuple[float, ...] = DEFAULT_BUCKETS) -> Family:
        fam = self._family(name, HISTOGRAM, help, labelnames, scope,
                           buckets=tuple(buckets))
        if fam.buckets != tuple(buckets):
            raise ValueError(
                f"histogram {name!r} re-declared with different buckets")
        return fam

    # ------------------------------------------------------------------
    def families(self, scope: str | None = None) -> list[Family]:
        """All families (optionally filtered by scope), sorted by name."""
        fams = sorted(self._families.values(), key=lambda f: f.name)
        if scope is not None:
            fams = [f for f in fams if f.scope == scope]
        return fams

    def get(self, name: str) -> Family | None:
        return self._families.get(name)

    def clear(self) -> None:
        self._families.clear()

    def __len__(self) -> int:
        return len(self._families)

    # ------------------------------------------------------------------
    # snapshot / merge — the workers' shipping format
    # ------------------------------------------------------------------
    def snapshot(self, scope: str | None = None) -> dict:
        """A picklable/JSON-able copy of the registry state.

        Families are sorted by name and samples by label values, so two
        registries with equal content produce byte-equal snapshots —
        the property the parallel-determinism tests assert on.
        """
        families = []
        for fam in self.families(scope):
            samples = []
            for key, value in fam.samples():
                if fam.kind == HISTOGRAM:
                    samples.append({
                        "labels": list(key),
                        "counts": list(value.counts),
                        "sum": value.sum,
                        "count": value.count,
                    })
                else:
                    samples.append({"labels": list(key), "value": value})
            families.append({
                "name": fam.name,
                "kind": fam.kind,
                "help": fam.help,
                "labelnames": list(fam.labelnames),
                "scope": fam.scope,
                "buckets": (list(fam.buckets)
                            if fam.buckets is not None else None),
                "samples": samples,
            })
        return {"format": SNAPSHOT_FORMAT, "families": families}

    def merge(self, snap: dict) -> None:
        """Fold a :meth:`snapshot` into this registry.

        Counters and histograms accumulate; gauges take the snapshot's
        value (last write wins, in merge order).  Merging worker
        snapshots in submission order therefore reconstructs exactly
        the sequence of writes the serial path would have performed.
        """
        if snap.get("format") != SNAPSHOT_FORMAT:
            raise ValueError(
                f"unsupported telemetry snapshot format "
                f"{snap.get('format')!r} (expected {SNAPSHOT_FORMAT})")
        for fdata in snap.get("families", []):
            kind = fdata["kind"]
            buckets = fdata.get("buckets")
            fam = self._family(
                fdata["name"], kind, fdata.get("help", ""),
                tuple(fdata.get("labelnames", ())),
                fdata.get("scope", SCOPE_SIM),
                buckets=tuple(buckets) if buckets else None)
            for sample in fdata.get("samples", []):
                key = tuple(sample["labels"])
                if kind == HISTOGRAM:
                    hist = fam._samples.get(key)
                    if hist is None:
                        hist = fam._samples[key] = _Hist(len(fam.buckets))
                    counts = sample["counts"]
                    if len(counts) != len(hist.counts):
                        raise ValueError(
                            f"histogram {fam.name!r} bucket count "
                            "mismatch in snapshot")
                    for i, c in enumerate(counts):
                        hist.counts[i] += c
                    hist.sum += sample["sum"]
                    hist.count += sample["count"]
                elif kind == COUNTER:
                    fam._samples[key] = (fam._samples.get(key, 0)
                                         + sample["value"])
                else:
                    fam._samples[key] = sample["value"]


class NullRegistry:
    """The disabled registry: every declaration returns the shared
    :data:`NULL_FAMILY` no-op."""

    enabled = False

    def counter(self, name: str, help: str = "",
                labelnames: Iterable[str] = (),
                scope: str = SCOPE_SIM) -> _NullFamily:
        return NULL_FAMILY

    def gauge(self, name: str, help: str = "",
              labelnames: Iterable[str] = (),
              scope: str = SCOPE_SIM) -> _NullFamily:
        return NULL_FAMILY

    def histogram(self, name: str, help: str = "",
                  labelnames: Iterable[str] = (),
                  scope: str = SCOPE_SIM,
                  buckets: tuple[float, ...] = DEFAULT_BUCKETS
                  ) -> _NullFamily:
        return NULL_FAMILY

    def families(self, scope: str | None = None) -> list:
        return []

    def get(self, name: str) -> None:
        return None

    def snapshot(self, scope: str | None = None) -> dict:
        return {"format": SNAPSHOT_FORMAT, "families": []}

    def merge(self, snap: dict) -> None:
        pass

    def clear(self) -> None:
        pass

    def __len__(self) -> int:
        return 0


NULL_REGISTRY = NullRegistry()

_REGISTRY: MetricsRegistry | NullRegistry = NULL_REGISTRY


def get_registry() -> MetricsRegistry | NullRegistry:
    """The active registry (the null registry when telemetry is off).

    Instrumentation sites call this at the point of use — never cache
    the result across calls, or an ``enable()`` after import would be
    invisible.
    """
    return _REGISTRY


def telemetry_enabled() -> bool:
    return _REGISTRY.enabled


def enable(registry: MetricsRegistry | None = None) -> MetricsRegistry:
    """Install ``registry`` (or a fresh one) as the active registry."""
    global _REGISTRY
    _REGISTRY = registry if registry is not None else MetricsRegistry()
    return _REGISTRY


def disable() -> None:
    """Restore the null registry (the default)."""
    global _REGISTRY
    _REGISTRY = NULL_REGISTRY
