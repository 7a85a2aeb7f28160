"""The per-call recorders that :class:`repro.perf.engine.Recorder` replaced.

Copied verbatim except for their class names and the profiling
recorder's constructor, which also passes ``staleness_rounds`` through.
Tests use them as references: the one ``Recorder`` must count exactly
what they count.
"""

from __future__ import annotations

import numpy as np

from repro.core.transform import AccessPlan, plan_for, site_kind
from repro.core.variants import Variant
from repro.errors import StudyError
from repro.gpu.accesses import AccessKind, MemoryOrder
from repro.gpu.device import DeviceSpec
from repro.gpu.timing import AccessStats
from repro.perf.profiler import SiteTraffic, _whole


class PerCallRecorder:
    """Counts the shared-memory traffic of one run.

    The recorder sees the device only through ``staleness_rounds`` (the
    register-caching visibility constant) — this is what makes recorded
    traces device-independent within a staleness class, so the trace
    cache can replay one execution on every device that shares the
    constant.  Pass either a full :class:`DeviceSpec` (the constant is
    taken from it) or ``staleness_rounds`` directly (the record path).
    """

    def __init__(self, plan: AccessPlan, variant: Variant,
                 device: DeviceSpec | None = None, *,
                 staleness_rounds: int | None = None) -> None:
        self.plan = plan
        self.variant = variant
        self.device = device
        if staleness_rounds is None:
            if device is None:
                raise StudyError("pass either device or staleness_rounds")
            staleness_rounds = device.plain_staleness_rounds
        self.staleness_rounds = int(staleness_rounds)
        #: set when an execution actually consumes the constant; traces
        #: that never do are valid for every staleness class
        self.staleness_consulted = False
        self.stats = AccessStats()
        self._footprints: dict[str, float] = {}

    # ------------------------------------------------------------------
    def _count(self, indices: np.ndarray | None, count: float | None) -> float:
        if count is not None:
            return float(count)
        if indices is None:
            raise StudyError("pass either indices or count")
        return float(np.asarray(indices).shape[0])

    def _contention(self, indices: np.ndarray | None) -> float:
        if indices is None:
            return 0.0
        idx = np.asarray(indices)
        if idx.size == 0:
            return 0.0
        return float(idx.shape[0] - np.unique(idx).shape[0])

    def _bucket(self, kind: AccessKind, n: float, store: bool) -> None:
        s = self.stats
        if kind is AccessKind.PLAIN:
            if store:
                s.plain_stores += n
            else:
                s.plain_loads += n
        elif kind is AccessKind.VOLATILE:
            if store:
                s.volatile_stores += n
            else:
                s.volatile_loads += n
        else:
            if store:
                s.atomic_stores += n
            else:
                s.atomic_loads += n

    # ------------------------------------------------------------------
    def _site(self, name: str):
        return plan_for(self.plan, self.variant).site(name)

    #: relative fence strength per memory order (relaxed is free;
    #: seq_cst forbids all reordering and costs double the one-sided
    #: acquire/release orders)
    ORDER_WEIGHT = {
        MemoryOrder.RELAXED: 0.0,
        MemoryOrder.ACQUIRE: 1.0,
        MemoryOrder.RELEASE: 1.0,
        MemoryOrder.ACQ_REL: 1.0,
        MemoryOrder.SEQ_CST: 2.0,
    }

    def _order_extra(self, site, n: float) -> None:
        if site.kind is AccessKind.ATOMIC:
            self.stats.ordered_atomics += n * self.ORDER_WEIGHT[site.order]

    def load(self, site: str, indices: np.ndarray | None = None,
             count: float | None = None) -> None:
        """Record loads at ``site`` (one per index, or ``count``)."""
        s = self._site(site)
        n = self._count(indices, count)
        self._bucket(s.kind, n, store=False)
        self._order_extra(s, n)
        # same-address atomic *loads* do not serialize on the modelled
        # hardware (L2 read combining); only stores and RMWs contend

    def store(self, site: str, indices: np.ndarray | None = None,
              count: float | None = None) -> None:
        """Record stores at ``site``."""
        s = self._site(site)
        n = self._count(indices, count)
        self._bucket(s.kind, n, store=True)
        self._order_extra(s, n)
        if s.kind is AccessKind.ATOMIC:
            self.stats.contended_atomics += self._contention(indices)

    def rmw(self, site: str, indices: np.ndarray | None = None,
            count: float | None = None) -> None:
        """Record read-modify-write atomics (atomic in *both* variants)."""
        s = self._site(site)
        n = self._count(indices, count)
        self.stats.atomic_rmws += n
        self._order_extra(s, n)
        self.stats.contended_atomics += self._contention(indices)

    def structure(self, count: float) -> None:
        """Read-only CSR structure loads: plain in both variants (no
        thread ever writes the graph, so these cannot race)."""
        self.stats.plain_loads += float(count)

    def compute(self, ops: float) -> None:
        """Non-memory work (index arithmetic, comparisons)."""
        self.stats.compute_ops += float(ops)

    def round(self, launches: int = 1) -> None:
        """One host-side iteration: ``launches`` kernel launches."""
        self.stats.rounds += launches

    def touch(self, name: str, nbytes: float) -> None:
        """Declare data footprint (unique bytes) of array ``name``."""
        self._footprints[name] = max(self._footprints.get(name, 0.0),
                                     float(nbytes))
        self.stats.footprint_bytes = sum(self._footprints.values())

    # ------------------------------------------------------------------
    def staleness(self, site: str) -> int:
        """Visibility delay (rounds) readers of ``site`` experience.

        Non-zero only for PLAIN sites — the register-caching compiler
        model — and scaled by the device's staleness constant.
        """
        kind = site_kind(self.plan, self.variant, site)
        if kind is AccessKind.PLAIN:
            return self.visibility_delay()
        return 0

    def visibility_delay(self) -> int:
        """Consume the staleness constant (marks the recording as
        staleness-class-dependent; see :data:`~repro.perf.trace
        .ANY_STALENESS`)."""
        self.staleness_consulted = True
        return self.staleness_rounds


class PerCallSiteRecorder(PerCallRecorder):
    """A :class:`PerCallRecorder` that additionally tallies traffic per site."""

    def __init__(self, plan, variant, device=None, **kwargs) -> None:
        super().__init__(plan, variant, device, **kwargs)
        self.sites: dict[str, SiteTraffic] = {}

    def _traffic(self, name: str) -> SiteTraffic:
        if name not in self.sites:
            self.sites[name] = SiteTraffic(name, self._site(name).kind)
        return self.sites[name]

    def load(self, site, indices=None, count=None) -> None:
        super().load(site, indices, count)
        self._traffic(site).loads += _whole(self._count(indices, count))

    def store(self, site, indices=None, count=None) -> None:
        super().store(site, indices, count)
        self._traffic(site).stores += _whole(self._count(indices, count))

    def rmw(self, site, indices=None, count=None) -> None:
        super().rmw(site, indices, count)
        self._traffic(site).rmws += _whole(self._count(indices, count))
