"""The timing model: access statistics -> simulated milliseconds.

This encodes the architectural cost structure Section VI uses to explain
its results:

* **Plain** accesses are served by L1 when resident (cheap) and fall
  through to L2/DRAM otherwise.  Register-cached plain loads are free.
* **Volatile** accesses bypass L1 and are served by L2 (or DRAM when the
  footprint exceeds L2).
* **Atomic** accesses are L2 transactions with an additional
  architecture-dependent latency (``atomic_extra_cycles``), plus a
  contention term for operations that hit the same hot words (CC/MST's
  set representatives, SCC's ``goagain`` flag).

Total time divides the summed per-access cycle cost by the device's
effective parallelism and adds a fixed overhead per kernel launch
(iteration round).  This is a throughput model, not a cycle-accurate
pipeline — see DESIGN.md Section 5 for the calibration philosophy.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from repro.gpu.cache import CacheHierarchy
from repro.gpu.device import DeviceSpec


@dataclass
class AccessStats:
    """Aggregate memory-operation counts of one algorithm run.

    The performance engine fills one of these; the SIMT executor's
    :class:`~repro.gpu.simt.LaunchStats` can be converted via
    :func:`stats_from_launches`.
    """

    plain_loads: float = 0.0
    plain_stores: float = 0.0
    volatile_loads: float = 0.0
    volatile_stores: float = 0.0
    atomic_loads: float = 0.0
    atomic_stores: float = 0.0
    atomic_rmws: float = 0.0
    #: atomics carrying a memory order stronger than relaxed
    ordered_atomics: float = 0.0
    register_hits: float = 0.0
    #: atomics aimed at highly contended words (same-address collisions)
    contended_atomics: float = 0.0
    #: bytes of distinct data the plain/volatile accesses touch
    footprint_bytes: float = 0.0
    #: kernel launches (host-side iteration rounds)
    rounds: int = 0
    #: compute cycles per thread-visit beyond memory (edge scans etc.)
    compute_ops: float = 0.0

    def merge(self, other: "AccessStats") -> None:
        """Accumulate another stats block into this one (footprint takes
        the max — it is a capacity, not a flow)."""
        for f in fields(self):
            if f.name == "footprint_bytes":
                self.footprint_bytes = max(self.footprint_bytes,
                                           other.footprint_bytes)
            else:
                setattr(self, f.name,
                        getattr(self, f.name) + getattr(other, f.name))

    @property
    def total_accesses(self) -> float:
        return (self.plain_loads + self.plain_stores + self.volatile_loads
                + self.volatile_stores + self.atomic_loads
                + self.atomic_stores + self.atomic_rmws)


@dataclass
class TimingBreakdown:
    """Itemized simulated cost (for reports and ablations)."""

    plain_cycles: float = 0.0
    volatile_cycles: float = 0.0
    atomic_cycles: float = 0.0
    contention_cycles: float = 0.0
    compute_cycles: float = 0.0
    launch_overhead_ms: float = 0.0
    total_ms: float = 0.0
    #: modelled cache behavior of the run's access streams — the
    #: quantities Section VI.A's profiling argument turns on.  Plain
    #: accesses are the only L1 clients (atomics and volatiles bypass
    #: L1 and are served at L2), so ``l1_hit_rate`` is the L1 hit rate
    #: *of the plain stream* and ``atomic_l2_hit_rate`` is where the
    #: bypassing atomic stream lands.
    l1_hit_rate: float = 0.0
    l2_hit_rate: float = 0.0
    atomic_l2_hit_rate: float = 0.0


class TimingModel:
    """Prices an :class:`AccessStats` for one device."""

    #: cycles charged per generic compute op (edge-list arithmetic)
    COMPUTE_CYCLES_PER_OP = 1.0

    def __init__(self, device: DeviceSpec) -> None:
        self.device = device
        self.caches = CacheHierarchy.for_device(device)

    # ------------------------------------------------------------------
    def estimate(self, stats: AccessStats) -> TimingBreakdown:
        """Convert access statistics into simulated time."""
        dev = self.device
        out = TimingBreakdown()

        plain = stats.plain_loads + stats.plain_stores
        if plain > 0:
            l1_rate = self.caches.l1.hit_rate(stats.footprint_bytes, plain)
            l2_rate = self.caches.l2.hit_rate(stats.footprint_bytes,
                                              plain * (1 - l1_rate) + 1e-9)
            per = (l1_rate * dev.l1_hit_cycles
                   + (1 - l1_rate) * (l2_rate * dev.l2_hit_cycles
                                      + (1 - l2_rate) * dev.dram_cycles))
            out.plain_cycles = plain * per
            out.l1_hit_rate = l1_rate
            out.l2_hit_rate = l2_rate

        volatile = stats.volatile_loads + stats.volatile_stores
        if volatile > 0:
            l2_rate = self.caches.l2.hit_rate(stats.footprint_bytes, volatile)
            per = (l2_rate * dev.l2_hit_cycles
                   + (1 - l2_rate) * dev.dram_cycles)
            out.volatile_cycles = volatile * per

        atomics = stats.atomic_loads + stats.atomic_stores + stats.atomic_rmws
        if atomics > 0:
            l2_rate = self.caches.l2.hit_rate(stats.footprint_bytes, atomics)
            out.atomic_l2_hit_rate = l2_rate
            l2_cost = (l2_rate * dev.l2_hit_cycles
                       + (1 - l2_rate) * dev.dram_cycles)
            writes = stats.atomic_stores + stats.atomic_rmws
            out.atomic_cycles = (
                stats.atomic_loads * (l2_cost + dev.atomic_load_extra_cycles)
                + writes * (l2_cost + dev.atomic_store_extra_cycles)
                # non-relaxed orders restrict surrounding reordering;
                # Section II.A: "the weakest version that is sufficient
                # ... should be used to maximize performance"
                + stats.ordered_atomics * dev.memory_order_extra_cycles
            )
            out.contention_cycles = (stats.contended_atomics
                                     * dev.atomic_contention_cycles)

        out.compute_cycles = stats.compute_ops * self.COMPUTE_CYCLES_PER_OP

        work_cycles = (out.plain_cycles + out.volatile_cycles
                       + out.atomic_cycles + out.contention_cycles
                       + out.compute_cycles)
        parallel_cycles = work_cycles / max(1.0, self.device.parallel_lanes)
        out.launch_overhead_ms = stats.rounds * dev.kernel_launch_us / 1e3
        out.total_ms = dev.cycles_to_ms(parallel_cycles) + out.launch_overhead_ms
        return out

    def estimate_ms(self, stats: AccessStats) -> float:
        return self.estimate(stats).total_ms


def stats_from_launches(launches, footprint_bytes: float = 0.0) -> AccessStats:
    """Aggregate SIMT :class:`~repro.gpu.simt.LaunchStats` into an
    :class:`AccessStats` (used to cross-check the two execution levels).
    """
    from repro.gpu.accesses import AccessKind

    out = AccessStats(footprint_bytes=footprint_bytes)
    for ls in launches:
        out.plain_loads += ls.loads[AccessKind.PLAIN]
        out.volatile_loads += ls.loads[AccessKind.VOLATILE]
        out.atomic_loads += ls.loads[AccessKind.ATOMIC]
        out.plain_stores += ls.stores[AccessKind.PLAIN]
        out.volatile_stores += ls.stores[AccessKind.VOLATILE]
        out.atomic_stores += ls.stores[AccessKind.ATOMIC]
        out.atomic_rmws += ls.rmws
        out.register_hits += ls.register_hits
        out.rounds += 1
    return out
