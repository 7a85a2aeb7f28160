"""The memory-model zoo: pluggable consistency semantics.

The paper fixes one semantics — relaxed atomics served at L2 with PLAIN
register caching (Section IV) — so its "cost of removing races" numbers
are a single point in a design space.  A :class:`MemoryModel` names the
knobs the simulator consults so that point becomes one of several:

* **structural** knobs decide how the executor runs — whether plain
  loads may be register-cached, whether non-atomic stores sit in a
  per-thread store buffer, whether buffered stores may drain out of
  program order, and whether a thread forwards its own buffered stores
  to its loads;
* **ordering** knobs decide what each :class:`MemoryOrder` means —
  which atomics flush the store buffer (release publication), which
  invalidate the register cache (acquire visibility), and which scopes
  a block-scoped release publishes to;
* **pricing** knobs decide what the perf engine charges — the model's
  ``order_floor`` is applied over every shared atomic site's declared
  order before the :class:`~repro.gpu.timing.TimingModel` prices it.

Concrete models:

``SC``
    Sequential consistency: no register caching, no store buffering.
    Every execution is an interleaving of program-order operations.
``TSO``
    x86-style total store order: per-thread FIFO store buffers with
    store-to-load forwarding.  Generalizes (and replaces) the old
    ``weak_memory=True`` executor flag's ad-hoc buffer.  Atomics are
    locked operations: they always drain and fully synchronize.
``RelaxedGPU``
    The paper's semantics.  Register caching on; with ``buffered=True``
    non-atomic stores drain *out of order* (any entry not preceded by an
    older same-address entry), and relaxed atomics neither drain the
    buffer nor invalidate the cache — only release/acquire orderings
    do.  ``buffered=False`` (the executor default) is the eager-drain
    special case: every store is immediately visible, which is one
    legal execution of the relaxed model and is bit-identical to the
    pre-zoo executor.
``PTXScoped``
    PTX scoped atomics: like buffered ``RelaxedGPU`` plus scope
    semantics — a block-scoped release publishes the store buffer to
    *same-block* threads only (entries become block-visible instead of
    draining to global memory), while device/system releases drain
    globally.  ``min_order`` lifts every atomic's declared order at
    both execution and pricing time, so ``ptx:acq_rel`` answers "what
    would the race-free variants cost under acquire/release?".

Models are immutable and stateless: all execution state (buffers,
caches, clocks) lives in the executor / detector that consults them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import ReproError
from repro.gpu.accesses import MemoryOrder, Scope

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.transform import AccessPlan

__all__ = ["MemoryModel", "SC", "TSO", "RelaxedGPU", "PTXScoped",
           "DEFAULT_MODEL", "get_model", "resolve_model", "model_keys"]

#: strength lattice of the libcu++ orderings (acquire and release are
#: incomparable one-sided orders of equal rank)
ORDER_RANK = {
    MemoryOrder.RELAXED: 0,
    MemoryOrder.ACQUIRE: 1,
    MemoryOrder.RELEASE: 1,
    MemoryOrder.ACQ_REL: 2,
    MemoryOrder.SEQ_CST: 3,
}

#: orders with a release (publish) side
_RELEASING = (MemoryOrder.RELEASE, MemoryOrder.ACQ_REL, MemoryOrder.SEQ_CST)
#: orders with an acquire (observe) side
_ACQUIRING = (MemoryOrder.ACQUIRE, MemoryOrder.ACQ_REL, MemoryOrder.SEQ_CST)


class MemoryModel:
    """Base class: the *strongest* reasonable semantics.

    Subclasses override the structural attributes and the per-order
    predicates.  The base behaves like SC so that forgetting an
    override errs on the side of fewer weak behaviors, never more.
    """

    #: canonical spec string (what ``get_model`` parses back)
    key: str = "sc"
    #: human-readable name for reports
    name: str = "memory model"

    # -- structural knobs ------------------------------------------------
    #: may the compiler keep plainly-loaded values in registers?
    register_cache_plain: bool = False
    #: do non-atomic stores sit in a per-thread store buffer?
    buffers_stores: bool = False
    #: may buffered stores drain out of program order?  (False = FIFO:
    #: only the oldest entry of each buffer is eligible to drain)
    reorders_stores: bool = False
    #: does a thread forward its own buffered stores to its loads
    #: without draining?  (False = reading over a buffered store drains
    #: the buffer first, the old ``weak_memory`` behavior)
    forwards_stores: bool = False
    #: forced-drain order when the model must flush several entries at
    #: once: ``"fifo"`` (program order) or ``"address"`` (lowest
    #: address first — the relaxed GPU's visible reordering)
    drain_policy: str = "fifo"
    #: fixed buffer capacity, or None to use the executor's setting
    store_buffer_capacity: int | None = None
    #: pricing floor applied over every shared atomic site's order
    order_floor: MemoryOrder = MemoryOrder.SEQ_CST

    # -- ordering predicates ---------------------------------------------
    def runtime_order(self, order: MemoryOrder) -> MemoryOrder:
        """The order an atomic declared with ``order`` executes at."""
        if ORDER_RANK[order] < ORDER_RANK[self.order_floor]:
            return self.order_floor
        return order

    def atomic_drains(self, order: MemoryOrder) -> bool:
        """Does an atomic at ``order`` flush the issuing thread's store
        buffer (publish its prior non-atomic stores)?"""
        return True

    def acquire_syncs(self, order: MemoryOrder) -> bool:
        """Does an atomic read at ``order`` invalidate the register
        cache (force later plain loads back to memory) and, for the
        race detector, acquire the location's release clock?"""
        return True

    def release_syncs(self, order: MemoryOrder) -> bool:
        """Does an atomic write at ``order`` publish a happens-before
        edge to later acquiring reads of the same location?"""
        return True

    def release_promotes_block(self, order: MemoryOrder,
                               scope: Scope) -> bool:
        """Does a releasing atomic at ``scope`` publish the store buffer
        to *same-block* threads only (instead of draining globally)?
        Only :class:`PTXScoped` distinguishes scopes."""
        return False

    def fence_drains(self, order: MemoryOrder) -> bool:
        """Does a ``__threadfence()`` at ``order`` flush the buffer?"""
        return True

    def scope_syncs(self, scope: Scope, same_block: bool) -> bool:
        """Is a release at ``scope`` visible to an acquirer that is
        (``same_block``) / is not in the releasing thread's block?
        Scope-blind models treat every scope as device-wide."""
        return True

    # -- pricing ---------------------------------------------------------
    def apply_to_plan(self, plan: "AccessPlan") -> "AccessPlan":
        """Copy of ``plan`` with every shared site's order lifted to at
        least the model's ``order_floor`` — the hook that lets the perf
        engine price race-free variants under stronger models.

        All shared sites are lifted, not just the plan's atomic ones:
        the race-removal transform converts shared volatile/plain sites
        into atomics that inherit the site's order, and those converted
        atomics are exactly what a stronger model must price.  Order is
        only ever charged on variant-effective atomic kinds, so lifting
        a site that stays non-atomic costs nothing.
        """
        from dataclasses import replace

        from repro.core.transform import AccessPlan

        if self.order_floor is MemoryOrder.RELAXED:
            return plan
        sites = tuple(
            replace(s, order=self.runtime_order(s.order))
            if s.shared else s
            for s in plan.sites)
        return AccessPlan(plan.algorithm, sites)

    def describe(self) -> str:
        bits = []
        bits.append("register caching" if self.register_cache_plain
                    else "no register caching")
        if self.buffers_stores:
            bits.append("store buffers ("
                        + ("out-of-order" if self.reorders_stores
                           else "FIFO")
                        + (", forwarding" if self.forwards_stores else "")
                        + ")")
        else:
            bits.append("eager stores")
        if self.order_floor is not MemoryOrder.RELAXED:
            bits.append(f"atomics ≥ {self.order_floor.value}")
        return f"{self.name}: " + ", ".join(bits)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.key!r}>"


class SC(MemoryModel):
    """Sequential consistency: interleaving semantics, nothing weaker."""

    key = "sc"
    name = "sequential consistency"
    register_cache_plain = False
    buffers_stores = False
    order_floor = MemoryOrder.SEQ_CST


class TSO(MemoryModel):
    """x86-style total store order: per-thread FIFO store buffers with
    store-to-load forwarding; atomics are locked operations that drain
    and fully synchronize.  Note TSO *forbids* the message-passing
    reorder — the buffer is FIFO, so the payload always drains before
    the flag — while store-buffering (SB) is observable."""

    key = "tso"
    name = "x86-TSO"
    register_cache_plain = False
    buffers_stores = True
    reorders_stores = False
    forwards_stores = True
    drain_policy = "fifo"
    order_floor = MemoryOrder.SEQ_CST

    def __init__(self, capacity: int | None = None) -> None:
        self.store_buffer_capacity = capacity
        if capacity is not None:
            self.key = f"tso:{capacity}"


class RelaxedGPU(MemoryModel):
    """The paper's semantics: register caching, relaxed atomics with no
    ordering.  ``buffered=True`` adds out-of-order store buffers (the
    litmus-capable configuration); ``buffered=False`` is the eager
    special case the executor defaults to — bit-identical to the
    pre-zoo simulator."""

    name = "relaxed GPU"
    register_cache_plain = True
    reorders_stores = True
    forwards_stores = False
    drain_policy = "address"
    order_floor = MemoryOrder.RELAXED

    def __init__(self, buffered: bool = True) -> None:
        self.buffers_stores = buffered
        self.key = "relaxed_gpu" if buffered else "relaxed_gpu:eager"

    def atomic_drains(self, order: MemoryOrder) -> bool:
        return order in _RELEASING

    def acquire_syncs(self, order: MemoryOrder) -> bool:
        return order in _ACQUIRING

    def release_syncs(self, order: MemoryOrder) -> bool:
        return order in _RELEASING


class PTXScoped(MemoryModel):
    """PTX scoped atomics: buffered relaxed-GPU weakness plus scope
    semantics.  A block(cta)-scoped release publishes buffered stores to
    same-block threads only; device/system releases drain globally.
    ``min_order`` lifts every atomic's declared order at execution and
    pricing time (``ptx:acq_rel`` prices the acquire/release world)."""

    name = "PTX scoped"
    register_cache_plain = True
    buffers_stores = True
    reorders_stores = True
    forwards_stores = True
    drain_policy = "address"

    def __init__(self, min_order: MemoryOrder = MemoryOrder.RELAXED) -> None:
        self.order_floor = min_order
        self.key = ("ptx" if min_order is MemoryOrder.RELAXED
                    else f"ptx:{min_order.value}")

    def atomic_drains(self, order: MemoryOrder) -> bool:
        return order in _RELEASING

    def acquire_syncs(self, order: MemoryOrder) -> bool:
        return order in _ACQUIRING

    def release_syncs(self, order: MemoryOrder) -> bool:
        return order in _RELEASING

    def release_promotes_block(self, order: MemoryOrder,
                               scope: Scope) -> bool:
        return order in _RELEASING and scope is Scope.BLOCK

    def scope_syncs(self, scope: Scope, same_block: bool) -> bool:
        return same_block if scope is Scope.BLOCK else True


#: the executor's default: the paper's semantics with eager stores —
#: bit-identical to the simulator before the model zoo existed
DEFAULT_MODEL = RelaxedGPU(buffered=False)


def get_model(spec: str) -> MemoryModel:
    """Parse a model spec string.

    ``sc`` · ``tso`` · ``tso:<capacity>`` · ``relaxed_gpu`` (buffered,
    the litmus configuration) · ``relaxed_gpu:eager`` (the executor
    default) · ``ptx`` · ``ptx:<order>`` (e.g. ``ptx:acq_rel``).
    """
    base, _, arg = spec.strip().lower().partition(":")
    if base == "sc":
        if arg:
            raise ReproError(f"sc takes no argument, got {spec!r}")
        return SC()
    if base == "tso":
        if not arg:
            return TSO()
        try:
            capacity = int(arg)
        except ValueError:
            raise ReproError(
                f"tso argument must be a buffer capacity, got {spec!r}"
            ) from None
        if capacity < 1:
            raise ReproError(
                f"tso buffer capacity must be >= 1, got {spec!r}")
        return TSO(capacity)
    if base == "relaxed_gpu":
        if arg == "eager":
            return RelaxedGPU(buffered=False)
        if arg:
            raise ReproError(
                f"unknown relaxed_gpu argument {arg!r} (only 'eager')")
        return RelaxedGPU(buffered=True)
    if base == "ptx":
        if not arg:
            return PTXScoped()
        try:
            order = MemoryOrder(arg)
        except ValueError:
            raise ReproError(
                f"unknown memory order {arg!r} in {spec!r}; known: "
                f"{[o.value for o in MemoryOrder]}") from None
        return PTXScoped(min_order=order)
    raise ReproError(
        f"unknown memory model {spec!r}; known: {model_keys()}")


def resolve_model(model: "MemoryModel | str | None") -> MemoryModel:
    """Coerce a constructor argument: None → the default, str → parsed."""
    if model is None:
        return DEFAULT_MODEL
    if isinstance(model, str):
        return get_model(model)
    if isinstance(model, MemoryModel):
        return model
    raise ReproError(
        f"memory_model must be a MemoryModel, spec string, or None, "
        f"got {type(model).__name__}")


def model_keys() -> list[str]:
    """The canonical zoo (argument-free spellings)."""
    return ["sc", "tso", "relaxed_gpu", "relaxed_gpu:eager", "ptx",
            "ptx:acq_rel"]
