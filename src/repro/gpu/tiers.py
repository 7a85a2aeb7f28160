"""Execution-tier selection: interpreter vs batched fast path.

The simulator has two execution tiers that compute bit-identical
results:

* **interp** — the original per-micro-operation engines: the SIMT
  generator interpreter stepping one thread at a time, and the perf
  engine's :class:`~repro.perf.engine.Recorder` doing per-call bucket
  accounting.
* **batched** — the warp-wide fast path: the SIMT core evaluates the
  memory accesses of all non-diverged lanes of a warp as numpy vectors
  in one dispatch (:mod:`repro.gpu.batch`), and the perf engine buffers
  per-site bucket increments into ndarray scratch flushed once per
  round (:class:`~repro.perf.engine.BatchedRecorder`).

Selection is resolved per component from, in priority order:

1. an explicit argument at the call/constructor site
   (``SimtExecutor(batch=...)``, ``record_trace(engine=...)``);
2. for the SIMT layer only, the ``REPRO_SIMT_BATCH`` env knob
   (``0``/``1`` — the benchmark harness's override);
3. the process-wide engine mode: ``set_engine()`` (the CLI's
   ``--engine``) or the ``REPRO_ENGINE`` env var;
4. the default, ``auto``.

``auto`` and ``batched`` both mean *use the fast path wherever it is
eligible*; ``interp`` forces the original engines everywhere.
Eligibility is decided per launch by :func:`repro.gpu.batch
.ineligible_reason`: any installed hook that observes individual
micro-steps (``step_probe``, fault injectors, weak-memory store
buffers, a controlled scheduler) forces the interpreter, so the
check/DPOR/repair paths always keep the exact interpreter semantics
they rely on — the batched tier can never be forced onto an execution
it cannot reproduce bit-identically.
"""

from __future__ import annotations

import os

ENGINE_INTERP = "interp"
ENGINE_BATCHED = "batched"
ENGINE_AUTO = "auto"

ENGINE_MODES = (ENGINE_INTERP, ENGINE_BATCHED, ENGINE_AUTO)

_FALSEY = ("0", "false", "no", "off", "")

#: process-wide explicit mode installed by the CLI (beats the env var)
_explicit_mode: str | None = None


def _validate(mode: str) -> str:
    if mode not in ENGINE_MODES:
        raise ValueError(
            f"unknown engine mode {mode!r}; expected one of {ENGINE_MODES}"
        )
    return mode


def set_engine(mode: str | None) -> None:
    """Install the process-wide engine mode (the CLI's ``--engine``).

    Also exported through ``REPRO_ENGINE`` so worker processes
    inherit the choice.
    """
    global _explicit_mode
    if mode is None:
        _explicit_mode = None
        return
    _explicit_mode = _validate(mode)
    os.environ["REPRO_ENGINE"] = _explicit_mode


def resolve_engine(explicit: str | None = None) -> str:
    """The effective engine mode (``interp``/``batched``/``auto``)."""
    if explicit is not None:
        return _validate(explicit)
    if _explicit_mode is not None:
        return _explicit_mode
    env = os.environ.get("REPRO_ENGINE")
    if env:
        return _validate(env)
    return ENGINE_AUTO


def simt_batch_enabled(explicit: bool | None = None) -> bool:
    """Whether the SIMT layer may use the batched warp-wide stepper.

    True only grants *permission*: the executor still runs the
    interpreter whenever the launch is ineligible (hooks, controlled
    schedulers, weak memory — see :func:`repro.gpu.batch
    .ineligible_reason`).
    """
    if explicit is not None:
        return bool(explicit)
    env = os.environ.get("REPRO_SIMT_BATCH")
    if env is not None:
        return env.strip().lower() not in _FALSEY
    return resolve_engine() != ENGINE_INTERP


def recorder_batch_enabled(explicit: str | None = None) -> bool:
    """Whether the perf engine should use the vectorized recorder."""
    return resolve_engine(explicit) != ENGINE_INTERP
