"""Resilient sweep execution: checkpoint/resume and the graceful
interrupt on top of the study framework's cell policy.

The paper's sweeps (Tables IV-IX) run hundreds of (algorithm x input x
device x variant x repetition) cells, and its own Section II argues that
racy kernels can livelock, tear words, and corrupt results.  The cell
policy lives in :class:`~repro.core.study.Study` — its ``run_cell`` is
the one cell executor, re-exported here with its records,
:class:`CellBudget` and :func:`run_guarded`:

* a failing cell becomes a structured :class:`CellFailure` record
  (per-cell isolation);
* :class:`DeadlockError` livelocks become recorded failures, bounded by
  the :class:`CellBudget` step/wall-clock limits, not crashes;
* transient faults (:class:`~repro.errors.TransientKernelFault`) are
  retried with fresh schedule seeds and exponential backoff.

:class:`ResilientStudy` adds what makes a long sweep survive:

* its sweep records failed cells and continues;
* after every cell the study checkpoints atomically (temp file +
  rename), and a later run can ``--resume`` to execute only the
  missing cells;
* SIGINT/SIGTERM stop the sweep cleanly after one last checkpoint;
* partial results still render: see
  :func:`repro.core.report.resilient_speedup_table`, which prints
  ``FAIL(reason)`` cells and coverage-annotated geomeans.
"""

from __future__ import annotations

import contextlib
import json
import os
import signal
import threading
import zlib
from dataclasses import dataclass
from pathlib import Path

from repro.core.study import (  # noqa: F401 - re-exported
    CellBudget,
    CellFailure,
    GuardedFailure,
    RecordTexts,
    RunResult,
    SpeedupCell,
    Study,
    json_document,
    run_guarded,
)
# perfbench/layers.py wraps ``resilience.run_algorithm`` by this name
from repro.core.study import run_algorithm  # noqa: F401
from repro.core.variants import Variant
from repro.errors import StudyError, SweepInterrupted
from repro.telemetry.metrics import SCOPE_PROCESS, get_registry
from repro.utils.atomicio import atomic_write_text
from repro.utils.records import Damaged, decode

CHECKPOINT_FORMAT = 3
"""On-disk checkpoint format version (results + failures).

Format 3 adds a CRC32 content checksum (``crc``); format-2 files (no
checksum) still load.  Anything else is treated as a damaged
generation and falls back to the rotated ``.prev`` file."""

_LOADABLE_FORMATS = (2, CHECKPOINT_FORMAT)


def checkpoint_crc(payload: dict) -> int:
    """CRC32 over the checkpoint's record content (canonical JSON of
    the results and failures lists), independent of file formatting."""
    body = [payload.get("results", []), payload.get("failures", [])]
    return zlib.crc32(json.dumps(body, sort_keys=True).encode())


_DAMAGE_MESSAGES = {
    "torn": "corrupt or partial checkpoint {path}: {detail}",
    "shape": "{path} is not a study checkpoint file",
    "format": "checkpoint {path} has {detail} (loadable: {loadable})",
    "checksum": ("checkpoint {path} failed its content checksum "
                 "(bit rot or partial overwrite)"),
}


class _CheckpointDamaged(StudyError):
    """Internal: one checkpoint *generation* is unreadable (torn,
    bit-flipped, or wrong format) — distinct from a configuration
    mismatch, which must not silently fall back."""


@dataclass
class SweepResult:
    """Outcome of one :meth:`ResilientStudy.sweep` (one device table)."""

    device_key: str
    cells: list  # SpeedupCell | CellFailure, in sweep order

    @property
    def completed(self) -> list[SpeedupCell]:
        return [c for c in self.cells if isinstance(c, SpeedupCell)]

    @property
    def failures(self) -> list[CellFailure]:
        return [c for c in self.cells if isinstance(c, CellFailure)]

    @property
    def coverage(self) -> tuple[int, int]:
        """(completed cells, total cells)."""
        return len(self.completed), len(self.cells)


class ResilientStudy(Study):
    """A :class:`Study` whose sweeps survive the failures they measure
    and the process that runs them.

    Takes :class:`Study`'s parameters (the cell policy: ``retries``,
    ``backoff_s``, ``budget``, ``faults``) plus:

    checkpoint:
        Path for incremental checkpoints: after every cell a complete
        generation (every result and failure) is written and fsynced
        atomically, but only the records new since the last save are
        JSON-encoded — the rest reuse their cached text.  Use
        :meth:`load_checkpoint` (or the CLI's ``--resume``) to continue
        an interrupted sweep, executing only the missing cells.
    """

    def __init__(self, *args, checkpoint: str | Path | None = None,
                 **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.checkpoint = None if checkpoint is None else Path(checkpoint)
        self._failure_texts = RecordTexts(CellFailure.to_record)
        #: (path, bytes) of the last checkpoint this study wrote
        #: successfully — a generation verified by construction
        self._last_write: tuple[Path, bytes] | None = None
        #: times :meth:`load_checkpoint` had to fall back to the
        #: rotated ``.prev`` generation
        self.checkpoint_fallbacks = 0
        #: malformed records skipped (salvaged around) during load
        self.checkpoint_salvaged = 0
        #: autosave attempts that failed with an OSError (the sweep
        #: keeps running; checkpointing is an optimization)
        self.checkpoint_write_errors = 0

    # ------------------------------------------------------------------
    # Views over Study.run_cell
    # ------------------------------------------------------------------
    def run(self, algorithm: str, graph_or_name, device: str,
            variant: Variant) -> RunResult:
        """Strict view of :meth:`run_cell`: raises on a failed cell.

        Unlike :meth:`Study.run`, a failure always surfaces as a
        :class:`~repro.errors.StudyError` naming the ``FAIL(reason)``
        cell — the cell policy already classified (and checkpointed)
        it.
        """
        out = self.run_cell(algorithm, graph_or_name, device, variant)
        if isinstance(out, CellFailure):
            raise StudyError(f"{out.describe()}: {out.message}")
        return out

    def speedup_cell(self, algorithm: str, graph_or_name,
                     device: str) -> SpeedupCell | CellFailure:
        """Baseline-vs-race-free speedup with fault isolation.

        Both variants always run (so a checkpoint records the surviving
        variant even when the other fails); a failure of either variant
        makes the cell a :class:`CellFailure`, baseline first.
        """
        return self._speedup(algorithm, graph_or_name, device,
                             self.run_cell)

    def sweep(self, device: str, algorithms: list[str],
              inputs: list[str], jobs: int | None = None) -> SweepResult:
        """All cells of one device table, surviving per-cell failures.

        ``jobs > 1`` runs the missing cells on worker processes (workers
        apply the same retry/budget/fault policy and return picklable
        outcome records), then assembles the table from the memo; the
        cells, checkpoints, and ``save_results`` output are
        bit-identical to the serial path.
        """
        with self._graceful_interrupt():
            cells = self._table(device, algorithms, inputs, jobs,
                                self.speedup_cell, resilient=True)
        return SweepResult(device_key=device, cells=cells)

    @contextlib.contextmanager
    def _graceful_interrupt(self):
        """Convert SIGINT/SIGTERM during a sweep into a clean stop.

        The signal raises :class:`~repro.errors.SweepInterrupted` at
        the next bytecode boundary; every completed cell has already
        been checkpointed by ``_autosave``, and one final checkpoint
        write (with the default handlers restored, so a second signal
        kills hard) guarantees the file reflects the last finished
        cell.  The CLI maps the exception to exit code 3.  Outside the
        main thread — or on platforms without these signals — the sweep
        runs unguarded, unchanged.
        """
        if threading.current_thread() is not threading.main_thread():
            yield
            return

        def _handler(signum, frame):
            name = signal.Signals(signum).name
            raise SweepInterrupted(
                f"sweep interrupted by {name}; checkpoint is consistent "
                "as of the last completed cell — rerun with --resume")

        previous = {}
        for sig in (signal.SIGINT, signal.SIGTERM):
            with contextlib.suppress(OSError, ValueError):
                previous[sig] = signal.signal(sig, _handler)
        try:
            yield
        except SweepInterrupted:
            for sig, old in previous.items():
                signal.signal(sig, old)
            with contextlib.suppress(OSError):
                self._autosave()
            raise
        finally:
            for sig, old in previous.items():
                with contextlib.suppress(OSError, ValueError):
                    signal.signal(sig, old)

    def failures(self) -> list[CellFailure]:
        """Every failure recorded (or checkpoint-loaded) so far."""
        return list(self._failures.values())

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    @staticmethod
    def _prev_path(path: Path) -> Path:
        """The rotated previous-generation file next to ``path``."""
        return path.with_name(path.name + ".prev")

    def _count_host(self, name: str, help: str) -> None:
        reg = get_registry()
        if reg.enabled:
            reg.counter(name, help, scope=SCOPE_PROCESS).inc(1)

    def _autosave(self) -> None:
        """Checkpoint after a cell, surviving checkpoint-write failure.

        A full scratch disk must not kill a sweep whose actual results
        live in memory: the error is counted
        (``repro_host_checkpoint_write_errors_total``) and the sweep
        continues — the next cell retries the write.
        """
        if self.checkpoint is None:
            return
        try:
            self.save_checkpoint(self.checkpoint)
        except OSError:
            self.checkpoint_write_errors += 1
            self._count_host(
                "repro_host_checkpoint_write_errors_total",
                "Checkpoint autosaves that failed with an OSError")

    def save_checkpoint(self, path: str | Path | None = None) -> None:
        """Atomically persist all results *and* failures.

        Called after every cell when a checkpoint path is configured; a
        crash between cells loses at most the in-flight cell.  The
        payload carries a CRC32 content checksum, and the previous
        generation — *verified* before rotation, so a torn current file
        never displaces a good one — is kept as ``<name>.prev`` for
        :meth:`load_checkpoint` to fall back to.

        Every save writes a complete generation, but JSON-encodes only
        the records new since the last one (:class:`RecordTexts`): the
        file is byte-identical to ``json.dumps(payload, indent=1)`` and
        its ``crc`` equals :func:`checkpoint_crc` of that payload.
        """
        path = Path(path) if path is not None else self.checkpoint
        if path is None:
            raise StudyError("no checkpoint path configured")
        results, results_canon = self._result_texts.encode(self._results)
        failures, failures_canon = self._failure_texts.encode(
            self._failures)
        canonical = ("[[" + ", ".join(results_canon) + "], ["
                     + ", ".join(failures_canon) + "]]")
        text = json_document([
            ("format", CHECKPOINT_FORMAT),
            ("reps", self.reps),
            ("scale", self.scale),
            ("results", results),
            ("failures", failures),
            ("crc", zlib.crc32(canonical.encode())),
        ])
        self._rotate_generation(path)
        atomic_write_text(path, text)
        self._last_write = (path, text.encode())

    def _rotate_generation(self, path: Path) -> None:
        """Keep the last *good* generation as ``.prev``.

        Only a generation that still parses and passes its checksum is
        rotated; a corrupt current file (torn by an earlier injected or
        real fault) is left in place so it cannot clobber the last good
        ``.prev``.  A file holding exactly the bytes this study last
        wrote there is good by construction; anything else — a write a
        host fault mangled, a foreign writer, the first save after a
        load — gets the full :meth:`_read_generation` check.
        """
        if not path.exists():
            return
        if not self._holds_last_write(path):
            try:
                self._read_generation(path)
            except StudyError:
                return
        with contextlib.suppress(OSError):
            os.replace(path, self._prev_path(path))

    def _holds_last_write(self, path: Path) -> bool:
        if self._last_write is None or self._last_write[0] != path:
            return False
        try:
            return path.read_bytes() == self._last_write[1]
        except OSError:
            return False

    def _read_generation(self, path: Path) -> dict:
        """Parse + integrity-check one checkpoint generation.

        Raises :class:`_CheckpointDamaged` for anything recovery should
        fall back from (unreadable, torn, checksum mismatch, unknown
        format) and plain :class:`StudyError` for a reps/scale
        configuration mismatch, which must surface, not be papered
        over by the ``.prev`` generation.
        """
        try:
            payload = decode(Path(path).read_bytes(),
                             formats=_LOADABLE_FORMATS, crc=checkpoint_crc,
                             unchecked=(2,),
                             shape=lambda p: "results" in p)
        except OSError as exc:
            raise _CheckpointDamaged(
                f"corrupt or partial checkpoint {path}: {exc}") from exc
        except Damaged as exc:
            raise _CheckpointDamaged(_DAMAGE_MESSAGES[exc.cause].format(
                path=path, detail=exc,
                loadable=_LOADABLE_FORMATS)) from exc
        if (payload.get("reps") != self.reps
                or payload.get("scale") != self.scale):
            raise StudyError(
                "saved results were produced with a different reps/scale "
                f"({payload.get('reps')}/{payload.get('scale')} vs "
                f"{self.reps}/{self.scale})")
        return payload

    def _salvage_payload(self, payload: dict) -> tuple[int, int]:
        """Stage every parseable record, skip damaged ones, commit once.

        All-or-nothing against *exceptions*: the memo and failure map
        are only touched after the whole payload has been staged into
        locals, so a malformed record can never leave the study
        half-loaded.  Damaged records are skipped (and counted as
        ``checkpoint_salvaged``) rather than discarding the generation.
        """
        staged: dict[str, dict[tuple, object]] = {}
        skipped = 0
        for field, codec in (("results", RunResult),
                             ("failures", CellFailure)):
            staged[field] = {}
            for rec in payload.get(field, []):
                try:
                    out = codec.from_record(rec)
                except (KeyError, TypeError, ValueError):
                    skipped += 1
                    continue
                staged[field][out.key] = out
        if skipped:
            self.checkpoint_salvaged += skipped
            reg = get_registry()
            if reg.enabled:
                reg.counter("repro_host_checkpoint_salvaged_total",
                            "Malformed checkpoint records skipped during "
                            "a salvage load", scope=SCOPE_PROCESS
                            ).inc(skipped)
        self._results.update(staged["results"])
        self._failures.update(staged["failures"])
        return len(staged["results"]), len(staged["failures"])

    def load_checkpoint(self, path: str | Path | None = None
                        ) -> tuple[int, int]:
        """Resume from a checkpoint; returns (results, failures) loaded.

        Loaded cells are memoized, so a subsequent :meth:`sweep`
        executes only the missing ones (``cells_executed`` counts just
        those).  Previously failed cells stay failed — delete their
        records from the file to re-attempt them.

        Recovery ladder: a damaged current generation (torn, checksum
        mismatch, unknown format) falls back to the rotated ``.prev``
        generation (counted in ``checkpoint_fallbacks`` and
        ``repro_host_checkpoint_fallbacks_total``); within a readable
        generation, malformed records are skipped and the rest
        salvaged, with the commit staged so the study is never left
        half-loaded.  Only when *every* generation is unreadable — or
        the file was written with a different reps/scale — does this
        raise :class:`~repro.errors.StudyError`.
        """
        path = Path(path) if path is not None else self.checkpoint
        if path is None:
            raise StudyError("no checkpoint path configured")
        damage: _CheckpointDamaged | None = None
        for fallback, candidate in enumerate(
                (path, self._prev_path(path))):
            try:
                payload = self._read_generation(candidate)
            except _CheckpointDamaged as exc:
                damage = damage or exc
                continue
            if fallback:
                self.checkpoint_fallbacks += 1
                self._count_host(
                    "repro_host_checkpoint_fallbacks_total",
                    "Checkpoint loads served by the rotated .prev "
                    "generation after the current one was damaged")
            return self._salvage_payload(payload)
        assert damage is not None
        raise damage
