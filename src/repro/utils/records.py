"""Durable records: one integrity ladder for persisted sweep state.

Racy code tears words and corrupts results (Section II), and so do
crashes, full disks and bit rot, so no persisted record is trusted
unchecked.  Recorded traces, shared fleet cells and sweep checkpoints
are all read through :func:`decode`, which names the damage: ``torn``
(not UTF-8, or not JSON), ``shape`` (not a dict, or failing the
caller's predicate), ``format`` (an unknown version) or ``checksum``
(the embedded CRC32 does not match).  :class:`RecordDir` holds the rest
of the ladder for a directory of content-addressed records — atomic
writes, ``*.corrupt`` quarantine, sticky degrade to memory-only, and
byte-budget pruning — with its telemetry labelled
``store="trace"|"result"``.
"""

from __future__ import annotations

import contextlib
import json
import os
import zlib
from pathlib import Path
from typing import Callable

from repro.telemetry.metrics import SCOPE_PROCESS, get_registry
from repro.utils.atomicio import atomic_write_text

DEGRADE_AFTER = 3
"""Consecutive disk-write errors before a :class:`RecordDir` degrades
to memory-only operation."""


def payload_crc(payload: dict) -> int:
    """CRC32 of a record's content, excluding the ``crc`` field.

    Canonical (sorted-keys) JSON, so the digest is independent of the
    key order the file happens to use."""
    body = {k: v for k, v in payload.items() if k != "crc"}
    return zlib.crc32(json.dumps(body, sort_keys=True).encode())


class Damaged(ValueError):
    """A record failed :func:`decode`; ``cause`` names how."""

    def __init__(self, cause: str, detail: str = "") -> None:
        super().__init__(detail or cause)
        self.cause = cause


def decode(data: bytes, *, formats: tuple, crc: Callable[[dict], int],
           unchecked: tuple = (),
           shape: Callable[[dict], bool] | None = None) -> dict:
    """The payload dict of one record's bytes, or raise :class:`Damaged`.

    ``formats`` are the loadable versions; ``crc`` computes the checksum
    the ``crc`` field must equal, except for the (pre-checksum) formats
    in ``unchecked``; ``shape`` is an extra predicate the payload must
    satisfy to count as well-formed.
    """
    try:
        payload = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise Damaged("torn", str(exc)) from exc
    if not isinstance(payload, dict) or (shape and not shape(payload)):
        raise Damaged("shape")
    if payload.get("format") not in formats:
        raise Damaged("format", f"unsupported format "
                                f"{payload.get('format')!r}")
    if (payload["format"] not in unchecked
            and payload.get("crc") != crc(payload)):
        raise Damaged("checksum")
    return payload


def count_event(store: str, event: str, amount: int = 1) -> None:
    """Count one store event in ``repro_store_events_total``."""
    reg = get_registry()
    if reg.enabled:
        reg.counter("repro_store_events_total",
                    "Durable-record store events, by store and kind",
                    ("store", "event"), scope=SCOPE_PROCESS
                    ).inc(amount, store, event)


class RecordDir:
    """One directory of ``<prefix>-<digest>.json`` records.

    :meth:`read` accepts only format ``fmt`` (which :meth:`write`
    stamps) and quarantines ``torn``/``shape``/``checksum`` damage to
    ``*.corrupt``: never served again, kept for post-mortems, evicted
    first by :meth:`prune`.  An unreadable file or an unknown format is
    a plain miss, left in place to be overwritten.  After
    :data:`DEGRADE_AFTER` consecutive write errors the directory stops
    touching the disk for its lifetime (``degraded``); its owner keeps
    serving from memory.
    """

    def __init__(self, disk_dir: str | Path, *, prefix: str, fmt: int,
                 store: str,
                 shape: Callable[[dict], bool] | None = None) -> None:
        self.disk_dir = Path(disk_dir)
        self.prefix = prefix
        self.fmt = fmt
        self.store = store
        self.shape = shape
        self.quarantined = 0
        self.disk_errors = 0
        self.degraded = False
        self._consecutive_errors = 0

    def path(self, digest: str) -> Path:
        return self.disk_dir / f"{self.prefix}-{digest}.json"

    def read(self, digest: str) -> dict | None:
        """The verified payload stored under ``digest``, or ``None``."""
        if self.degraded:
            return None
        path = self.path(digest)
        try:
            data = path.read_bytes()
        except OSError:
            return None  # missing (or unreadable) file: a miss
        try:
            return decode(data, formats=(self.fmt,), crc=payload_crc,
                          shape=self.shape)
        except Damaged as exc:
            if exc.cause != "format":  # an older build's file: a miss
                self._quarantine(path, exc.cause)
            return None

    def write(self, digest: str, payload: dict) -> bool:
        """Stamp ``format`` + ``crc`` and write atomically; returns
        whether the record reached the disk (an :class:`OSError` is
        counted, never raised)."""
        if self.degraded:
            return False
        payload = {"format": self.fmt, **payload}
        payload["crc"] = payload_crc(payload)
        try:
            self.disk_dir.mkdir(parents=True, exist_ok=True)
            atomic_write_text(self.path(digest),
                              json.dumps(payload, sort_keys=True))
        except OSError:
            self.disk_errors += 1
            self._consecutive_errors += 1
            count_event(self.store, "disk_error")
            if self._consecutive_errors >= DEGRADE_AFTER:
                self.degraded = True
                reg = get_registry()
                if reg.enabled:
                    reg.gauge("repro_store_degraded",
                              "1 once a record store runs memory-only "
                              "after repeated disk errors", ("store",),
                              scope=SCOPE_PROCESS).set(1, self.store)
            return False
        self._consecutive_errors = 0
        self._publish_usage()
        return True

    def _quarantine(self, path: Path, cause: str) -> None:
        """Move a damaged record out of the ``<prefix>-*.json`` glob."""
        with contextlib.suppress(OSError):
            os.replace(path, path.with_name(path.name + ".corrupt"))
        self.quarantined += 1
        count_event(self.store, "quarantined")
        reg = get_registry()
        if reg.enabled:
            reg.counter("repro_host_corrupt_quarantined_total",
                        "Corrupt records moved aside, by store and cause",
                        ("store", "cause"), scope=SCOPE_PROCESS
                        ).inc(1, self.store, cause)

    # ------------------------------------------------------------------
    def usage(self) -> tuple[int, int]:
        """(entry count, total bytes) of the live records."""
        entries = 0
        nbytes = 0
        for path in self.disk_dir.glob(f"{self.prefix}-*.json"):
            try:
                nbytes += path.stat().st_size
            except OSError:
                continue  # concurrently pruned by another process
            entries += 1
        return entries, nbytes

    def _publish_usage(self) -> None:
        reg = get_registry()
        if not reg.enabled:
            return
        entries, nbytes = self.usage()
        reg.gauge("repro_store_disk_entries",
                  "Records in a store's on-disk layer", ("store",),
                  scope=SCOPE_PROCESS).set(entries, self.store)
        reg.gauge("repro_store_disk_bytes",
                  "Bytes held by a store's on-disk layer", ("store",),
                  scope=SCOPE_PROCESS).set(nbytes, self.store)

    def prune(self, max_bytes: int) -> tuple[int, int]:
        """Evict files until the directory fits ``max_bytes``: first
        ``*.corrupt`` quarantine (it serves no lookup), then records
        oldest-first by mtime; returns (files removed, bytes freed).
        A concurrently deleted file is just a miss for other readers.
        """
        if max_bytes < 0:
            raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
        stamped = []
        total = 0
        # quarantined files sort ahead of every live record (rank 0)
        for rank, pattern in ((0, f"{self.prefix}-*.json.corrupt"),
                              (1, f"{self.prefix}-*.json")):
            for path in self.disk_dir.glob(pattern):
                try:
                    st = path.stat()
                except OSError:
                    continue
                stamped.append((rank, st.st_mtime, path, st.st_size))
                total += st.st_size
        stamped.sort()
        removed = 0
        freed = 0
        quarantined_removed = 0
        for rank, _, path, size in stamped:
            if total <= max_bytes:
                break
            try:
                path.unlink()
            except OSError:
                continue
            total -= size
            freed += size
            removed += 1
            quarantined_removed += rank == 0
        if quarantined_removed:
            count_event(self.store, "prune_quarantined",
                        quarantined_removed)
        self._publish_usage()
        return removed, freed
