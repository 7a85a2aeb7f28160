"""Content-addressed shared result store for the worker fleet.

Fleet replicas (and successive server incarnations pointed at the same
directory) share completed cells through one on-disk store instead of
recomputing them: each fully-``ok`` cell is published as
``cell-<digest>.json``, where the digest is a blake2b hash of the cell
identity *and* the study policy (``reps``/``scale``/format version), so
a store can never serve records produced under a different policy.

Records go through the same durability ladder as recorded traces —
atomic publish, CRC self-checking with ``*.corrupt`` quarantine, and a
sticky memory-only degrade after repeated disk errors, which
``/readyz`` reports — one :class:`~repro.utils.records.RecordDir`
(``store="result"``).  A quarantined record is simply recomputed.

Publishing is *best effort* and lookups are *advisory*: a store failure
never fails a cell, it only costs a recomputation.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

from repro.utils.records import RecordDir, count_event

STORE_FORMAT = 1


def _publishable(records) -> bool:
    """Only a non-empty list of ``result`` records is a cell."""
    return (isinstance(records, list) and bool(records)
            and all(isinstance(r, dict) and r.get("kind") == "result"
                    for r in records))


class ResultStore:
    """One directory of content-addressed, CRC-checked cell records.

    Parameters
    ----------
    disk_dir:
        Directory for ``cell-*.json`` records (created on demand).
    reps / scale:
        The owning study's policy; part of every cell's address so
        records never cross policy boundaries.
    """

    def __init__(self, disk_dir, *, reps: int, scale: float) -> None:
        self.disk_dir = Path(disk_dir)
        self.disk = RecordDir(self.disk_dir, prefix="cell",
                              fmt=STORE_FORMAT, store="result",
                              shape=lambda p: _publishable(
                                  p.get("records")))
        self.reps = int(reps)
        self.scale = float(scale)
        self._mem: dict[str, list[dict]] = {}
        #: observability counters (also exported as telemetry)
        self.hits = 0
        self.misses = 0
        self.publishes = 0

    # ------------------------------------------------------------------
    @property
    def degraded(self) -> bool:
        """True once the store has sticky-degraded to memory-only."""
        return self.disk.degraded

    @property
    def quarantined(self) -> int:
        return self.disk.quarantined

    @property
    def disk_errors(self) -> int:
        return self.disk.disk_errors

    def status(self) -> dict:
        return {"dir": str(self.disk_dir), "degraded": self.degraded,
                "hits": self.hits, "misses": self.misses,
                "publishes": self.publishes,
                "quarantined": self.quarantined,
                "disk_errors": self.disk_errors}

    # ------------------------------------------------------------------
    def digest(self, algorithm: str, input_name: str, device: str) -> str:
        """The content address of one cell under this store's policy."""
        identity = repr((STORE_FORMAT, self.reps, self.scale,
                         algorithm, input_name, device))
        return hashlib.blake2b(identity.encode("utf-8"),
                               digest_size=16).hexdigest()

    def _identity(self, algorithm: str, input_name: str,
                  device: str) -> dict:
        """The payload fields a record must match to be served."""
        return {"reps": self.reps, "scale": self.scale,
                "algorithm": algorithm, "input": input_name,
                "device": device}

    # ------------------------------------------------------------------
    def publish(self, algorithm: str, input_name: str, device: str,
                records: list[dict]) -> None:
        """Publish one completed cell's ``result`` records.

        Only fully-successful cells are publishable — failures stay
        local (they are policy- and deadline-dependent, not content).
        Publish errors degrade the store, never the cell.
        """
        if not _publishable(records):
            return
        digest = self.digest(algorithm, input_name, device)
        self._mem[digest] = [dict(r) for r in records]
        if self.disk.write(digest, {
                **self._identity(algorithm, input_name, device),
                "records": records}):
            self.publishes += 1
            count_event("result", "publish")

    # ------------------------------------------------------------------
    def lookup(self, algorithm: str, input_name: str,
               device: str) -> list[dict] | None:
        """The cell's published ``result`` records, or None.

        Damaged records are quarantined by the record layer; identity
        or policy mismatches (a digest collision would be the only path
        here) are misses.
        """
        digest = self.digest(algorithm, input_name, device)
        records = self._mem.get(digest)
        if records is None:
            payload = self.disk.read(digest)
            identity = self._identity(algorithm, input_name, device)
            if payload is None or any(payload.get(k) != v
                                      for k, v in identity.items()):
                self.misses += 1
                count_event("result", "miss")
                return None
            records = self._mem[digest] = payload["records"]
        self.hits += 1
        count_event("result", "hit")
        return [dict(r) for r in records]
