"""Tests for the worker fleet: FleetExecutor, the shared result
store, and the fleet-aware service endpoints.

The container has no pytest-asyncio, so async paths run under plain
``asyncio.run`` inside synchronous test functions.  Fleet tests fork
real worker processes; they keep the grids tiny (two cells, one rep)
and the heartbeat fast so failure detection is prompt.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import time

import pytest

from repro.core import hostfaults
from repro.core.hostfaults import HostFaultPlan
from repro.gpu.faults import FaultPlan
from repro.service.fleet import FleetExecutor
from repro.service.protocol import CellKey
from repro.service.scheduler import StudyExecutor
from repro.service.server import ServiceConfig, SweepService
from repro.service.store import ResultStore

from .ladders import make_records

CELLS = (CellKey("cc", "internet", "titanv"),
         CellKey("mis", "internet", "titanv"))
#: large enough that an injected abort hits some baselines whose
#: race-free variant survives (the ledger-drift regression)
GRID = tuple(CellKey(a, name, "titanv")
             for name in ("internet", "USA-road-d.NY")
             for a in ("cc", "gc", "mis", "mst"))


def _run_cells(executor, cells=CELLS, timeout=60.0):
    futures = [executor.submit(key, 300.0) for key in cells]
    return [f.result(timeout=timeout) for f in futures]


def _canonical(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True)


def _wait_for(predicate, timeout=15.0, interval=0.02, what="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(interval)
    raise AssertionError(f"timed out waiting for {what}")


# ----------------------------------------------------------------------
# Byte-identity: the fleet is indistinguishable from the serial path
# ----------------------------------------------------------------------
class TestFleetByteIdentity:
    @pytest.mark.parametrize(
        "faults, cells",
        [(None, CELLS), (FaultPlan.parse("abort=0.5", seed=1), GRID)],
        ids=["no-faults", "abort"])
    def test_two_workers_match_single_worker_payload(self, faults, cells):
        # a failed baseline must not skip the race-free variant: the
        # serial path runs both, so the fleet's ledger must hold both
        serial = StudyExecutor(reps=1, faults=faults)
        fleet = FleetExecutor(workers=2, reps=1, heartbeat_s=0.1,
                              faults=faults)
        try:
            serial_cells = [serial.submit(k, 300.0).result(timeout=60)
                            for k in cells]
            fleet_cells = _run_cells(fleet, cells)
            assert _canonical(fleet.results_payload()) == \
                _canonical(serial.results_payload())
            assert set(fleet.study._failures) == set(serial.study._failures)
            for ours, theirs in zip(fleet_cells, serial_cells):
                assert type(ours) is type(theirs)
                assert getattr(ours, "speedup", None) == \
                    getattr(theirs, "speedup", None)
                assert getattr(ours, "reason", None) == \
                    getattr(theirs, "reason", None)
            assert fleet.study.cells_executed == 2 * len(cells)
        finally:
            fleet.shutdown()
            serial.shutdown()

    def test_memo_serves_repeat_submission_without_execution(self):
        fleet = FleetExecutor(workers=2, reps=1, heartbeat_s=0.1)
        try:
            first = _run_cells(fleet)
            executed = fleet.study.cells_executed
            again = _run_cells(fleet)
            assert fleet.study.cells_executed == executed
            for ours, theirs in zip(again, first):
                assert ours.speedup == theirs.speedup
        finally:
            fleet.shutdown()


# ----------------------------------------------------------------------
# Failover: kills, redispatch, and the flap circuit-breaker
# ----------------------------------------------------------------------
class TestFleetFailover:
    def test_killed_workers_redispatch_each_cell_at_most_once(self):
        plan = HostFaultPlan.parse("kill=1.0", seed=3,
                                   disrupt_generations=1)
        with hostfaults.installed(plan):
            fleet = FleetExecutor(workers=2, reps=1, heartbeat_s=0.1)
            try:
                cells = _run_cells(fleet)
                assert all(hasattr(c, "speedup") for c in cells)
                status = fleet.fleet_status()
                assert status["respawns"] >= 1
                assert status["redispatches"] >= 1
                # each lost cell executed exactly once on a survivor
                assert fleet.study.cells_executed == 2 * len(CELLS)
            finally:
                fleet.shutdown()

    def test_restart_storm_evicts_flapping_slot_but_serves(self):
        # a worker SIGKILLed every time it comes back trips its flap
        # breaker: the slot is evicted, its sibling keeps serving, and
        # the fleet reports itself degraded instead of looping forever
        fleet = FleetExecutor(workers=2, reps=1, heartbeat_s=0.05,
                              flap_threshold=2, flap_cooldown_s=3600.0)
        try:
            for kill in range(2):
                status = fleet.fleet_status()["workers"][0]
                assert status["pid"] is not None
                generation = status["generation"]
                os.kill(status["pid"], signal.SIGKILL)
                if kill == 0:
                    _wait_for(
                        lambda: (fleet.fleet_status()["workers"][0]
                                 ["generation"]) > generation,
                        what="slot 0 respawn")
                else:
                    _wait_for(
                        lambda: (fleet.fleet_status()["workers"][0]
                                 ["state"]) == "evicted",
                        what="slot 0 eviction")
            status = fleet.fleet_status()
            assert status["evictions"] == 1
            assert fleet.fleet_degraded is True
            # the surviving sibling still executes the whole grid
            cells = _run_cells(fleet)
            assert all(hasattr(c, "speedup") for c in cells)
            assert fleet.study.cells_executed == 2 * len(CELLS)
        finally:
            fleet.shutdown()


# ----------------------------------------------------------------------
# The content-addressed shared result store
# ----------------------------------------------------------------------
class TestResultStore:
    """Store-specific identity and failure cases; the shared record
    ladder (roundtrip, torn, bitflip, shape, degrade, prune) runs in
    ``test_hostfaults.TestResultStoreSelfHealing`` and
    ``test_trace_replay.TestResultStorePrune``."""

    def test_policy_mismatch_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path / "store", reps=1, scale=1.0)
        store.publish("cc", "internet", "titanv", make_records())
        other = ResultStore(tmp_path / "store", reps=3, scale=1.0)
        assert other.lookup("cc", "internet", "titanv") is None

    def test_disk_failure_sticky_degrades_to_memory(self, tmp_path):
        blocker = tmp_path / "store"
        blocker.write_text("not a directory")
        store = ResultStore(blocker, reps=1, scale=1.0)
        for i in range(3):
            store.publish("cc", "internet", f"dev{i}", make_records())
        assert store.degraded is True
        # memory mirror still serves what this process published
        assert store.lookup("cc", "internet", "dev0") == make_records()
        status = store.status()
        assert status["degraded"] is True
        assert status["disk_errors"] >= 3


class TestFleetStore:
    def test_corrupted_store_record_recomputed_byte_identical(
            self, tmp_path):
        store_dir = tmp_path / "store"
        first = FleetExecutor(
            workers=2, reps=1, heartbeat_s=0.1,
            store=ResultStore(store_dir, reps=1, scale=1.0))
        try:
            _run_cells(first)
            baseline = _canonical(first.results_payload())
        finally:
            first.shutdown()
        published = sorted(store_dir.glob("cell-*.json"))
        assert len(published) == len(CELLS)
        published[0].write_text(published[0].read_text()[:-7])

        second = FleetExecutor(
            workers=2, reps=1, heartbeat_s=0.1,
            store=ResultStore(store_dir, reps=1, scale=1.0))
        try:
            _run_cells(second)
            assert _canonical(second.results_payload()) == baseline
            status = second.store.status()
            assert status["quarantined"] == 1
            assert status["hits"] == len(CELLS) - 1
            # only the quarantined cell was recomputed
            assert second.study.cells_executed == 2
        finally:
            second.shutdown()


# ----------------------------------------------------------------------
# Service endpoints: /readyz degradation and study events
# ----------------------------------------------------------------------
async def _fetch(host, port, method, path, body=None):
    reader, writer = await asyncio.open_connection(host, port)
    payload = b"" if body is None else json.dumps(body).encode()
    writer.write((f"{method} {path} HTTP/1.1\r\nHost: test\r\n"
                  f"Content-Length: {len(payload)}\r\n\r\n"
                  ).encode() + payload)
    await writer.drain()
    raw = await reader.read()
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionResetError, BrokenPipeError, OSError):
        pass
    head, _, rest = raw.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    return status, head, rest


def _dechunk(body: bytes) -> list[dict]:
    out = []
    i = 0
    while i < len(body):
        j = body.index(b"\r\n", i)
        size = int(body[i:j], 16)
        if size == 0:
            break
        out.append(body[j + 2:j + 2 + size])
        i = j + 2 + size + 2
    return [json.loads(line)
            for line in b"".join(out).splitlines() if line]


class TestServiceFleet:
    def test_fleet_service_end_to_end_with_readyz_fleet_block(
            self, tmp_path):
        async def go():
            config = ServiceConfig(port=0, reps=1, retries=0, workers=2,
                                   store_dir=str(tmp_path / "store"),
                                   fleet_heartbeat_s=0.1)
            service = SweepService(config)
            await service.start()
            host, port = service.address
            status, _head, body = await _fetch(host, port, "GET",
                                               "/readyz")
            assert status == 200
            payload = json.loads(body)
            assert payload["ready"] is True
            assert payload["reasons"] == []
            assert len(payload["fleet"]["workers"]) == 2

            status, _head, body = await _fetch(
                host, port, "POST", "/v1/study",
                {"algorithms": ["cc", "mis"], "inputs": ["internet"],
                 "device": "titanv", "tenant": "fleet"})
            assert status == 200
            records = _dechunk(body)
            cells = [r for r in records if "cell" in r]
            assert len(cells) == 2
            assert all(r["status"] == "ok" for r in cells)
            assert records[0]["study_id"] == records[-1][
                "summary"]["study_id"]
            await service.aclose()

        asyncio.run(go())

    def test_readyz_degrades_on_eviction_and_store_degrade(
            self, tmp_path):
        async def go():
            config = ServiceConfig(port=0, reps=1, retries=0, workers=2,
                                   store_dir=str(tmp_path / "store"),
                                   fleet_heartbeat_s=0.1)
            service = SweepService(config)
            await service.start()
            host, port = service.address

            # respawn budget exhausted: a slot evicted by its breaker
            service.executor.supervisor.slots[0].state = "evicted"
            status, _head, body = await _fetch(host, port, "GET",
                                               "/readyz")
            assert status == 503
            payload = json.loads(body)
            assert payload["ready"] is False
            assert "fleet_respawn_exhausted" in payload["reasons"]

            # a sticky-degraded store is a second, independent reason
            service.executor.store.disk.degraded = True
            status, _head, body = await _fetch(host, port, "GET",
                                               "/readyz")
            assert status == 503
            assert "store_degraded" in json.loads(body)["reasons"]
            service.executor.supervisor.slots[0].state = "idle"
            await service.aclose()

        asyncio.run(go())

    def test_study_events_replay_and_unknown_id(self):
        async def go():
            config = ServiceConfig(port=0, reps=1, retries=0)
            service = SweepService(config)
            await service.start()
            host, port = service.address

            status, _head, _body = await _fetch(
                host, port, "GET", "/v1/study/s999999/events")
            assert status == 404

            status, _head, body = await _fetch(
                host, port, "POST", "/v1/study",
                {"algorithms": ["cc"], "inputs": ["internet"],
                 "device": "titanv", "tenant": "ev"})
            assert status == 200
            study_id = _dechunk(body)[0]["study_id"]

            status, _head, body = await _fetch(
                host, port, "GET", f"/v1/study/{study_id}/events")
            assert status == 200
            events = _dechunk(body)
            kinds = [e["event"] for e in events]
            assert kinds[0] == "cell_start"
            assert "cell_finish" in kinds
            assert kinds[-1] == "study_done"
            assert all(e["study"] == study_id for e in events)

            status, _head, _body = await _fetch(
                host, port, "POST", f"/v1/study/{study_id}/events")
            assert status == 405
            await service.aclose()

        asyncio.run(go())

    def test_live_event_subscription_sees_cells_finish(self):
        async def go():
            config = ServiceConfig(port=0, reps=1, retries=0)
            service = SweepService(config)
            await service.start()
            host, port = service.address

            async def subscribe_after_start():
                # the study id is deterministic: first study is s000001
                await asyncio.sleep(0.01)
                return await _fetch(host, port, "GET",
                                    "/v1/study/s000001/events")

            (status, _h, study_body), (ev_status, _eh, ev_body) = \
                await asyncio.gather(
                    _fetch(host, port, "POST", "/v1/study",
                           {"algorithms": ["cc"], "inputs": ["internet"],
                            "device": "titanv", "tenant": "live"}),
                    subscribe_after_start())
            assert status == 200 and ev_status == 200
            events = _dechunk(ev_body)
            assert events[-1]["event"] == "study_done"
            await service.aclose()

        asyncio.run(go())
