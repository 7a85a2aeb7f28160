"""Tests for repro.service: protocol, quota, breaker, scheduler, and
the HTTP server end to end.

The container has no pytest-asyncio, so async paths run under plain
``asyncio.run`` inside synchronous test functions.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import json

import pytest

from repro.errors import ProtocolError, ServiceError
from repro.gpu.faults import FaultPlan
from repro.service.protocol import (
    CellKey,
    parse_study_request,
    read_request,
    response_bytes,
)
from repro.service.quota import AdmissionController
from repro.service.scheduler import CellScheduler, StudyExecutor
from repro.service.server import ServiceConfig, SweepService
from repro.utils.breaker import BreakerState, CircuitBreaker

CELL = CellKey("cc", "internet", "titanv")


# ----------------------------------------------------------------------
# Protocol: request framing
# ----------------------------------------------------------------------
def _parse(raw: bytes):
    async def go():
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        return await read_request(reader)

    return asyncio.run(go())


class TestHttpFraming:
    def test_parses_request_with_body(self):
        req = _parse(b"POST /v1/study HTTP/1.1\r\nHost: x\r\n"
                     b"Content-Length: 4\r\n\r\nbody")
        assert (req.method, req.path) == ("POST", "/v1/study")
        assert req.headers["host"] == "x"
        assert req.body == b"body"

    def test_strips_query_string(self):
        req = _parse(b"GET /healthz?verbose=1 HTTP/1.1\r\n\r\n")
        assert req.path == "/healthz"

    def test_clean_eof_returns_none(self):
        assert _parse(b"") is None

    def test_mid_request_eof_raises(self):
        with pytest.raises(ProtocolError, match="mid-request"):
            _parse(b"GET /healthz HTTP/1.1\r\nHost")

    def test_mid_body_eof_raises(self):
        with pytest.raises(ProtocolError, match="mid-body"):
            _parse(b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nab")

    def test_malformed_request_line(self):
        with pytest.raises(ProtocolError, match="request line"):
            _parse(b"NONSENSE\r\n\r\n")

    def test_chunked_request_rejected(self):
        with pytest.raises(ProtocolError, match="chunked"):
            _parse(b"POST / HTTP/1.1\r\n"
                   b"Transfer-Encoding: chunked\r\n\r\n")

    def test_oversized_body_rejected(self):
        with pytest.raises(ProtocolError, match="Content-Length"):
            _parse(b"POST / HTTP/1.1\r\n"
                   b"Content-Length: 99999999\r\n\r\n")

    def test_bad_content_length_rejected(self):
        with pytest.raises(ProtocolError, match="Content-Length"):
            _parse(b"POST / HTTP/1.1\r\nContent-Length: ten\r\n\r\n")

    def test_response_bytes_shape(self):
        data = response_bytes(429, b"{}",
                              extra_headers=(("Retry-After", "3"),))
        head = data.split(b"\r\n\r\n")[0]
        assert head.startswith(b"HTTP/1.1 429 Too Many Requests")
        assert b"Retry-After: 3" in head
        assert b"Content-Length: 2" in head


# ----------------------------------------------------------------------
# Protocol: study-request schema
# ----------------------------------------------------------------------
def _body(**overrides) -> bytes:
    payload = {"algorithms": ["cc"], "inputs": ["internet"],
               "device": "titanv", "tenant": "t"}
    payload.update(overrides)
    return json.dumps(payload).encode()


class TestStudyRequestSchema:
    def test_valid_request_expands_cells(self):
        req = parse_study_request(_body(algorithms=["cc", "mis"],
                                        inputs=["internet", "rmat16.sym"],
                                        deadline_s=30))
        assert len(req.cells) == 4
        assert req.tenant == "t"
        assert req.deadline_s == 30.0

    def test_not_json(self):
        with pytest.raises(ProtocolError, match="not JSON"):
            parse_study_request(b"hello")

    def test_unknown_algorithm(self):
        with pytest.raises(ProtocolError, match="unknown algorithm"):
            parse_study_request(_body(algorithms=["pagerank"]))

    def test_race_free_algorithm_rejected(self):
        with pytest.raises(ProtocolError, match="no data races"):
            parse_study_request(_body(algorithms=["apsp"]))

    def test_unknown_input(self):
        with pytest.raises(ProtocolError, match="unknown suite input"):
            parse_study_request(_body(inputs=["no-such-graph"]))

    def test_unknown_device(self):
        with pytest.raises(ProtocolError):
            parse_study_request(_body(device="tpu"))

    def test_fully_mismatched_directedness_rejected(self):
        # scc is directed; internet is undirected: zero runnable cells
        with pytest.raises(ProtocolError, match="no runnable cells"):
            parse_study_request(_body(algorithms=["scc"],
                                      inputs=["internet"]))

    def test_mixed_families_skip_mismatches(self):
        req = parse_study_request(_body(
            algorithms=["cc", "scc"], inputs=["internet", "wikipedia"]))
        pairs = {(c.algorithm, c.input_name) for c in req.cells}
        assert pairs == {("cc", "internet"), ("scc", "wikipedia")}

    def test_bad_deadline(self):
        with pytest.raises(ProtocolError, match="deadline_s"):
            parse_study_request(_body(deadline_s=-1))

    def test_cell_bound(self):
        with pytest.raises(ProtocolError, match="per-request bound"):
            parse_study_request(
                _body(algorithms=["cc", "mis"],
                      inputs=["internet", "rmat16.sym"]), max_cells=3)


# ----------------------------------------------------------------------
# Admission control
# ----------------------------------------------------------------------
class TestAdmission:
    def test_admit_and_release(self):
        gate = AdmissionController(max_pending_cells=4,
                                   per_tenant_cells=4)
        assert gate.try_admit("a", 3).ok
        assert gate.pending_cells == 3
        gate.release("a", 3)
        assert gate.pending_cells == 0
        assert gate.tenant_cells("a") == 0

    def test_global_bound_rejects(self):
        gate = AdmissionController(max_pending_cells=4,
                                   per_tenant_cells=4)
        assert gate.try_admit("a", 3).ok
        refusal = gate.try_admit("b", 2)
        assert not refusal.ok
        assert "pending cells" in refusal.reason
        assert int(refusal.retry_after_header) >= 1
        # a rejection reserves nothing
        assert gate.pending_cells == 3

    def test_per_tenant_bound(self):
        gate = AdmissionController(max_pending_cells=100,
                                   per_tenant_cells=2)
        assert gate.try_admit("a", 2).ok
        assert not gate.try_admit("a", 1).ok
        assert gate.try_admit("b", 2).ok  # other tenants unaffected

    def test_oversized_request_is_structural(self):
        gate = AdmissionController(max_pending_cells=100,
                                   per_tenant_cells=2)
        refusal = gate.try_admit("a", 5)
        assert not refusal.ok
        assert "per-tenant quota" in refusal.reason

    def test_repeat_rejections_back_off_further(self):
        from repro.utils.backoff import BackoffPolicy

        gate = AdmissionController(
            max_pending_cells=1, per_tenant_cells=1,
            backoff=BackoffPolicy(base_s=1.0, jitter=False))
        assert gate.try_admit("hog", 1).ok
        delays = [gate.try_admit("beggar", 1).retry_after_s
                  for _ in range(3)]
        assert delays == [1.0, 2.0, 4.0]
        # an admission resets the streak
        gate.release("hog", 1)
        assert gate.try_admit("beggar", 1).ok


# ----------------------------------------------------------------------
# Circuit breaker
# ----------------------------------------------------------------------
class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestBreaker:
    def test_opens_after_threshold(self):
        clock = FakeClock()
        breaker = CircuitBreaker(threshold=3, cooldown_s=10,
                                 clock=clock)
        for _ in range(2):
            breaker.record_failure(CELL)
            assert breaker.state(CELL) is BreakerState.CLOSED
        breaker.record_failure(CELL)
        assert breaker.state(CELL) is BreakerState.OPEN
        assert not breaker.allow(CELL)
        assert breaker.open_keys() == [CELL]

    def test_half_open_single_trial(self):
        clock = FakeClock()
        breaker = CircuitBreaker(threshold=1, cooldown_s=10,
                                 clock=clock)
        breaker.record_failure(CELL)
        clock.now = 11.0
        assert breaker.allow(CELL)        # the one trial
        assert not breaker.allow(CELL)    # everyone else short-circuits
        breaker.record_success(CELL)
        assert breaker.state(CELL) is BreakerState.CLOSED
        assert breaker.allow(CELL)

    def test_failed_trial_reopens(self):
        clock = FakeClock()
        breaker = CircuitBreaker(threshold=1, cooldown_s=10,
                                 clock=clock)
        breaker.record_failure(CELL)
        clock.now = 11.0
        assert breaker.allow(CELL)
        breaker.record_failure(CELL)
        assert breaker.state(CELL) is BreakerState.OPEN
        assert not breaker.allow(CELL)    # fresh cooldown from now
        clock.now = 22.0
        assert breaker.allow(CELL)

    def test_aborted_trial_reopens_without_counting(self):
        clock = FakeClock()
        breaker = CircuitBreaker(threshold=2, cooldown_s=10,
                                 clock=clock)
        breaker.record_failure(CELL)
        breaker.record_failure(CELL)
        clock.now = 11.0
        assert breaker.allow(CELL)
        failures_before = breaker._entry(CELL).failures
        breaker.abort_trial(CELL)
        assert breaker.state(CELL) is BreakerState.OPEN
        assert breaker._entry(CELL).failures == failures_before

    def test_success_resets_failure_count(self):
        breaker = CircuitBreaker(threshold=3)
        breaker.record_failure(CELL)
        breaker.record_failure(CELL)
        breaker.record_success(CELL)
        breaker.record_failure(CELL)
        assert breaker.state(CELL) is BreakerState.CLOSED

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(cooldown_s=-1)


# ----------------------------------------------------------------------
# Scheduler: coalescing, caching, breaker integration, deadlines
# ----------------------------------------------------------------------
def _executor(**kw) -> StudyExecutor:
    kw.setdefault("reps", 1)
    kw.setdefault("scale", 0.05)
    return StudyExecutor(**kw)


class TestSchedulerCoalescing:
    def test_concurrent_cold_cell_executes_once(self, tmp_path):
        # the satellite acceptance: two clients, one cold cell, exactly
        # one recorded execution — observed via both the study's
        # execution counter and the trace cache's recording counter
        from repro.perf.trace import TraceCache

        cache = TraceCache(disk_dir=tmp_path / "traces")
        executor = _executor(trace_cache=cache)
        scheduler = CellScheduler(executor)

        async def go():
            a, b = await asyncio.gather(
                scheduler.request_cell(CELL, deadline_s=120),
                scheduler.request_cell(CELL, deadline_s=120))
            return a, b

        try:
            a, b = asyncio.run(go())
        finally:
            executor.shutdown()
        assert a["status"] == b["status"] == "ok"
        assert a["speedup"] == b["speedup"]
        # one cell = its two variant executions, exactly once
        assert executor.study.cells_executed == 2
        assert scheduler.coalesced == 1
        assert sum(1 for r in (a, b) if r.get("coalesced")) == 1
        # the trace cache recorded one cell's worth of traces, not two
        recorded_once = cache.recorded
        assert recorded_once > 0

    def test_completed_cell_serves_from_cache(self):
        executor = _executor()
        scheduler = CellScheduler(executor)

        async def go():
            first = await scheduler.request_cell(CELL)
            second = await scheduler.request_cell(CELL)
            return first, second

        try:
            first, second = asyncio.run(go())
        finally:
            executor.shutdown()
        assert first["status"] == "ok" and "cached" not in first
        assert second["cached"] is True
        assert second["speedup"] == first["speedup"]
        assert executor.study.cells_executed == 2


class TestSchedulerBreaker:
    def test_three_failures_open_breaker_and_short_circuit(self):
        # the satellite acceptance: a cell failing 3x opens its breaker
        # and the next request returns a degraded record without
        # touching the executor
        executor = _executor(faults=FaultPlan.parse("abort=1.0", seed=0))
        breaker = CircuitBreaker(threshold=3, cooldown_s=3600)
        scheduler = CellScheduler(executor, breaker)

        async def go():
            records = []
            for _ in range(3):
                records.append(await scheduler.request_cell(CELL))
            short = await scheduler.request_cell(CELL)
            return records, short

        try:
            records, short = asyncio.run(go())
        finally:
            executor.shutdown()
        assert [r["status"] for r in records] == ["fail"] * 3
        assert all(r["reason"] == "fault" for r in records)
        # both variants run per attempt (2 executions x 3 attempts)
        assert executor.study.cells_executed == 6
        assert breaker.state(CELL) is BreakerState.OPEN
        assert short["breaker"] == "open"
        assert short["degraded"] is True
        assert short["status"] == "fail"
        assert executor.study.cells_executed == 6  # pool untouched
        assert scheduler.short_circuits == 1


class _StuckExecutor:
    """Executor stub whose work never finishes (deadline tests)."""

    def __init__(self):
        self.queued = 0
        self.degraded = False
        self.futures = []

    def submit(self, key, budget_s):
        future = concurrent.futures.Future()
        self.futures.append((key, budget_s, future))
        return future


class TestSchedulerDeadlines:
    def test_subscriber_deadline_expires(self):
        executor = _StuckExecutor()
        scheduler = CellScheduler(executor)

        async def go():
            return await scheduler.request_cell(CELL, deadline_s=0.05)

        record = asyncio.run(go())
        assert record["status"] == "fail"
        assert record["reason"] == "deadline"
        # the lone subscriber gave up, so the queued execution was
        # cancelled rather than computed
        assert executor.futures[0][2].cancelled()

    def test_budget_is_most_patient_subscriber(self):
        executor = _StuckExecutor()
        scheduler = CellScheduler(executor)

        async def go():
            task = asyncio.create_task(
                scheduler.request_cell(CELL, deadline_s=50))
            await asyncio.sleep(0.01)
            task.cancel()
            with pytest.raises(asyncio.CancelledError):
                await task

        asyncio.run(go())
        _key, budget_s, _future = executor.futures[0]
        assert budget_s is not None and 0 < budget_s <= 50


# ----------------------------------------------------------------------
# The HTTP server end to end
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


class TestServerEndToEnd:
    def test_full_request_cycle(self, tmp_path):
        ckpt = tmp_path / "serve.ckpt"

        async def go():
            config = ServiceConfig(port=0, reps=1, scale=0.05,
                                   retries=0, checkpoint=str(ckpt))
            service = SweepService(config)
            await service.start()
            host, port = service.address

            status, _head, body = await _fetch(host, port, "GET",
                                               "/healthz")
            assert status == 200
            assert json.loads(body)["status"] == "ok"

            status, _head, body = await _fetch(host, port, "GET",
                                               "/readyz")
            assert status == 200
            assert json.loads(body)["ready"] is True

            status, _head, body = await _fetch(
                host, port, "POST", "/v1/study",
                {"algorithms": ["cc", "mis"], "inputs": ["internet"],
                 "device": "titanv", "tenant": "e2e"})
            assert status == 200
            records = _dechunk(body)
            cells = [r for r in records if "cell" in r]
            summary = records[-1]["summary"]
            assert len(cells) == 2
            assert all(r["status"] == "ok" for r in cells)
            assert summary["ok"] == 2 and summary["failed"] == 0

            status, _head, body = await _fetch(host, port, "GET",
                                               "/v1/results")
            assert status == 200
            # 2 cells x 2 variants of raw runtimes accumulated
            assert len(json.loads(body)["results"]) == 4

            status, _head, _body = await _fetch(host, port, "GET",
                                                "/nope")
            assert status == 404
            status, _head, _body = await _fetch(host, port, "POST",
                                                "/healthz")
            assert status == 405
            status, _head, body = await _fetch(
                host, port, "POST", "/v1/study", {"algorithms": "cc"})
            assert status == 400

            await service.aclose()

        asyncio.run(go())
        assert ckpt.exists()

    def test_admission_rejection_is_429_with_retry_after(self):
        async def go():
            config = ServiceConfig(port=0, reps=1, scale=0.05,
                                   per_tenant_cells=1,
                                   max_pending_cells=1)
            service = SweepService(config)
            await service.start()
            host, port = service.address
            status, head, body = await _fetch(
                host, port, "POST", "/v1/study",
                {"algorithms": ["cc", "mis"], "inputs": ["internet"],
                 "device": "titanv", "tenant": "greedy"})
            assert status == 429
            assert b"retry-after:" in head.lower()
            assert "per-tenant quota" in json.loads(body)["error"]
            await service.aclose()

        asyncio.run(go())

    def test_draining_server_rejects_new_studies(self):
        async def go():
            config = ServiceConfig(port=0, reps=1, scale=0.05)
            service = SweepService(config)
            await service.start()
            host, port = service.address
            # warm one cell so there is work in the memo, then drain
            await _fetch(host, port, "POST", "/v1/study",
                         {"algorithms": ["cc"], "inputs": ["internet"],
                          "device": "titanv", "tenant": "a"})
            service._draining = True
            status, head, _body = await _fetch(
                host, port, "POST", "/v1/study",
                {"algorithms": ["cc"], "inputs": ["internet"],
                 "device": "titanv", "tenant": "a"})
            assert status == 503
            assert b"retry-after:" in head.lower()
            status, _head, body = await _fetch(host, port, "GET",
                                               "/readyz")
            assert status == 503
            assert json.loads(body)["ready"] is False
            service._draining = False
            await service.aclose()

        asyncio.run(go())

    def test_executor_rejects_after_shutdown(self):
        executor = _executor()
        executor.shutdown()
        with pytest.raises(ServiceError, match="shut down"):
            executor.submit(CELL, None)
