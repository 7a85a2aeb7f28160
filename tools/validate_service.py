"""Validate the sweep service end to end (the CI service gate).

Drives a real ``python -m repro serve`` subprocess the way an unlucky
deployment would:

1. starts a two-worker server with a host fault plan installed —
   every first-generation worker is SIGKILLed and 40% of trace-cache
   writes are torn — plus a checkpoint and a disk trace cache;
2. submits the same study from two concurrent clients and checks that
   every cell streams back ``ok`` and that the pair coalesced onto a
   single grid execution;
3. fetches ``/v1/results`` and asserts the accumulated raw runtimes
   are byte-identical (canonically ordered) to an uninjected, serial,
   cache-less offline sweep of the same cells run in this process;
4. sends SIGTERM while a third client is mid-stream and asserts the
   server drains within the deadline, exits 0, and leaves a checkpoint
   a fresh study can load;
5. (fleet smoke) repeats the drive against ``--workers 2`` with a
   shared ``--store`` under the same kill plan: every first-generation
   fleet worker is killed, cells must fail over to respawned workers,
   results must stay byte-identical to the offline sweep, the store
   must hold every published cell, and SIGTERM must still drain
   cleanly.

Usage::

    PYTHONPATH=src python tools/validate_service.py [--seed S]

Exit status 0 when every invariant holds, 1 with a diagnostic.
"""

from __future__ import annotations

import argparse
import json
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

ALGOS = ["cc", "mis"]
INPUTS = ["internet"]
DEVICE = "titanv"
REPS = 1


def _request(port: int, method: str, path: str,
             body: dict | None = None, timeout: float = 120.0) -> bytes:
    payload = b"" if body is None else json.dumps(body).encode()
    sock = socket.create_connection(("127.0.0.1", port), timeout=timeout)
    try:
        sock.sendall((f"{method} {path} HTTP/1.1\r\nHost: validate\r\n"
                      f"Content-Length: {len(payload)}\r\n\r\n"
                      ).encode() + payload)
        chunks = []
        while True:
            data = sock.recv(65536)
            if not data:
                break
            chunks.append(data)
    finally:
        sock.close()
    return b"".join(chunks)


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


def _study_records(port: int, tenant: str) -> list[dict]:
    raw = _request(port, "POST", "/v1/study",
                   {"algorithms": ALGOS, "inputs": INPUTS,
                    "device": DEVICE, "tenant": tenant,
                    "deadline_s": 300})
    head, _, rest = raw.partition(b"\r\n\r\n")
    status = head.split(b" ", 2)[1]
    if status != b"200":
        raise RuntimeError(f"{tenant}: study returned {status!r}")
    return _dechunk(rest)


def _canonical(payload: dict) -> bytes:
    results = sorted(
        payload.get("results", []),
        key=lambda r: (r.get("algorithm", ""), r.get("input", ""),
                       r.get("device", ""), r.get("variant", "")))
    return json.dumps({"reps": payload.get("reps"),
                       "scale": payload.get("scale"),
                       "results": results}, sort_keys=True).encode()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0,
                        help="host fault plan seed")
    parser.add_argument("--drain-deadline", type=float, default=30.0)
    args = parser.parse_args(argv)

    workdir = Path(tempfile.mkdtemp(prefix="repro-validate-service-"))
    ckpt = workdir / "serve.ckpt"
    n_cells = len(ALGOS) * len(INPUTS)

    # the truth: an uninjected serial offline sweep in this process
    from repro.core.resilience import ResilientStudy

    offline = ResilientStudy(reps=REPS)
    result = offline.sweep(DEVICE, ALGOS, INPUTS, jobs=1)
    if result.failures:
        print("FAIL: offline baseline sweep failed", file=sys.stderr)
        return 1
    baseline = _canonical({"reps": offline.reps, "scale": offline.scale,
                           "results": offline._result_records()})

    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--reps", str(REPS), "--retries", "0", "--workers", "2",
         "--trace-cache", str(workdir / "traces"),
         "--checkpoint", str(ckpt),
         "--inject-host", "kill=1.0,torn=0.4",
         "--host-targets", "trace-*.json",
         "--host-seed", str(args.seed),
         "--disrupt-generations", "1",
         "--drain-deadline", str(args.drain_deadline)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        banner = server.stdout.readline().strip()
        if "listening on" not in banner:
            raise RuntimeError(f"unexpected banner {banner!r}")
        port = int(banner.rsplit(":", 1)[1])
        print(f"ok   server up on port {port} "
              "(worker kills + torn writes injected)")

        # two concurrent clients, one cold study
        records: dict[str, list[dict] | Exception] = {}

        def client(tenant: str) -> None:
            try:
                records[tenant] = _study_records(port, tenant)
            except Exception as exc:  # surfaced below
                records[tenant] = exc

        threads = [threading.Thread(target=client, args=(t,))
                   for t in ("alice", "bob")]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300)
        for tenant in ("alice", "bob"):
            got = records.get(tenant)
            if isinstance(got, Exception) or got is None:
                print(f"FAIL: client {tenant}: {got!r}", file=sys.stderr)
                return 1
            cells = [r for r in got if "cell" in r]
            bad = [r for r in cells if r.get("status") != "ok"]
            if len(cells) != n_cells or bad:
                print(f"FAIL: {tenant} got {len(cells)} cells, "
                      f"{len(bad)} not ok: {bad}", file=sys.stderr)
                return 1
        print(f"ok   two concurrent clients, all {n_cells} cells ok")

        # byte-identity against the offline sweep
        raw = _request(port, "GET", "/v1/results")
        server_payload = json.loads(raw.partition(b"\r\n\r\n")[2])
        if len(server_payload.get("results", [])) != 2 * n_cells:
            print("FAIL: server computed "
                  f"{len(server_payload.get('results', []))} variant "
                  f"records for two clients, expected {2 * n_cells} "
                  "(coalescing broke)", file=sys.stderr)
            return 1
        if _canonical(server_payload) != baseline:
            print("FAIL: server results diverge from the uninjected "
                  "offline sweep", file=sys.stderr)
            return 1
        print("ok   results byte-identical to the offline sweep")

        # SIGTERM mid-stream: drain within the deadline
        third: dict[str, object] = {}

        def carol() -> None:
            try:
                third["done"] = _study_records(port, "carol")
            except Exception as exc:
                third["cut_off"] = exc

        streamer = threading.Thread(target=carol)
        streamer.start()
        time.sleep(0.05)
        sent = time.monotonic()
        server.send_signal(signal.SIGTERM)
        try:
            out, err = server.communicate(
                timeout=args.drain_deadline + 15.0)
        except subprocess.TimeoutExpired:
            print("FAIL: server never exited after SIGTERM",
                  file=sys.stderr)
            return 1
        drain_s = time.monotonic() - sent
        streamer.join(timeout=10)
        if server.returncode != 0:
            print(f"FAIL: drain exited {server.returncode}; "
                  f"stderr: {err[-500:]}", file=sys.stderr)
            return 1
        if drain_s > args.drain_deadline:
            print(f"FAIL: drain took {drain_s:.1f}s, over the "
                  f"{args.drain_deadline:.0f}s deadline", file=sys.stderr)
            return 1
        if "drained cleanly" not in out:
            print(f"FAIL: missing drain banner in {out!r}",
                  file=sys.stderr)
            return 1
        print(f"ok   SIGTERM drained cleanly in {drain_s:.2f}s")

        # the drain's checkpoint must load into a fresh study
        loader = ResilientStudy(reps=REPS, checkpoint=ckpt)
        n_res, n_fail = loader.load_checkpoint()
        if n_res < 2 * n_cells or n_fail:
            print(f"FAIL: checkpoint loads {n_res} results / {n_fail} "
                  "failures", file=sys.stderr)
            return 1
        print(f"ok   drain checkpoint loads {n_res} results")
    finally:
        if server.poll() is None:
            server.kill()
            server.communicate()

    rc = _fleet_smoke(workdir, baseline, n_cells, args)
    if rc:
        return rc

    print("service validation: coalescing, byte-identity, fleet "
          "failover, and SIGTERM drain hold under injected host faults")
    return 0


def _fleet_smoke(workdir: Path, baseline: bytes, n_cells: int,
                 args) -> int:
    """Phase 5: the supervised worker fleet under the same kill plan."""
    fleet_dir = workdir / "fleet"
    store_dir = fleet_dir / "store"
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--reps", str(REPS), "--retries", "0",
         "--workers", "2", "--store", str(store_dir),
         "--trace-cache", str(fleet_dir / "traces"),
         "--checkpoint", str(fleet_dir / "fleet.ckpt"),
         "--inject-host", "kill=1.0,torn=0.4",
         "--host-targets", "trace-*.json",
         "--host-seed", str(args.seed),
         "--disrupt-generations", "1",
         "--drain-deadline", str(args.drain_deadline)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        banner = server.stdout.readline().strip()
        if "listening on" not in banner:
            raise RuntimeError(f"unexpected fleet banner {banner!r}")
        port = int(banner.rsplit(":", 1)[1])
        print(f"ok   fleet server up on port {port} "
              "(2 workers, gen-0 kills injected)")

        records: dict[str, list[dict] | Exception] = {}

        def client(tenant: str) -> None:
            try:
                records[tenant] = _study_records(port, tenant)
            except Exception as exc:  # surfaced below
                records[tenant] = exc

        threads = [threading.Thread(target=client, args=(t,))
                   for t in ("alice", "bob")]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300)
        for tenant in ("alice", "bob"):
            got = records.get(tenant)
            if isinstance(got, Exception) or got is None:
                print(f"FAIL: fleet client {tenant}: {got!r}",
                      file=sys.stderr)
                return 1
            cells = [r for r in got if "cell" in r]
            bad = [r for r in cells if r.get("status") != "ok"]
            if len(cells) != n_cells or bad:
                print(f"FAIL: fleet {tenant} got {len(cells)} cells, "
                      f"{len(bad)} not ok: {bad}", file=sys.stderr)
                return 1
        print(f"ok   fleet served all {n_cells} cells to both clients")

        raw = _request(port, "GET", "/readyz")
        ready = json.loads(raw.partition(b"\r\n\r\n")[2])
        fleet = ready.get("fleet") or {}
        if len(fleet.get("workers", [])) != 2:
            print(f"FAIL: /readyz fleet block: {fleet!r}",
                  file=sys.stderr)
            return 1
        if fleet.get("respawns", 0) < 1 or fleet.get(
                "redispatches", 0) < 1:
            print("FAIL: the kill plan never cost a fleet worker "
                  f"(respawns={fleet.get('respawns')}, "
                  f"redispatches={fleet.get('redispatches')})",
                  file=sys.stderr)
            return 1
        print(f"ok   failover exercised: respawns={fleet['respawns']} "
              f"redispatches={fleet['redispatches']}")

        raw = _request(port, "GET", "/v1/results")
        server_payload = json.loads(raw.partition(b"\r\n\r\n")[2])
        if _canonical(server_payload) != baseline:
            print("FAIL: fleet results diverge from the uninjected "
                  "offline sweep", file=sys.stderr)
            return 1
        print("ok   fleet results byte-identical to the offline sweep")

        published = list(store_dir.glob("cell-*.json"))
        if len(published) != n_cells:
            print(f"FAIL: store published {len(published)} records, "
                  f"expected {n_cells}", file=sys.stderr)
            return 1
        print(f"ok   store holds {len(published)} published cells")

        sent = time.monotonic()
        server.send_signal(signal.SIGTERM)
        try:
            out, err = server.communicate(
                timeout=args.drain_deadline + 15.0)
        except subprocess.TimeoutExpired:
            print("FAIL: fleet server never exited after SIGTERM",
                  file=sys.stderr)
            return 1
        drain_s = time.monotonic() - sent
        if server.returncode != 0:
            print(f"FAIL: fleet drain exited {server.returncode}; "
                  f"stderr: {err[-500:]}", file=sys.stderr)
            return 1
        if "drained cleanly" not in out:
            print(f"FAIL: missing fleet drain banner in {out!r}",
                  file=sys.stderr)
            return 1
        print(f"ok   fleet SIGTERM drained cleanly in {drain_s:.2f}s")
    finally:
        if server.poll() is None:
            server.kill()
            server.communicate()
    return 0


if __name__ == "__main__":
    sys.exit(main())
