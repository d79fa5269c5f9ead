"""Serving measurement: ``python -m repro.serve`` driven over HTTP.

The server runs as a subprocess started from its public CLI (2 worker
processes, one tenant with a 4-thread budget) and is driven by 2
closed-loop client connections: each client sends its next request
only after the previous reply, so the offered load follows the
server's speed and no queue builds (shed and retries must stay 0).

Estimator: the harness sends the stream as equal windows spread over
the run (alternating with the per-mode rounds); throughput is the best
window's, latency percentiles the lowest window's — the serving
counterpart of best-of-N for kernel times.  Whole-phase values are
reported beside them as layer metrics.

Every reply must be HTTP 200 with ``ok`` and ``verified`` true (the
server checks each result's digest against the sequential reference);
anything else counts as a failed operation.
"""

from __future__ import annotations

import ctypes
import dataclasses
import gc
import http.client
import json
import math
import os
import select
import signal
import statistics
import subprocess
import sys
import threading
import time

#: Closed-loop client connections (= nproc on the reference host).
CLIENTS = 2
WORKERS = 2
READY_TIMEOUT_S = 90.0
#: How long a process the server left behind (its resource tracker, a
#: worker) may take to end by itself before it is killed.
STRAGGLER_GRACE_S = 5.0
PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> None:
    """Make this process the parent of every descendant whose own parent
    ends (instead of pid 1, which in a container may never reap them),
    so that ``reap`` can wait for them."""
    ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1,
                                            0, 0, 0)


def _children() -> dict[int, int]:
    """pid -> process group of every child of this process, ended but
    not yet waited for included."""
    me = os.getpid()
    found = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue  # ended since the listing
        if int(fields[1]) == me:
            found[int(entry)] = int(fields[2])
    return found


def reap(group: int | None = None, grace_s: float = 0.0) -> None:
    """Wait until this process has no child left (none of process group
    ``group`` if given), adopted orphans included; kill those that have
    not ended by themselves after ``grace_s``."""
    deadline = time.monotonic() + grace_s
    while True:
        pids = [pid for pid, pgrp in _children().items()
                if group in (None, pgrp)]
        if not pids:
            return
        for pid in pids:
            try:
                if time.monotonic() >= deadline:
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
                else:
                    os.waitpid(pid, os.WNOHANG)
            except (ProcessLookupError, ChildProcessError):
                pass  # somebody else has waited for it
        time.sleep(0.005)


class ServerProcess:
    """The server subprocess: spawn, wait for readiness, stop, reap —
    the server itself and, being their adoptive parent, everything it
    started (all in a session of their own)."""

    def __init__(self, env: dict, scratch):
        self.env = env
        self.port_file = scratch / f"port-{os.getpid()}"
        self.process = None
        self.port = None

    def start(self) -> None:
        begin = time.perf_counter()
        adopt_orphans()
        self.port_file.unlink(missing_ok=True)
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.serve", "--port", "0",
             "--port-file", str(self.port_file),
             "--workers", str(WORKERS), "--tenants", "bench:4",
             "--queue", "16", "--batch", "4"],
            env=self.env, stdout=subprocess.PIPE, text=True,
            start_new_session=True)
        deadline = begin + READY_TIMEOUT_S
        while True:
            remaining = deadline - time.perf_counter()
            ready, _, _ = select.select([self.process.stdout], [], [],
                                        max(0.0, remaining))
            line = self.process.stdout.readline() if ready else ""
            if "fleet ready" in line:
                break
            if not line:
                self.stop()
                raise RuntimeError("the server did not report "
                                   "'fleet ready'")
        self.port = int(self.port_file.read_text())

    def stop(self) -> None:
        """Graceful shutdown (the CLI unlinks its shm segments on
        SIGTERM), escalating to SIGKILL; always reaps the child and
        whatever the child leaves behind."""
        process, self.process = self.process, None
        if process is None:
            return
        if process.poll() is None:
            process.send_signal(signal.SIGTERM)
            try:
                process.wait(timeout=20)
            except subprocess.TimeoutExpired:
                process.kill()
        process.wait()
        reap(group=process.pid, grace_s=STRAGGLER_GRACE_S)
        process.stdout.close()
        self.port_file.unlink(missing_ok=True)

    def get(self, path: str) -> str:
        connection = http.client.HTTPConnection("127.0.0.1", self.port,
                                                timeout=30)
        try:
            connection.request("GET", path)
            return connection.getresponse().read().decode()
        finally:
            connection.close()

    def counters(self) -> dict:
        """``shed``/``retries`` from ``/state`` and the mean batch size
        from the ``/metrics`` histogram."""
        stats = json.loads(self.get("/state"))["stats"]
        total = count = 0.0
        for line in self.get("/metrics").splitlines():
            if line.startswith("omp_serve_batch_size_sum"):
                total = float(line.split()[-1])
            elif line.startswith("omp_serve_batch_size_count"):
                count = float(line.split()[-1])
        return {"shed": stats["shed"], "retries": stats["retries"],
                "batch_mean": total / count if count else 0.0}


@dataclasses.dataclass
class Reply:
    start: float
    end: float
    ok: bool
    exec_s: float
    busy_cpu_s: float

    @property
    def latency(self) -> float:
        return self.end - self.start


def post(port: int, doc: dict) -> tuple[int, dict]:
    connection = http.client.HTTPConnection("127.0.0.1", port,
                                            timeout=120)
    try:
        connection.request("POST", "/v1/run", json.dumps(doc),
                           {"Content-Type": "application/json"})
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


def drive(port: int, docs: list[dict], rec,
          parent=None) -> tuple[float, list[Reply]]:
    """Send ``docs`` through CLIENTS closed-loop clients; return the
    start time and the replies in completion order.  With the recorder
    armed every request is a span under ``parent`` (the clients run on
    their own threads, so the parent is handed over explicitly).
    """
    replies: list[Reply] = []
    lock = threading.Lock()
    cursor = iter(range(len(docs)))
    #: Set when the driving thread is interrupted, so the clients stop
    #: instead of walking the rest of the stream into a dead server.
    abandoned = threading.Event()

    def client():
        while not abandoned.is_set():
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            with rec.span("serve.request", parent=parent,
                          request=index) as span:
                start = time.perf_counter()
                try:
                    status, body = post(port, docs[index])
                except (OSError, ValueError,
                        http.client.HTTPException) as error:
                    status, body = 0, {"error": str(error)}
                end = time.perf_counter()
            ok = status == 200 and body.get("ok") is True \
                and body.get("verified") is True
            exec_s = body.get("wall_s") or 0.0
            if span is not None:
                middle = (start + end - exec_s) / 2
                rec.add("serve.exec", middle, middle + exec_s,
                        parent=span, request=index)
            if not ok:
                print(f"[e2e] request {index} failed: HTTP {status} "
                      f"{body.get('error')}", file=sys.stderr)
            with lock:
                replies.append(Reply(start, end, ok, exec_s,
                                     body.get("busy_cpu_s") or 0.0))

    gc.collect()
    gc.disable()
    try:
        begin = time.perf_counter()
        threads = [threading.Thread(target=client, name=f"client-{number}")
                   for number in range(CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        abandoned.set()
        gc.enable()
    return begin, sorted(replies, key=lambda reply: reply.end)


def percentile(values: list[float], share: float) -> float:
    """The smallest value with at least ``share`` of the sample at or
    below it (p95 of 200 samples leaves 10 beyond it)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def window_stats(replies: list[Reply], begin: float) -> dict:
    """Verified responses per second and the latency percentiles of
    one window of replies (a failed reply counts as sent, not served)."""
    latencies = [reply.latency for reply in replies]
    elapsed = replies[-1].end - begin
    return {"elapsed_s": elapsed,
            "rps": sum(reply.ok for reply in replies) / elapsed,
            "p50_ms": statistics.median(latencies) * 1e3,
            "p95_ms": percentile(latencies, 0.95) * 1e3}
