"""In-process end-to-end tests for the serving layer.

One module-scoped fleet (2 workers, debug apps enabled) backs most
tests; worker spawn+warmup is seconds, so tests share it and restore
any knob they mutate.  Chaos and hang behavior use the ``_spin`` debug
kernel: ``seconds >= 0`` busy-holds the team (kill-mid-request),
``seconds < 0`` deadlocks deterministically so the in-worker watchdog
emits a structured doctor report.
"""

from __future__ import annotations

import json
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.serve import ServeServer
from repro.serve.shm import leaked_segments


@pytest.fixture(scope="module")
def server():
    srv = ServeServer(workers=2, queue_capacity=8, max_batch=4,
                      tenants={"default": 4}, job_timeout=30.0,
                      watchdog_interval=0.4, debug_apps=True)
    srv.start()
    yield srv
    srv.stop()
    assert leaked_segments() == []


def _post(url, path, doc, timeout=60.0):
    request = urllib.request.Request(
        url + path, data=json.dumps(doc).encode(),
        headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(request, timeout=timeout) as resp:
            return resp.status, dict(resp.headers), \
                json.loads(resp.read().decode())
    except urllib.error.HTTPError as error:
        return error.code, dict(error.headers), \
            json.loads(error.read().decode())


def _get(url, path, timeout=10.0):
    with urllib.request.urlopen(url + path, timeout=timeout) as resp:
        return resp.status, resp.read().decode()


def test_run_pi_verified(server):
    status, _headers, body = _post(server.url, "/v1/run",
                                   {"app": "pi", "threads": 2,
                                    "overrides": {"n": 200000}})
    assert status == 200
    assert body["ok"] and body["verified"]
    assert body["digest"]["n"] == 1
    assert body["worker"] in (0, 1)


def test_return_values_ride_the_slab(server):
    status, _headers, body = _post(server.url, "/v1/run",
                                   {"app": "pi", "threads": 1,
                                    "overrides": {"n": 50000},
                                    "return_values": True})
    assert status == 200 and body["ok"]
    assert body["values"] == pytest.approx([3.14159], abs=1e-2)


def test_concurrent_same_group_requests_batch(server):
    doc = {"app": "qsort", "threads": 1, "overrides": {"n": 2000}}
    results = []

    def fire():
        results.append(server.submit(dict(doc)))

    threads = [threading.Thread(target=fire) for _ in range(6)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert all(r["ok"] and r["verified"] for r in results)


def test_unknown_app_is_400(server):
    status, _headers, body = _post(server.url, "/v1/run",
                                   {"app": "nope"})
    assert status == 400
    assert "unknown app" in body["error"]


def _raw_post(server, content_length: bytes, body: bytes = b""):
    """POST /v1/run with a hand-written ``Content-Length`` over a raw
    socket; returns ``(status, json body)``.  The 1 s socket timeout
    fails the test instead of hanging it when the server waits for a
    body that never comes."""
    with socket.create_connection(("127.0.0.1", server.port),
                                  timeout=1.0) as sock:
        sock.sendall(b"POST /v1/run HTTP/1.1\r\nHost: localhost\r\n"
                     b"Content-Length: " + content_length
                     + b"\r\n\r\n" + body)
        reply = b""
        while chunk := sock.recv(65536):
            reply += chunk
    head, _sep, payload = reply.partition(b"\r\n\r\n")
    return int(head.split()[1]), json.loads(payload)


@pytest.mark.parametrize("content_length, body", [
    (b"-1", b""), (b"abc", b'{"app": "pi"}')])
def test_malformed_content_length_is_400(server, content_length, body):
    status, reply = _raw_post(server, content_length, body)
    assert status == 400
    assert "Content-Length" in reply["error"]
    assert _get(server.url, "/healthz")[0] == 200


@pytest.mark.parametrize("content_length", [
    b"1000000000", str((1 << 20) + 1).encode()])
def test_oversized_body_is_413_unread(server, content_length):
    status, reply = _raw_post(server, content_length, b'{"app": "pi"}')
    assert status == 413
    assert "exceeds" in reply["error"]
    status, _headers, body = _post(server.url, "/v1/run",
                                   {"app": "pi", "threads": 1})
    assert status == 200 and body["verified"]


def test_duplicate_tenant_is_409(server):
    status, _headers, body = _post(server.url, "/v1/tenants",
                                   {"name": "dup-t", "max_threads": 2})
    assert status == 201 and body["name"] == "dup-t"
    status, _headers, body = _post(server.url, "/v1/tenants",
                                   {"name": "dup-t", "max_threads": 2})
    assert status == 409
    assert "already registered" in body["error"]


def test_shed_is_503_with_retry_after(server):
    # Occupy both workers, then close admission: the next request must
    # shed with the Retry-After hint, not queue or hang.  The holders'
    # overrides differ: two equal requests queued together coalesce
    # into one job and leave a worker idle.
    out = []

    def occupy(seconds):
        out.append(server.submit({"app": "_spin", "threads": 1,
                                  "overrides": {"seconds": seconds}}))

    holders = [threading.Thread(target=occupy, args=(seconds,))
               for seconds in (2.0, 2.01)]
    for thread in holders:
        thread.start()
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline and server.fleet.idle_workers():
        time.sleep(0.05)
    capacity = server.queue.capacity
    server.queue.capacity = 0
    try:
        status, headers, body = _post(server.url, "/v1/run",
                                      {"app": "pi"})
    finally:
        server.queue.capacity = capacity
        for thread in holders:
            thread.join()
    assert status == 503
    assert float(headers["Retry-After"]) > 0
    assert body["retry_after_s"] > 0
    assert all(r["ok"] for r in out)


def test_worker_crash_retries_and_completes(server):
    before = server.fleet.restarts_total
    out = {}

    def fire():
        out["resp"] = server.submit({"app": "_spin", "threads": 1,
                                     "overrides": {"seconds": 3.0}})

    thread = threading.Thread(target=fire)
    thread.start()
    deadline = time.monotonic() + 10
    victim = None
    while time.monotonic() < deadline and victim is None:
        busy = [w for w in server.fleet.snapshot()
                if w["state"] == "busy"]
        if busy:
            victim = busy[0]["id"]
        else:
            time.sleep(0.05)
    assert victim is not None
    server.fleet.kill_worker(victim)
    thread.join(timeout=60)
    response = out["resp"]
    assert response["ok"], response
    assert response["attempts"] == 2
    assert server.fleet.restarts_total > before
    # The respawned worker serves again.
    assert server.submit({"app": "pi"})["ok"]


def test_hung_kernel_produces_doctor_report(server):
    retries, timeout = server.max_retries, server.job_timeout
    server.max_retries = 0
    server.job_timeout = 4.0
    try:
        response = server.submit({"app": "_spin", "threads": 2,
                                  "overrides": {"seconds": -1.0}})
    finally:
        server.max_retries = retries
        server.job_timeout = timeout
    assert not response["ok"]
    assert "worker" in response["error"]
    deadline = time.monotonic() + 10
    report = None
    while time.monotonic() < deadline and report is None:
        reports = [w["last_report"] for w in server.fleet.snapshot()
                   if w["last_report"]]
        report = reports[0] if reports else None
        time.sleep(0.1)
    assert report is not None
    assert report["verdict"] == "deadlock"
    assert report["schema"] == "omp4py-doctor-report/1"


def test_state_and_metrics_endpoints(server):
    status, text = _get(server.url, "/state")
    state = json.loads(text)
    assert status == 200
    assert state["schema"] == "omp4py-serve-state/1"
    assert "pi" in state["apps"] and "jacobi_mpi" in state["apps"]
    assert state["queue"]["capacity"] == 8
    assert any(w["pid"] for w in state["workers"])
    status, text = _get(server.url, "/metrics")
    assert status == 200
    assert "omp_serve_requests_total" in text
    assert "omp_serve_request_latency_seconds" in text
    status, text = _get(server.url, "/healthz")
    assert status == 200


def test_doctor_serve_formats_state(server):
    from repro.doctor import main as doctor_main
    doctor_main(["serve", server.url])


def test_jacobi_mpi_multi_node_tenant(server):
    status, _headers, body = _post(
        server.url, "/v1/run",
        {"app": "jacobi_mpi", "threads": 1, "nodes": 2, "mode": "pure",
         "overrides": {"n": 24, "iterations": 40}})
    assert status == 200
    assert body["ok"] and body["verified"]
    assert body["nodes"] == 2
