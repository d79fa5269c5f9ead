"""The server's input store: a bounded LRU of shared-memory input sets.

Unit tests drive :class:`InputStore` on a private registry; the
pinning test holds an input set in a running ``_spin`` job of an
in-process server; the soak test sends distinct-input traffic to a
``python -m repro.serve`` subprocess under a 512-fd limit and watches
its fds, its workers' fds and its segment count stay flat.
"""

from __future__ import annotations

import json
import os
import pathlib
import resource
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.serve import ServeServer, catalog
from repro.serve.fleet import INPUT_CAPACITY
from repro.serve.protocol import parse_request
from repro.serve.server import InputStore
from repro.serve.shm import ATTACH_CAPACITY, ShmRegistry, leaked_segments

REPO = pathlib.Path(__file__).resolve().parents[2]


def _request(app: str, **overrides):
    return parse_request({"app": app, "overrides": overrides},
                         known_apps=catalog.serveable_apps(debug=True),
                         default_tenant="default", max_threads=64)


def _jacobi(seed: int):
    return _request("jacobi", n=8, iterations=5, seed=seed)


def _segments(entry: dict) -> set[str]:
    return {doc["segment"] for doc in entry["arrays"].values()}


@pytest.fixture
def registry():
    reg = ShmRegistry(tag="store")
    yield reg
    reg.close_all()


def test_lru_evicts_the_least_recently_used_and_releases_it(registry):
    evicted = []
    store = InputStore(registry, on_evict=evicted.append)
    store.capacity = 2
    first = store.entry(_jacobi(1))
    second = store.entry(_jacobi(2))
    assert store.entry(_jacobi(1)) is first  # a hit refreshes 1
    third = store.entry(_jacobi(3))
    assert store.snapshot() == {"entries": 2, "pinned": 0,
                                "capacity": 2, "evictions": 1}
    assert evicted == [1]
    # 2 was least recently used: its segment is unlinked, 1's and 3's
    # are the registry's whole content.
    assert set(registry.names()) == _segments(first) | _segments(third)
    assert not _segments(second) & set(leaked_segments())
    # A miss on an evicted key builds it afresh, in a new segment.
    again = store.entry(_jacobi(2))
    assert again["expected"] == second["expected"]
    assert not _segments(again) & _segments(second)
    assert store.snapshot()["evictions"] == 2
    assert set(registry.names()) == _segments(third) | _segments(again)


def test_a_pinned_entry_outlives_capacity_until_unpinned(registry):
    store = InputStore(registry)
    store.capacity = 2
    held_request = _jacobi(1)
    held = store.pin(held_request)
    for seed in range(2, 6):
        store.entry(_jacobi(seed))
    # The oldest, but held: the others made way.
    assert store.snapshot()["entries"] == 2
    assert _segments(held) <= set(registry.names())
    store.pin(_jacobi(6))
    newest = store.entry(_jacobi(7))
    # Two held sets and the one just returned: over capacity.
    assert store.snapshot() == {"entries": 3, "pinned": 2,
                                "capacity": 2, "evictions": 4}
    store.unpin(held_request.input_key)
    # Unpinned, it is the least recently used one over capacity.
    assert store.snapshot()["entries"] == 2
    assert not _segments(held) & set(registry.names())
    assert _segments(newest) <= set(registry.names())


def test_a_failed_build_leaves_no_segment(registry):
    store = InputStore(registry)
    store.entry(_jacobi(1))
    before = registry.names()
    # The system is built into a segment, then the sequential
    # reference raises on the string tolerance.
    bad = _request("jacobi", n=8, iterations=5, tol="x")
    for _attempt in range(2):
        with pytest.raises(TypeError):
            store.entry(bad)
        assert registry.names() == before
    assert store.snapshot()["entries"] == 1


def _wait_for(condition, timeout: float = 60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        value = condition()
        if value:
            return value
        time.sleep(0.02)
    raise AssertionError("condition not met in time")


def test_a_running_job_keeps_its_input_set_past_capacity():
    server = ServeServer(workers=2, queue_capacity=8, max_batch=1,
                         tenants={"default": 4}, job_timeout=30.0,
                         debug_apps=True)
    server.inputs.capacity = 3
    server.start()
    try:
        _wait_for(lambda: server.fleet.idle_workers() == 2)
        out = {}
        holder = threading.Thread(target=lambda: out.setdefault(
            "held", server.submit({"app": "_spin", "threads": 1,
                                   "overrides": {"seconds": 3.0,
                                                 "n": 128}})))
        holder.start()
        _wait_for(lambda: server.inputs.snapshot()["pinned"] == 1)
        held = server.inputs.entry(_request("_spin", seconds=3.0, n=128))
        for seed in range(1, 3 * server.inputs.capacity):
            response = server.submit({"app": "jacobi", "overrides": {
                "n": 8, "iterations": 5, "seed": seed}})
            assert response["ok"] and response["verified"], response
            assert _segments(held) <= set(server.shm.names())
        assert holder.is_alive(), "the held job ended too soon to tell"
        holder.join(timeout=60)
        assert not holder.is_alive()
        response = out["held"]
        assert response["ok"] and response["verified"], response
        # Released, it ages out like any other input set.
        for seed in range(100, 100 + server.inputs.capacity):
            server.submit({"app": "jacobi", "overrides": {
                "n": 8, "iterations": 5, "seed": seed}})
        assert not _segments(held) & set(server.shm.names())
        state = server.state_payload()["inputs"]
        assert state["entries"] == state["capacity"] == 3
        assert state["pinned"] == 0 and state["evictions"] > 0
        assert "omp_serve_input_evictions_total" in server.metrics_text()
    finally:
        server.stop()
    assert leaked_segments() == []


# -- soak ---------------------------------------------------------------

SOAK_MIX = (("jacobi", {"n": 8, "iterations": 5}),
            ("qsort", {"n": 200}),
            ("fft", {"n": 128}))
SOAK_REQUESTS = 400
SOAK_FD_LIMIT = 512
#: Most segments one input set of the soak mix holds (fft: re, im).
SOAK_SEGMENTS_PER_SET = 2


def _fds(pid: int) -> int:
    return len(os.listdir(f"/proc/{pid}/fd"))


def _http(url: str, path: str, doc: dict | None = None) -> dict:
    request = urllib.request.Request(
        url + path, data=None if doc is None else json.dumps(doc).encode(),
        headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(request, timeout=60) as response:
            return json.loads(response.read().decode())
    except urllib.error.HTTPError as error:
        return json.loads(error.read().decode())


def _idle_state(url: str) -> dict | None:
    state = _http(url, "/state")
    if all(worker["state"] == "idle" for worker in state["workers"]):
        return state
    return None


def _limit_fds() -> None:
    _soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    resource.setrlimit(resource.RLIMIT_NOFILE, (SOAK_FD_LIMIT, hard))


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="counts /proc fds")
def test_distinct_input_soak_keeps_fds_and_segments_flat(tmp_path):
    port_file = tmp_path / "port"
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.serve", "--port", "0",
         "--workers", "2", "--port-file", str(port_file)],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True, preexec_fn=_limit_fds)
    try:
        _wait_for(lambda: port_file.exists() and port_file.read_text()
                  or process.poll() is not None, timeout=90)
        assert process.poll() is None, process.stderr.read()
        url = f"http://127.0.0.1:{port_file.read_text().strip()}"
        state = _wait_for(lambda: _idle_state(url), timeout=90)
        workers = [w["pid"] for w in state["workers"]]
        # Every process may hold what it held at ready plus its
        # store's or mapping cache's bound (two fds per segment), and
        # some slack for sockets and pipes - none of it grows with
        # the number of requests.
        max_segments = len(workers) * (1 + SOAK_SEGMENTS_PER_SET) \
            + INPUT_CAPACITY * SOAK_SEGMENTS_PER_SET
        bounds = {process.pid: _fds(process.pid) + 2 * max_segments + 32}
        for pid in workers:
            bounds[pid] = _fds(pid) + 2 * ATTACH_CAPACITY + 16
        assert max(bounds.values()) < SOAK_FD_LIMIT
        peaks = dict.fromkeys(bounds, 0)
        for index in range(SOAK_REQUESTS):
            app, overrides = SOAK_MIX[index % len(SOAK_MIX)]
            response = _http(url, "/v1/run", {
                "app": app, "threads": 1,
                "overrides": dict(overrides, seed=10_000 + index)})
            assert response.get("ok") and response.get("verified"), \
                f"request {index}: {response}"
            if index % 25 == 24:
                state = _http(url, "/state")
                assert state["shm"]["segments"] <= max_segments, state
                assert [w["pid"] for w in state["workers"]] == workers
                for pid in bounds:
                    peaks[pid] = max(peaks[pid], _fds(pid))
        assert all(peaks[pid] <= bounds[pid] for pid in bounds), \
            (peaks, bounds)
        inputs = state["inputs"]
        assert inputs["entries"] == INPUT_CAPACITY
        assert inputs["evictions"] == SOAK_REQUESTS - INPUT_CAPACITY
        assert all(w["attached"]["segments"] <= ATTACH_CAPACITY
                   for w in state["workers"])
        process.send_signal(signal.SIGTERM)
        assert process.wait(timeout=30) == 0
        assert process.stderr.read() == ""
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=10)
    assert leaked_segments() == []
