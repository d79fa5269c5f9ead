"""Workers report ready with a warm pool and compile kernels on demand.

A real fleet is started with the worker entry point wrapped by a probe
that writes down which (app, mode) variants exist in that process when
it is forked and again at the moment it sends ``ready``.  Readiness
must not wait for any variant: a ready worker holds what the fork
handed it (nothing, under ``python -m repro.serve``; whatever earlier
tests compiled, here) and not one more.  The first request of every
mode, and a request retried onto a respawned worker, must still verify.
"""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.serve import ServeServer
from repro.serve.shm import leaked_segments
from repro.serve.worker import worker_entry


def _compiled_variants() -> dict:
    from repro.apps import get_app, list_apps
    # Keys are ``Mode`` members, or plain strings for extra variants.
    compiled = {app: sorted(str(getattr(mode, "value", mode))
                            for mode in get_app(app)._variants)
                for app in list_apps()}
    return {app: modes for app, modes in compiled.items() if modes}


def _probed_worker(conn, config):
    """``worker_entry`` behind a pipe end that records, next to the
    worker's report file, the variants compiled at the fork and when
    ``ready`` is sent."""
    forked_with = _compiled_variants()

    class Probe:
        def send(self, message):
            if message.get("op") == "ready":
                with open(config["report_path"] + ".ready", "w",
                          encoding="utf-8") as handle:
                    json.dump({"forked": forked_with,
                               "ready": _compiled_variants()}, handle)
            conn.send(message)

        def recv(self):
            return conn.recv()

    worker_entry(Probe(), config)


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    report_dir = tmp_path_factory.mktemp("serve-reports")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("repro.serve.fleet.worker_entry", _probed_worker)
        # Batches of one and a budget of two 2-thread jobs: concurrent
        # requests occupy both workers.
        srv = ServeServer(workers=2, queue_capacity=16, max_batch=1,
                          tenants={"default": 4}, job_timeout=30.0,
                          watchdog_interval=0.4, debug_apps=True,
                          report_dir=report_dir)
        srv.start()
        deadline = time.monotonic() + 60
        while srv.fleet.idle_workers() < 2 and time.monotonic() < deadline:
            time.sleep(0.05)
        srv.report_dir = report_dir
        yield srv
        srv.stop()
    assert leaked_segments() == []


def _compiled_nothing_before_ready(server, worker_id: int) -> bool:
    path = server.report_dir / f"worker-{worker_id}.json.ready"
    seen = json.loads(path.read_text(encoding="utf-8"))
    return seen["ready"] == seen["forked"]


def test_ready_arrives_before_any_other_variant_exists(server):
    assert server.fleet.idle_workers() == 2
    for worker_id in (0, 1):
        assert _compiled_nothing_before_ready(server, worker_id)
    for worker in server.fleet.snapshot():
        # Both runtimes' pools are warm: warm_threads - 1 parked each.
        assert {name: pool["idle"]
                for name, pool in worker["pools"].items()} \
            == {"runtime": 3, "cruntime": 3}


@pytest.mark.parametrize("mode", ["pure", "hybrid"])  # the served modes
def test_first_request_of_each_mode_verifies(server, mode):
    response = server.submit({"app": "jacobi", "mode": mode, "threads": 2})
    assert response["ok"] and response["verified"], response
    assert response["attempts"] == 1


def test_retry_onto_a_respawned_worker_compiles_on_demand(server):
    restarts = server.fleet.restarts_total
    out = {}

    def fire():
        out["resp"] = server.submit({"app": "_spin", "threads": 1,
                                     "overrides": {"seconds": 2.0}})

    thread = threading.Thread(target=fire)
    thread.start()
    victim = None
    deadline = time.monotonic() + 10
    while victim is None and time.monotonic() < deadline:
        busy = [w for w in server.fleet.snapshot() if w["state"] == "busy"]
        if busy:
            victim = busy[0]["id"]
        else:
            time.sleep(0.02)
    assert victim is not None
    assert server.fleet.kill_worker(victim)
    thread.join(timeout=60)
    assert not thread.is_alive()
    assert out["resp"]["ok"] and out["resp"]["attempts"] == 2, out["resp"]
    assert server.fleet.restarts_total == restarts + 1

    deadline = time.monotonic() + 60
    while server.fleet.idle_workers() < 2 and time.monotonic() < deadline:
        time.sleep(0.05)
    assert _compiled_nothing_before_ready(server, victim)
    # Both workers, the respawned one included, serve an app neither
    # compiled at start-up.
    replies = []
    clients = [threading.Thread(target=lambda: replies.append(
        server.submit({"app": "qsort", "mode": "hybrid", "threads": 2})))
        for _ in range(6)]
    for client in clients:
        client.start()
    for client in clients:
        client.join(timeout=60)
    assert len(replies) == 6
    assert all(r["ok"] and r["verified"] for r in replies), replies
    assert {r["worker"] for r in replies} == {0, 1}
