"""The prefork fleet's lifecycle, in process: who forks the workers,
what a respawn is, and what a worker inherits.

Waiting is polling ``Fleet.snapshot()`` against a deadline.
"""

from __future__ import annotations

import json
import os
import pathlib
import signal
import subprocess
import sys
import textwrap
import time

import pytest

from repro.serve import ServeServer
from repro.serve.shm import leaked_segments

REPO = pathlib.Path(__file__).resolve().parents[2]

pytestmark = pytest.mark.skipif(not os.path.isdir("/proc"),
                                reason="reads parent pids from /proc")


def _parent_pid(pid: int) -> int:
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        return int(handle.read().rsplit(")", 1)[1].split()[1])


def _wait_for(condition, timeout: float = 60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        value = condition()
        if value:
            return value
        time.sleep(0.02)
    raise AssertionError("condition not met in time")


@pytest.fixture(scope="module")
def server():
    srv = ServeServer(workers=2, queue_capacity=8, max_batch=1,
                      tenants={"default": 4}, job_timeout=30.0)
    srv.start()
    _wait_for(lambda: srv.fleet.idle_workers() == 2)
    yield srv
    processes = [srv.fleet.nursery_pid, *srv.fleet.pids().values()]
    srv.stop()
    assert leaked_segments() == []
    # Waited for, not merely signalled: their pids are free again.
    assert not [pid for pid in processes
                if os.path.exists(f"/proc/{pid}")]
    srv.stop()  # a second stop is harmless


def test_killed_worker_is_replaced_by_the_nursery_and_serves(server):
    fleet = server.fleet
    nursery = fleet.nursery_pid
    assert _parent_pid(nursery) == os.getpid()
    first = fleet.pids()
    assert {_parent_pid(pid) for pid in first.values()} == {nursery}

    restarts = fleet.restarts_total
    os.kill(first[0], signal.SIGKILL)
    replacement = _wait_for(lambda: next(
        (w["pid"] for w in fleet.snapshot()
         if w["id"] == 0 and w["state"] == "idle"
         and w["pid"] != first[0]), None))
    assert _parent_pid(replacement) == nursery
    assert fleet.restarts_total == restarts + 1
    assert fleet.pids()[1] == first[1]

    # Idle workers are taken in id order, so the replacement serves.
    response = server.submit({"app": "jacobi", "threads": 2})
    assert response["ok"] and response["verified"], response
    assert response["pid"] == replacement


_PROBE_SCRIPT = textwrap.dedent('''
    """A two-worker server whose workers report, when they send
    ``ready`` and after every job, the tools on their runtimes."""
    import json, sys, time
    import repro.serve.fleet
    from repro.serve import ServeServer
    from repro.serve.worker import RUNTIMES, worker_entry

    def probed_worker(conn, config):
        class Probe:
            def send(self, message):
                if message.get("op") in ("ready", "result"):
                    tools = {runtime.name: [type(tool).__name__
                                            for tool in runtime._tools]
                             for runtime in RUNTIMES}
                    with open(config["report_path"] + "."
                              + message["op"], "w") as handle:
                        json.dump(tools, handle)
                conn.send(message)

            def recv(self):
                return conn.recv()

        worker_entry(Probe(), config)

    repro.serve.fleet.worker_entry = probed_worker
    server = ServeServer(workers=2, tenants={"default": 2},
                         report_dir=sys.argv[1])
    server.start()
    deadline = time.monotonic() + 60
    while server.fleet.idle_workers() < 2 and time.monotonic() < deadline:
        time.sleep(0.02)
    response = server.submit({"app": "pi", "mode": "hybrid",
                              "threads": 2})
    server.stop()
    print(json.dumps({"ok": response["ok"],
                      "verified": response["verified"],
                      "worker": response["worker"]}))
''')


def test_observability_env_of_the_server_arms_nothing_in_a_worker(
        tmp_path):
    script = tmp_path / "probe_server.py"
    script.write_text(_PROBE_SCRIPT, encoding="utf-8")
    reports = tmp_path / "reports"
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"),
               OMP4PY_TRACE="1", OMP4PY_METRICS_PORT="0",
               OMP4PY_PROFILE="1")
    done = subprocess.run([sys.executable, str(script), str(reports)],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    response = json.loads(done.stdout.splitlines()[-1])
    assert response["ok"] and response["verified"]

    watchdog_only = {"runtime": ["DiagnosticsState"],
                     "cruntime": ["DiagnosticsState"]}
    for worker_id in (0, 1):
        ready = reports / f"worker-{worker_id}.json.ready"
        assert json.loads(ready.read_text()) == watchdog_only
    # The worker that served has transformed a kernel by now — under
    # the server's environment that would have armed the tracer, the
    # sampler and a metrics endpoint.
    served = reports / f"worker-{response['worker']}.json.result"
    assert json.loads(served.read_text()) == watchdog_only
