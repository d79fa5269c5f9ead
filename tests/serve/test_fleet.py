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
from repro.serve.fleet import Fleet
from repro.serve.shm import ShmRegistry, leaked_segments

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


def test_stopping_one_of_two_servers_leaves_the_others_segments(server):
    """Both servers' segments carry this process's pid; a graceful
    stop unlinks its own registry's and nothing else."""
    other = ServeServer(workers=1, tenants={"default": 2})
    try:
        other.start()
        theirs = other.shm.names()
        ours = server.shm.names()
        assert theirs and ours and not set(theirs) & set(ours)
    finally:
        other.stop()
    assert not set(theirs) & set(leaked_segments())
    assert set(ours) <= set(leaked_segments())
    response = server.submit({"app": "pi", "threads": 2})
    assert response["ok"] and response["verified"], response


def test_a_fleet_dropped_unshut_in_a_live_process_unlinks_nothing(
        server, tmp_path):
    """A fleet dropped without ``shutdown`` (a ``start`` that raised,
    then garbage collection) closes its nursery's command pipe with no
    shutdown message, as a killed server would: the nursery, still
    the child of a live process, must not sweep that process's
    segments."""
    registry = ShmRegistry(tag="test")
    try:
        fleet = Fleet(workers=1, registry=registry, report_dir=tmp_path)
        slabs = registry.names()
        fleet._nursery.close()
        os.waitpid(fleet.nursery_pid, 0)
        assert set(slabs) | set(server.shm.names()) \
            <= set(leaked_segments())
        response = server.submit({"app": "pi", "threads": 2})
        assert response["ok"] and response["verified"], response
    finally:
        registry.close_all()


def _stillborn(births: pathlib.Path):
    def worker_entry(conn, config):
        (births / f"{config['worker_id']}-{os.getpid()}").touch()
        raise RuntimeError("dies before ready")
    return worker_entry


def test_stillborn_workers_back_off_then_their_slots_fail(
        tmp_path, monkeypatch):
    from repro.serve import fleet as fleet_module
    births = tmp_path / "births"
    births.mkdir()
    # Before the server exists: its nursery looks the name up when it
    # forks a worker, in the memory it was itself forked with.
    monkeypatch.setattr(fleet_module, "worker_entry", _stillborn(births))
    srv = ServeServer(workers=2, tenants={"default": 2},
                      report_dir=str(tmp_path / "reports"))
    slabs = srv.shm.names()
    begin = time.monotonic()
    srv.start(wait_ready=False)
    try:
        assert srv.fleet.wait_ready() is False
        elapsed = time.monotonic() - begin
        backoff = sum(fleet_module.RESPAWN_DELAY * 2 ** attempt
                      for attempt in range(fleet_module.MAX_STILLBIRTHS
                                           - 1))
        assert backoff <= elapsed < backoff + 20
        slots = srv.state_payload()["workers"]
        assert [slot["state"] for slot in slots] == ["failed", "failed"]
        assert {slot["stillbirths"] for slot in slots} == {
            fleet_module.MAX_STILLBIRTHS}
        assert all("last_report" in slot for slot in slots)
        time.sleep(0.6)  # three supervisor ticks: no fork follows
        forks = sorted(name.split("-")[0] for name in os.listdir(births))
        assert forks == ["0"] * fleet_module.MAX_STILLBIRTHS \
            + ["1"] * fleet_module.MAX_STILLBIRTHS
    finally:
        srv.stop()
    # (The module's own server is still up: its segments stay.)
    assert not set(slabs) & set(leaked_segments())


_STILLBORN_CLI = textwrap.dedent('''
    import pathlib, sys
    import repro.serve.fleet
    from repro.serve import cli

    def worker_entry(conn, config):
        raise RuntimeError("dies before ready")

    repro.serve.fleet.worker_entry = worker_entry
    if __name__ == "__main__":
        sys.exit(cli.main(["--port", "0", "--workers", "1"]))
''')


def test_cli_exits_nonzero_when_no_worker_becomes_ready(tmp_path):
    script = tmp_path / "stillborn_server.py"
    script.write_text(_STILLBORN_CLI, encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    begin = time.monotonic()
    process = subprocess.Popen([sys.executable, str(script)], env=env,
                               stdout=subprocess.PIPE,
                               stderr=subprocess.PIPE, text=True)
    stdout, stderr = process.communicate(timeout=60)
    assert process.returncode == 1, stderr
    assert time.monotonic() - begin < 30
    assert "fleet ready" not in stdout
    assert "no worker became ready" in stderr
    assert not [name for name in leaked_segments()
                if f"_{process.pid}_" in name]


_BROKEN_NURSERY_CLI = textwrap.dedent('''
    import os, runpy, sys

    def poison():
        # Runs in whatever this process forks first, its nursery: the
        # worker-stack import made there raises.
        sys.modules["repro.serve.worker"] = None

    os.register_at_fork(after_in_child=poison)
    if __name__ == "__main__":
        sys.argv = ["repro.serve", "--port", "0", "--workers", "1"]
        runpy.run_module("repro.serve", run_name="__main__",
                         alter_sys=True)
''')


def test_cli_exits_nonzero_when_the_nursery_cannot_import_workers(
        tmp_path):
    """The nursery imports the worker stack before its first fork; if
    that fails, ``python -m repro.serve`` says so and exits 1 at once
    instead of waiting out the ready timeout."""
    script = tmp_path / "broken_nursery_server.py"
    script.write_text(_BROKEN_NURSERY_CLI, encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    begin = time.monotonic()
    process = subprocess.Popen([sys.executable, str(script)], env=env,
                               stdout=subprocess.PIPE,
                               stderr=subprocess.PIPE, text=True)
    try:
        stdout, stderr = process.communicate(timeout=30)
    except subprocess.TimeoutExpired:
        process.terminate()
        stdout, stderr = process.communicate(timeout=30)
        pytest.fail(f"still serving after 30 s; stdout: {stdout!r}")
    assert process.returncode == 1, stderr
    assert time.monotonic() - begin < 10
    assert "fleet ready" not in stdout
    assert "Traceback" in stderr and "repro.serve.worker" in stderr
    assert "no worker became ready" in stderr
    assert not [name for name in leaked_segments()
                if f"_{process.pid}_" in name]
