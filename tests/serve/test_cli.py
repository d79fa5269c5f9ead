"""``python -m repro.serve`` as a process: banner order, signals, what
it writes to stderr, and what it leaves behind when it is killed."""

from __future__ import annotations

import json
import os
import pathlib
import select
import signal
import subprocess
import sys
import textwrap
import time
import urllib.request

import pytest

from repro.serve.shm import leaked_segments

REPO = pathlib.Path(__file__).resolve().parents[2]
ENV = dict(os.environ, PYTHONPATH=str(REPO / "src"))


class Cli:
    """One server process, started and read up to ``fleet ready``."""

    def __init__(self, tmp_path, *command):
        self.port_file = tmp_path / "port"
        self.port_file.unlink(missing_ok=True)
        self.stderr_path = tmp_path / "stderr"
        with open(self.stderr_path, "w", encoding="utf-8") as stderr:
            self.process = subprocess.Popen(
                [*(command or (sys.executable, "-m", "repro.serve")),
                 "--port", "0", "--workers", "2",
                 "--port-file", str(self.port_file)],
                env=ENV, stdout=subprocess.PIPE, stderr=stderr,
                text=True, start_new_session=True)
        ready, _, _ = select.select([self.process.stdout], [], [], 90)
        self.first_line = self.process.stdout.readline() if ready else ""

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self.port_file.read_text().strip()}"

    def state(self) -> dict:
        with urllib.request.urlopen(self.url + "/state",
                                    timeout=10) as reply:
            return json.loads(reply.read().decode())

    def stderr(self) -> str:
        return self.stderr_path.read_text(encoding="utf-8")

    def segments(self) -> list[str]:
        return [name for name in leaked_segments()
                if f"_{self.process.pid}_" in name]

    def close(self) -> None:
        """Stop a server the test left running — gracefully, so that
        it unlinks its segments — then whatever is left in its
        session."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(self.process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.process.wait(timeout=10)
        self.process.stdout.close()


@pytest.fixture
def cli(tmp_path):
    started = []

    def start(*command) -> Cli:
        started.append(Cli(tmp_path, *command))
        return started[-1]

    yield start
    for server in started:
        server.close()


def _alive(pid: int) -> bool:
    """A process that still runs (one that ended and was not waited
    for is not alive, only not yet reaped)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def _wait_until(condition, timeout: float) -> bool:
    deadline = time.monotonic() + timeout
    while not condition():
        if time.monotonic() >= deadline:
            return False
        time.sleep(0.01)
    return True


def test_fleet_ready_is_the_first_line_and_the_port_is_known(cli):
    server = cli()
    assert server.first_line == "fleet ready\n"
    assert server.process.stdout.readline().startswith("serving on ")
    assert any(worker["state"] == "idle"
               for worker in server.state()["workers"])


def test_quiet_stderr_from_start_to_sigterm(cli):
    server = cli()
    for index in range(10):
        body = json.dumps({"app": ("jacobi", "qsort")[index % 2],
                           "threads": 2}).encode()
        request = urllib.request.Request(
            server.url + "/v1/run", data=body,
            headers={"Content-Type": "application/json"})
        with urllib.request.urlopen(request, timeout=60) as reply:
            response = json.loads(reply.read().decode())
        assert response["ok"] and response["verified"], response
    server.process.send_signal(signal.SIGTERM)
    assert server.process.wait(timeout=30) == 0
    stderr = server.stderr()
    assert "Traceback" not in stderr and "resource_tracker" not in stderr
    assert server.segments() == []


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads /proc")
def test_a_killed_server_leaves_no_process_behind(cli):
    server = cli()
    workers = [worker["pid"] for worker in server.state()["workers"]]
    with open(f"/proc/{workers[0]}/stat", encoding="ascii") as handle:
        nursery = int(handle.read().rsplit(")", 1)[1].split()[1])
    assert nursery != server.process.pid and _alive(nursery)
    server.process.kill()
    server.process.wait(timeout=10)
    # EOF on the command pipe ends the nursery, EOF on a control pipe
    # a worker; then the shared resource tracker unlinks the segments.
    assert _wait_until(
        lambda: not any(map(_alive, [nursery, *workers])), 2.0)
    assert _wait_until(lambda: server.segments() == [], 10.0)


_SIGNAL_UNDER_LOCK = textwrap.dedent('''
    """The CLI, with SIGTERM raised on the main thread every time that
    thread is inside ``Event.wait`` and holds the event's lock."""
    import os, signal, sys, threading
    from repro.serve import cli

    def inside_event_wait(frame, event, arg):
        if event == "line":
            signal.raise_signal(signal.SIGTERM)
        return inside_event_wait

    def tracer(frame, event, arg):
        code = frame.f_code
        if code.co_name == "wait" and code.co_filename \\
                == threading.__file__ \\
                and isinstance(frame.f_locals.get("self"),
                               threading.Event):
            return inside_event_wait

    # Guarded: a spawned child imports this file again.  And only the
    # server is traced, not what it forks.
    if __name__ == "__main__":
        os.register_at_fork(after_in_child=lambda: sys.settrace(None))
        sys.settrace(tracer)
        sys.exit(cli.main(sys.argv[1:]))
''')


def test_signal_while_the_main_thread_holds_an_event_lock(cli, tmp_path):
    """A handler that sets an ``Event`` deadlocks against the
    ``Event.wait`` it interrupts; the CLI's takes no lock."""
    script = tmp_path / "signal_under_lock.py"
    script.write_text(_SIGNAL_UNDER_LOCK, encoding="utf-8")
    server = cli(sys.executable, str(script))
    try:
        assert server.process.wait(timeout=60) == 0
    except subprocess.TimeoutExpired:
        pytest.fail("the server did not shut down on SIGTERM")
    assert "Traceback" not in server.stderr()
    assert server.segments() == []


@pytest.mark.slow
def test_sigterm_the_moment_the_fleet_is_ready(cli):
    for attempt in range(30):
        server = cli()
        assert server.first_line == "fleet ready\n", attempt
        server.process.send_signal(signal.SIGTERM)
        try:
            assert server.process.wait(timeout=60) == 0, attempt
        except subprocess.TimeoutExpired:
            pytest.fail(f"start {attempt}: deadlocked on SIGTERM")
        assert server.segments() == [], attempt
