"""Worker-fleet supervision: prefork, dispatch, crash recovery, respawn.

The fleet owns N worker processes (:mod:`repro.serve.worker`), one
control pipe and one response slab each.  A reader thread per worker
turns pipe messages into callbacks; a supervisor tick thread enforces
job deadlines (a request stuck past its deadline gets its worker
killed — the armed in-worker watchdog has by then written a structured
doctor report, which the crash path collects and surfaces through
``/state`` and ``repro.doctor serve``) and respawns dead workers with
warm hot-team pools.

Workers are *forked*, never spawned, so a server start pays one import
chain — and every fork is made by the **nursery**, a helper the
constructor forks last, before the fleet has a thread.  It imports the
worker stack (:mod:`repro.serve.worker`) before its first fork, so the
server process, which only runs the front door, never does; it stays
single-threaded and only forks a worker per request on its command
pipe, so no worker is forked from a process whose other threads might
hold a lock.  A nursery that cannot import the stack prints the
traceback and exits; the server finds the pipe closed and marks every
slot ``failed``.  The runtimes start cold in every forked child
(:mod:`repro.runtime.engine`), and a worker only maps and closes the
server's segments.  The nursery waits for its workers (their resource
usage stays accounted to the server) and leaves at EOF of its command
pipe, as a worker does at EOF of its control pipe.  An EOF with no
shutdown message before it, once the nursery has been reparented,
means the server died: the nursery then unlinks the server's segments
(:func:`repro.serve.shm.sweep`), so nothing outlives a killed server.

Crash semantics: when a worker dies with a job in flight the fleet
reports the job back through ``on_crash`` — the server requeues the
batch at the front of the admission queue (bounded retries) so an
accepted request survives a worker kill, the acceptance property the
chaos test exercises.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import pathlib
import signal
import threading
import time
import traceback
from multiprocessing import reduction
from multiprocessing.connection import Connection

from repro.serve.shm import sweep

#: Response slab size per worker: 1 MiB of float64 result values.
SLAB_FLOATS = 131_072

#: Distinct input sets the server keeps materialized in shared memory
#: (:class:`repro.serve.server.InputStore`); the least recently used
#: one beyond this that no job holds is released.
INPUT_CAPACITY = 64

#: Seconds a forked worker gets to report ready before it is
#: declared stillborn and respawned.
READY_TIMEOUT = 60.0

#: A worker that dies before ``ready`` is re-forked after a delay that
#: starts at ``RESPAWN_DELAY`` and doubles with every consecutive
#: stillbirth up to ``RESPAWN_DELAY_MAX`` seconds; after
#: ``MAX_STILLBIRTHS`` in a row the slot is given up (``failed``).
RESPAWN_DELAY = 0.2
RESPAWN_DELAY_MAX = 5.0
MAX_STILLBIRTHS = 5


def _run_forked(target, *args) -> None:
    """Body of a process this module forked: run ``target`` and end
    the process there, without unwinding into the frames, exit
    handlers and stream buffers inherited from the parent."""
    code = 1
    try:
        target(*args)
        code = 0
    except BaseException:  # noqa: BLE001 - reported; the process ends
        traceback.print_exc()
    finally:
        os._exit(code)


def worker_entry(conn, config: dict) -> None:
    """A worker's body, :func:`repro.serve.worker.worker_entry`.

    The nursery has imported the worker stack before its first fork,
    so the import here finds it loaded.  A name of this module, looked
    up by the nursery at every fork, so that tests can wrap it.
    """
    from repro.serve.worker import worker_entry as entry
    entry(conn, config)


def _nursery(commands) -> None:
    """The prefork helper: per worker config received on ``commands``
    (followed by the worker's end of its control pipe), fork a worker
    and answer its pid; ``None`` or EOF ends it.  The segments of a
    server that died are unlinked at once, before its workers end."""
    server = os.getppid()
    # The server coordinates shutdown over the pipes: a terminal
    # Ctrl-C must not take the nursery or (they inherit this) a worker
    # down mid-job, and whatever handlers the forking process had
    # installed mean nothing here.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    # The worker stack, loaded here once so that every worker is
    # forked with it; the server process never imports it.  Should
    # this raise, the nursery ends with the traceback on stderr and
    # the server finds its command pipe closed.
    import repro.serve.worker  # noqa: F401
    children: set[int] = set()
    try:
        while (config := commands.recv()) is not None:
            fd = reduction.recv_handle(commands)
            children -= {pid for pid in children
                         if os.waitpid(pid, os.WNOHANG)[0]}
            pid = os.fork()
            if pid == 0:
                commands.close()
                # Looked up now, not bound at import: tests wrap it.
                _run_forked(worker_entry, Connection(fd), config)
            os.close(fd)
            children.add(pid)
            commands.send(pid)
    except (EOFError, OSError):
        commands.close()  # a failed fork ends the nursery too
        # EOF alone does not prove the server died (a live process
        # that drops its fleet unshut closes the pipe too); being
        # reparented does, a moment after its fds are closed.
        deadline = time.monotonic() + 2.0
        while os.getppid() == server and time.monotonic() < deadline:
            time.sleep(0.01)
        if os.getppid() != server:
            sweep(lambda pid: pid == server)
    for pid in children:
        os.waitpid(pid, 0)


class WorkerHandle:
    """One fleet slot: pid + pipe + slab + in-flight job."""

    def __init__(self, worker_id: int, slab_handle):
        self.id = worker_id
        self.generation = 0
        self.slab_handle = slab_handle
        self.conn = None
        self.reader: threading.Thread | None = None
        self.state = "starting"
        self.pid: int | None = None
        self.backend: str | None = None
        self.last_state: dict | None = None
        self.last_report: dict | None = None
        self.restarts = 0
        self.stillbirths = 0
        self.respawn_at = 0.0
        self.job_doc: dict | None = None
        self.job_requests: list | None = None
        self.job_started: float | None = None
        self.job_deadline: float | None = None
        self.started_at = time.monotonic()

    def describe(self) -> dict:
        job = None
        if self.job_doc is not None:
            job = {"app": self.job_doc.get("app"),
                   "tenant": self.job_doc.get("tenant"),
                   "batch": len(self.job_requests or []),
                   "running_s": round(
                       time.monotonic() - (self.job_started or 0), 3)}
        return {"id": self.id, "pid": self.pid, "state": self.state,
                "generation": self.generation,
                "restarts": self.restarts,
                "stillbirths": self.stillbirths, "backend": self.backend,
                "pools": (self.last_state or {}).get("pools"),
                "last_app": (self.last_state or {}).get("last_app"),
                "attached": (self.last_state or {}).get("attached"),
                "job": job, "last_report": self.last_report}


class Fleet:
    """Fork/supervise the worker processes behind the dispatcher."""

    def __init__(self, *, workers: int, registry, report_dir,
                 warm_threads: int = 2,
                 watchdog_interval: float | None = 5.0,
                 job_timeout: float = 60.0,
                 debug_apps: bool = False,
                 on_result=None, on_crash=None, on_idle=None):
        self.registry = registry
        self.report_dir = pathlib.Path(report_dir)
        self.report_dir.mkdir(parents=True, exist_ok=True)
        self.warm_threads = warm_threads
        self.watchdog_interval = watchdog_interval
        self.job_timeout = job_timeout
        self.debug_apps = debug_apps
        self.on_result = on_result or (lambda worker, message: None)
        self.on_crash = on_crash or (lambda worker, doc, reqs: None)
        self.on_idle = on_idle or (lambda: None)
        self._lock = threading.Lock()
        self._workers: dict[int, WorkerHandle] = {}
        self._shutting_down = False
        self._ready = threading.Event()
        self._tick: threading.Thread | None = None
        self._tick_wake = threading.Event()
        self.restarts_total = 0
        for worker_id in range(workers):
            slab = registry.create_slab(SLAB_FLOATS)
            self._workers[worker_id] = WorkerHandle(worker_id, slab)
        # Last: the slabs the workers map exist, and no thread of the
        # fleet does yet.
        self._nursery, theirs = multiprocessing.Pipe()
        self._nursery_lock = threading.Lock()
        self.nursery_pid = os.fork()
        if self.nursery_pid == 0:
            self._nursery.close()
            _run_forked(_nursery, theirs)
        theirs.close()

    # -- lifecycle ------------------------------------------------------

    def start(self) -> "Fleet":
        for worker in self._workers.values():
            self._start_worker(worker)
        self._tick = threading.Thread(target=self._tick_loop,
                                      name="omp4py-serve-supervisor",
                                      daemon=True)
        self._tick.start()
        return self

    def _worker_config(self, worker: WorkerHandle) -> dict:
        report = self.report_dir / f"worker-{worker.id}.json"
        return {"worker_id": worker.id,
                "slab": worker.slab_handle.to_wire(),
                "report_path": str(report),
                "watchdog_interval": self.watchdog_interval,
                "warm_threads": self.warm_threads,
                "debug_apps": self.debug_apps}

    def _start_worker(self, worker: WorkerHandle) -> None:
        parent_conn, child_conn = multiprocessing.Pipe()
        worker.generation += 1
        worker.conn = parent_conn
        worker.state = "starting"
        worker.started_at = time.monotonic()
        report = self.report_dir / f"worker-{worker.id}.json"
        if report.exists():
            report.unlink()
        try:
            with self._nursery_lock:
                self._nursery.send(self._worker_config(worker))
                reduction.send_handle(self._nursery, child_conn.fileno(),
                                      self.nursery_pid)
                worker.pid = self._nursery.recv()
        except (EOFError, OSError):
            # No nursery (it failed to import the worker stack, was
            # killed, or was shut down meanwhile), no forks, ever: the
            # slot has failed, ``/state`` says so and ``wait_ready``
            # gives up once every slot has.
            worker.pid = None
            worker.state = "failed"
            self._ready.set()
            return
        finally:
            child_conn.close()
        worker.reader = threading.Thread(
            target=self._read_loop, args=(worker, worker.generation),
            name=f"omp4py-serve-reader-{worker.id}", daemon=True)
        worker.reader.start()

    # -- pipe handling --------------------------------------------------

    def _read_loop(self, worker: WorkerHandle, generation: int) -> None:
        """Serve one worker's messages until EOF — which, the worker
        holding the only other end of the pipe, is how the fleet
        learns that the process is gone."""
        conn = worker.conn
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break
            if not isinstance(message, dict):
                continue
            op = message.get("op")
            if op == "ready":
                with self._lock:
                    worker.backend = message.get("backend")
                    worker.last_state = message
                    worker.state = "idle"
                    worker.stillbirths = 0
                self._ready.set()
                self.on_idle()
            elif op == "result":
                with self._lock:
                    doc, requests = worker.job_doc, worker.job_requests
                    worker.job_doc = None
                    worker.job_requests = None
                    worker.job_started = None
                    worker.job_deadline = None
                    worker.last_state = message.get("state") or \
                        worker.last_state
                message["_dispatched"] = (doc, requests)
                # The callback drains the response slab, so the worker
                # must not become dispatchable until it returns.
                self.on_result(worker, message)
                with self._lock:
                    if worker.state == "busy":
                        worker.state = "idle"
                self.on_idle()
            elif op == "pong":
                with self._lock:
                    worker.last_state = message
        self._handle_exit(worker, generation)

    def _handle_exit(self, worker: WorkerHandle, generation: int) -> None:
        with self._lock:
            if worker.generation != generation or self._shutting_down:
                return
            doc, requests = worker.job_doc, worker.job_requests
            worker.job_doc = None
            worker.job_requests = None
            worker.job_started = None
            worker.job_deadline = None
            if stillborn := worker.state == "starting":
                worker.stillbirths += 1
            worker.state = "dead"
            worker.restarts += 1
            self.restarts_total += 1
            if worker.stillbirths >= MAX_STILLBIRTHS:
                worker.state = "failed"
            elif stillborn:
                worker.respawn_at = time.monotonic() + min(
                    RESPAWN_DELAY_MAX,
                    RESPAWN_DELAY * 2 ** (worker.stillbirths - 1))
        report_path = self.report_dir / f"worker-{worker.id}.json"
        if report_path.exists():
            try:
                worker.last_report = json.loads(
                    report_path.read_text(encoding="utf-8"))
            except (OSError, ValueError):
                worker.last_report = None
        if doc is not None:
            self.on_crash(worker, doc, requests or [])
        # Restarting is the tick's: at once after a crash, after the
        # back-off for a worker that died before it was ready, and
        # never for a failed slot (``wait_ready`` learns of that).
        if worker.state == "failed":
            self._ready.set()
        elif not stillborn:
            self._tick_wake.set()

    def _tick_loop(self) -> None:
        while not self._shutting_down:
            self._tick_wake.wait(timeout=0.2)
            self._tick_wake.clear()
            now = time.monotonic()
            victims, dead = [], []
            with self._lock:
                for worker in self._workers.values():
                    if worker.state == "busy" and worker.job_deadline \
                            and now > worker.job_deadline:
                        victims.append(worker)
                    elif worker.state == "starting" and \
                            now - worker.started_at > READY_TIMEOUT:
                        victims.append(worker)
                    elif worker.state == "dead" and \
                            now >= worker.respawn_at:
                        dead.append(worker)
            for worker in victims:
                self.kill_worker(worker.id)
            for worker in dead:
                self._start_worker(worker)

    # -- dispatch -------------------------------------------------------

    def wait_ready(self, timeout: float = READY_TIMEOUT) -> bool:
        """Block until at least one worker is idle; ``False`` at the
        deadline or as soon as every slot has failed."""
        deadline = time.monotonic() + timeout
        while True:
            with self._lock:
                states = {w.state for w in self._workers.values()}
            if "idle" in states:
                return True
            if states <= {"failed"} or time.monotonic() >= deadline:
                return False
            self._ready.wait(timeout=0.2)
            self._ready.clear()

    def idle_workers(self) -> int:
        with self._lock:
            return sum(1 for w in self._workers.values()
                       if w.state == "idle")

    def acquire_idle(self) -> WorkerHandle | None:
        with self._lock:
            for worker in self._workers.values():
                if worker.state == "idle":
                    worker.state = "busy"
                    return worker
        return None

    def dispatch(self, worker: WorkerHandle, job_doc: dict,
                 requests: list, *, timeout: float | None = None) -> bool:
        """Send one job to an acquired worker.

        ``False`` when the worker died since it was acquired: nothing
        was handed over and the job is still the caller's.  Once the
        job is recorded on the worker, a dead pipe is the reader's to
        report: its exit path returns the job through ``on_crash``.
        """
        now = time.monotonic()
        with self._lock:
            if worker.state != "busy":
                return False
            worker.job_doc = job_doc
            worker.job_requests = requests
            worker.job_started = now
            worker.job_deadline = now + (timeout or self.job_timeout)
        try:
            worker.conn.send(job_doc)
        except (OSError, ValueError):
            pass
        return True

    def release_idle(self, worker: WorkerHandle) -> None:
        """Return an acquired-but-unused worker to the idle pool."""
        with self._lock:
            if worker.state == "busy" and worker.job_doc is None:
                worker.state = "idle"

    def kill_worker(self, worker_id: int) -> bool:
        """SIGKILL one worker (deadline enforcement / chaos tests)."""
        with self._lock:
            worker = self._workers.get(worker_id)
            pid = worker.pid if worker else None
        if not pid:
            return False
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            return False
        return True

    def pids(self) -> dict[int, int | None]:
        with self._lock:
            return {w.id: w.pid for w in self._workers.values()}

    def snapshot(self) -> list[dict]:
        with self._lock:
            return [w.describe()
                    for w in sorted(self._workers.values(),
                                    key=lambda w: w.id)]

    def shutdown(self, timeout: float = 10.0) -> None:
        with self._lock:
            self._shutting_down = True
        with self._nursery_lock:
            # Past this no fork is in flight and none can start, so
            # the workers told to leave below are all there are.
            try:
                self._nursery.send(None)
            except OSError:
                pass  # already gone, or shut down before
            self._nursery.close()
        workers = [worker for worker in self._workers.values()
                   if worker.reader is not None]
        for worker in workers:
            try:
                worker.conn.send({"op": "shutdown"})
            except (OSError, ValueError, BrokenPipeError):
                pass
        deadline = time.monotonic() + timeout
        for worker in workers:
            # The reader returns at EOF, that is, once the worker ended.
            worker.reader.join(max(0.1, deadline - time.monotonic()))
            if worker.reader.is_alive() and self.kill_worker(worker.id):
                worker.reader.join(timeout=5)
        try:
            # The nursery exits once it has waited for every worker.
            os.waitpid(self.nursery_pid, 0)
        except ChildProcessError:
            pass  # shut down before
        for worker in self._workers.values():
            self.registry.release(worker.slab_handle.segment)
