"""Worker-fleet supervision: spawn, dispatch, crash recovery, respawn.

The fleet owns N spawned worker processes (:mod:`repro.serve.worker`),
one control pipe and one response slab each.  A reader thread per
worker turns pipe messages into callbacks; a supervisor tick thread
enforces job deadlines (a request stuck past its deadline gets its
worker killed — the armed in-worker watchdog has by then written a
structured doctor report, which the crash path collects and surfaces
through ``/state`` and ``repro.doctor serve``) and respawns dead
workers with warm hot-team pools.

Crash semantics: when a worker dies with a job in flight the fleet
reports the job back through ``on_crash`` — the server requeues the
batch at the front of the admission queue (bounded retries) so an
accepted request survives a worker kill, the acceptance property the
chaos test exercises.
"""

from __future__ import annotations

import multiprocessing
import os
import pathlib
import signal
import threading
import time

from repro.serve.worker import worker_entry

#: Response slab size per worker: 1 MiB of float64 result values.
SLAB_FLOATS = 131_072

#: Seconds a spawned worker gets to report ready before it is
#: declared stillborn and respawned.
READY_TIMEOUT = 60.0


class WorkerHandle:
    """One fleet slot: process + pipe + slab + in-flight job."""

    def __init__(self, worker_id: int, slab_handle):
        self.id = worker_id
        self.generation = 0
        self.slab_handle = slab_handle
        self.process = None
        self.conn = None
        self.reader: threading.Thread | None = None
        self.state = "starting"
        self.pid: int | None = None
        self.backend: str | None = None
        self.last_state: dict | None = None
        self.last_report: dict | None = None
        self.restarts = 0
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
                "restarts": self.restarts, "backend": self.backend,
                "pool": (self.last_state or {}).get("pool"),
                "last_app": (self.last_state or {}).get("last_app"),
                "job": job, "last_report": self.last_report}


class Fleet:
    """Spawn/supervise the worker processes behind the dispatcher."""

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
        self._ctx = multiprocessing.get_context("spawn")
        self._lock = threading.Lock()
        self._workers: dict[int, WorkerHandle] = {}
        self._shutting_down = False
        self._ready = threading.Event()
        self._tick: threading.Thread | None = None
        self.restarts_total = 0
        for worker_id in range(workers):
            slab = registry.create_slab(SLAB_FLOATS)
            self._workers[worker_id] = WorkerHandle(worker_id, slab)

    # -- lifecycle ------------------------------------------------------

    def start(self) -> "Fleet":
        for worker in self._workers.values():
            self._spawn(worker)
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
                "debug_apps": self.debug_apps,
                "env": {}}

    def _spawn(self, worker: WorkerHandle) -> None:
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=worker_entry,
            args=(child_conn, self._worker_config(worker)),
            name=f"omp4py-serve-worker-{worker.id}", daemon=True)
        worker.generation += 1
        worker.process = process
        worker.conn = parent_conn
        worker.state = "starting"
        worker.pid = None
        worker.started_at = time.monotonic()
        report = self.report_dir / f"worker-{worker.id}.json"
        if report.exists():
            report.unlink()
        process.start()
        child_conn.close()
        worker.reader = threading.Thread(
            target=self._read_loop, args=(worker, worker.generation),
            name=f"omp4py-serve-reader-{worker.id}", daemon=True)
        worker.reader.start()

    # -- pipe handling --------------------------------------------------

    def _read_loop(self, worker: WorkerHandle, generation: int) -> None:
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
                    worker.pid = message.get("pid")
                    worker.backend = message.get("backend")
                    worker.last_state = {
                        "pool": message.get("pool"),
                        "last_app": message.get("last_app")}
                    worker.state = "idle"
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
                    worker.last_state = {
                        "pool": message.get("pool"),
                        "last_app": message.get("last_app")}
            elif op == "bye":
                break
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
            worker.state = "dead"
            worker.restarts += 1
            self.restarts_total += 1
        report_path = self.report_dir / f"worker-{worker.id}.json"
        if report_path.exists():
            try:
                import json
                worker.last_report = json.loads(
                    report_path.read_text(encoding="utf-8"))
            except (OSError, ValueError):
                worker.last_report = None
        if worker.process is not None:
            worker.process.join(timeout=5)
        if doc is not None:
            self.on_crash(worker, doc, requests or [])
        with self._lock:
            if self._shutting_down:
                return
        self._spawn(worker)

    def _tick_loop(self) -> None:
        while not self._shutting_down:
            time.sleep(0.2)
            now = time.monotonic()
            victims = []
            with self._lock:
                for worker in self._workers.values():
                    if worker.state == "busy" and worker.job_deadline \
                            and now > worker.job_deadline:
                        victims.append(worker)
                    elif worker.state == "starting" and \
                            now - worker.started_at > READY_TIMEOUT:
                        victims.append(worker)
            for worker in victims:
                self.kill_worker(worker.id)

    # -- dispatch -------------------------------------------------------

    def wait_ready(self, timeout: float = READY_TIMEOUT) -> bool:
        """Block until at least one worker is idle."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.idle_workers():
                return True
            self._ready.wait(timeout=0.2)
            self._ready.clear()
        return bool(self.idle_workers())

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
        """Send one job to an acquired worker; ``False`` on a dead pipe
        (the caller's crash path will fire via the reader thread)."""
        now = time.monotonic()
        with self._lock:
            worker.job_doc = job_doc
            worker.job_requests = requests
            worker.job_started = now
            worker.job_deadline = now + (timeout or self.job_timeout)
        try:
            worker.conn.send(job_doc)
            return True
        except (OSError, ValueError, BrokenPipeError):
            return False

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
        if worker is None or worker.process is None:
            return False
        try:
            if pid:
                os.kill(pid, signal.SIGKILL)
            else:
                worker.process.terminate()
        except (ProcessLookupError, OSError):
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
            workers = list(self._workers.values())
        for worker in workers:
            try:
                worker.conn.send({"op": "shutdown"})
            except (OSError, ValueError, BrokenPipeError):
                pass
        deadline = time.monotonic() + timeout
        for worker in workers:
            if worker.process is None:
                continue
            remaining = max(0.1, deadline - time.monotonic())
            worker.process.join(timeout=remaining)
            if worker.process.is_alive():
                worker.process.kill()
                worker.process.join(timeout=5)
        for worker in workers:
            self.registry.release(worker.slab_handle.segment)
