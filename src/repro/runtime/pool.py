"""Persistent hot-team worker pool.

Real OpenMP runtimes keep their teams *hot*: the native threads that
served one parallel region park on a futex and are handed the next
region's implicit tasks without a pthread_create in between.  This
module is the reproduction's analogue: every team larger than one that
``engine.parallel_run`` forks gets its helpers from here, so a region
costs a dispatch, not a ``threading.Thread`` per member (the overhead
the OMP4Py preprint flags for fine-grained regions).

Design, in the same event-driven idiom as the PR 3 barrier:

* Each worker owns a private ``threading.Event`` (its *wake*) and
  parks on it between regions.  ``OMP_WAIT_POLICY=active`` spins
  briefly before parking; ``passive`` (default) parks immediately.
* ``run_helpers`` hands each reused worker a ``(member, index,
  ticket)`` job under the pool lock and sets its wake; the shortfall
  is covered by spawning new workers that start directly on a job.
* A worker finishing a region re-registers itself on the idle list
  *before* signalling the region ticket, so a master that forks the
  next region immediately always finds its helpers idle — back-to-back
  regions reuse instead of growing the pool.
* A worker whose wake stays unset for ``OMP4PY_POOL_IDLE_TIMEOUT``
  seconds removes itself from the idle list and retires (the *trim*),
  so bursty programs do not hold threads forever.
* Parked workers hold **no** runtime locks and emit **no** ``wait``
  or sync event, so the hang diagnostics keep no blocking record for
  them: they are invisible to the wait-for graph and the stall
  watchdog by construction, exactly like an idle thread in a native
  runtime's thread pool.

The pool is per-runtime (``runtime`` and ``cruntime`` each own one,
created lazily) and shared by every team the runtime forks, including
nested and externally-concurrent ones — ``run_helpers`` is safe to
call from any number of master threads at once.
"""

from __future__ import annotations

import threading
import time

from repro import env

#: Seconds ``OMP_WAIT_POLICY=active`` spins before parking on an event.
ACTIVE_SPIN_S = 0.001

#: Job sentinel telling a parked worker to retire (pool shutdown).
_RETIRE = object()


class _RegionTicket:
    """Join handle for one region's pool-served helpers.

    The master waits on ``done`` instead of ``Thread.join``; helpers
    call :meth:`member_done` after re-registering as idle.
    """

    __slots__ = ("_remaining", "_lock", "done")

    def __init__(self, count: int) -> None:
        self._remaining = count
        self._lock = threading.Lock()
        self.done = threading.Event()

    def member_done(self) -> None:
        with self._lock:
            self._remaining -= 1
            last = self._remaining == 0
        if last:
            self.done.set()


class _PoolWorker:
    """One parked-or-running pool thread: its wake event and job slot."""

    __slots__ = ("wake", "job", "thread")

    def __init__(self) -> None:
        self.wake = threading.Event()
        #: ``(member, index, ticket)`` set by the dispatcher before the
        #: wake, ``_RETIRE`` at shutdown, ``None`` while parked.
        self.job = None
        self.thread: threading.Thread | None = None


class WorkerPool:
    """Hot-team pool of one runtime's region helper threads."""

    def __init__(self, runtime, *, idle_timeout: float | None = None,
                 wait_policy: str | None = None) -> None:
        self.runtime = runtime
        self.idle_timeout = (idle_timeout if idle_timeout is not None
                             else env.pool_idle_timeout())
        self.wait_policy = (wait_policy if wait_policy is not None
                            else getattr(runtime, "_wait_policy",
                                         "passive"))
        #: The runtime's execution backend, surfaced in ``snapshot()``
        #: so doctor/``omp_display_env`` output shows whether these
        #: workers genuinely overlap (nogil) or interleave (gil).  The
        #: pool mechanics are backend-independent: parked workers hold
        #: no locks either way, and on a free-threaded interpreter the
        #: same dispatch path yields true parallelism unchanged.
        backend = getattr(runtime, "backend", None)
        self.backend = (backend.value if backend is not None
                        else "gil")
        self._lock = threading.Lock()
        self._idle: list[_PoolWorker] = []
        self._workers: list[_PoolWorker] = []
        self._serial = 0
        #: Lifetime accounting, mutated under :attr:`_lock`; surfaced
        #: through ``snapshot()`` → doctor/``omp_display_env`` verbose.
        self.spawned_total = 0
        self.reused_total = 0
        self.trimmed_total = 0

    # ------------------------------------------------------------------
    # Master side

    def run_helpers(self, member, count: int) -> _RegionTicket | None:
        """Dispatch ``member(1..count)`` onto pool workers.

        Idle workers are reused first; the shortfall is covered by
        spawning.  Returns the ticket :meth:`wait` joins on, or ``None``
        when ``count`` is zero.
        """
        if count <= 0:
            return None
        ticket = _RegionTicket(count)
        reused: list[_PoolWorker] = []
        spawned: list[_PoolWorker] = []
        with self._lock:
            index = 1
            while self._idle and index <= count:
                worker = self._idle.pop()
                worker.job = (member, index, ticket)
                reused.append(worker)
                index += 1
            self.reused_total += len(reused)
            while index <= count:
                worker = _PoolWorker()
                worker.job = (member, index, ticket)
                worker.thread = threading.Thread(
                    target=self._worker_loop, args=(worker,),
                    name=(f"omp-{self.runtime.name}-pool-"
                          f"{self._serial}"),
                    daemon=True)
                self._serial += 1
                self._workers.append(worker)
                spawned.append(worker)
                index += 1
            self.spawned_total += len(spawned)
        for worker in reused:
            worker.wake.set()
        for worker in spawned:
            worker.thread.start()
        return ticket

    def wait(self, ticket: _RegionTicket | None) -> None:
        """Join one region: block until every helper signalled done."""
        if ticket is None:
            return
        done = ticket.done
        if self.wait_policy == "active" and not done.is_set():
            deadline = time.monotonic() + ACTIVE_SPIN_S
            while not done.is_set() and time.monotonic() < deadline:
                time.sleep(0)
        done.wait()

    # ------------------------------------------------------------------
    # Worker side

    def _worker_loop(self, worker: _PoolWorker) -> None:
        runtime = self.runtime
        ident = threading.get_ident()
        tool = runtime.tool
        if tool is not None:
            tool.thread_begin("pool-worker", ident)
        job = worker.job
        worker.job = None
        while job is not None and job is not _RETIRE:
            member, index, ticket = job
            try:
                member(index)
            except BaseException:  # noqa: BLE001 - member() reports its
                pass               # own errors through the team record
            finally:
                # Idle-register BEFORE signalling done: a master forking
                # the next region the instant wait() returns must find
                # this worker reusable, or back-to-back regions would
                # grow the pool without bound.
                with self._lock:
                    self._idle.append(worker)
                tool = runtime.tool
                if tool is not None:
                    tool.thread_idle(ident, "begin")
                ticket.member_done()
            job = self._await_work(worker)
        with self._lock:
            if worker in self._workers:
                self._workers.remove(worker)
        tool = runtime.tool
        if tool is not None:
            tool.thread_end("pool-worker", ident)

    def _await_work(self, worker: _PoolWorker):
        """Park until dispatched, trimmed, or retired.

        Returns the next job, or ``None`` when the idle timeout elapsed
        and this worker removed itself from the idle list (the trim).
        """
        wake = worker.wake
        if self.wait_policy == "active" and not wake.is_set():
            deadline = time.monotonic() + ACTIVE_SPIN_S
            while not wake.is_set() and time.monotonic() < deadline:
                time.sleep(0)
        while not wake.wait(timeout=self.idle_timeout):
            with self._lock:
                if worker in self._idle:
                    self._idle.remove(worker)
                    self.trimmed_total += 1
                    return None
            # Lost the race with a dispatcher that already popped us:
            # the job is assigned and the wake set is imminent — loop.
        wake.clear()
        job = worker.job
        worker.job = None
        if job is not None and job is not _RETIRE:
            tool = self.runtime.tool
            if tool is not None:
                tool.thread_idle(threading.get_ident(), "end")
        return job

    # ------------------------------------------------------------------
    # Introspection / lifecycle

    def size(self) -> int:
        """Live pool workers (parked or running a member)."""
        with self._lock:
            return len(self._workers)

    def idle_count(self) -> int:
        with self._lock:
            return len(self._idle)

    def snapshot(self) -> dict:
        """Pool state for the doctor / verbose ``omp_display_env``."""
        with self._lock:
            return {"workers": len(self._workers),
                    "idle": len(self._idle),
                    "spawned": self.spawned_total,
                    "reused": self.reused_total,
                    "trimmed": self.trimmed_total,
                    "wait_policy": self.wait_policy,
                    "idle_timeout": self.idle_timeout,
                    "backend": self.backend}

    def shutdown(self, timeout: float = 5.0) -> None:
        """Retire every parked worker and join its thread.

        Only workers currently idle are retired — call between regions
        (there are no busy workers then).  The pool stays usable; the
        next region simply spawns fresh workers.
        """
        with self._lock:
            parked = list(self._idle)
            self._idle.clear()
            for worker in parked:
                worker.job = _RETIRE
        for worker in parked:
            worker.wake.set()
        for worker in parked:
            if worker.thread is not None:
                worker.thread.join(timeout)
