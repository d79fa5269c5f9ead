"""OpenMP lock API objects (simple and nestable locks) and the one
observed mutex acquire/release every mutex construct shares.

``omp_init_lock``/``omp_init_nest_lock`` return these objects; the rest
of the lock API operates on them.  A nestable lock may be re-acquired by
its owner; ``omp_test_nest_lock`` returns the new nesting count, per the
OpenMP specification.

``critical``, ``atomic``, :class:`OmpLock` and :class:`OmpNestLock` all
take and drop their mutex through :func:`acquire` / :func:`release`,
which dispatch the ``mutex_acquire``/``mutex_acquired``/
``mutex_released`` tool callbacks (:mod:`repro.ompt.hooks`) — the hang
diagnostics' ownership and block records
(:mod:`repro.diagnostics.state`) are one consumer of them; with no tool
attached they cost one attribute read.
"""

from __future__ import annotations

import threading
import time

from repro.errors import OmpRuntimeError
from repro.runtime.team import park


def acquire(runtime, lock, kind: str, handle,
            blocking: bool = True) -> bool:
    """Take ``lock`` for the ``kind`` construct named ``handle``.

    The contended path (``mutex_acquire``, a timed blocking acquire)
    only runs when a non-blocking attempt fails; ``mutex_acquire`` fires
    *before* the thread blocks, so a tool sees it as waiting on
    ``handle`` for as long as it sleeps.  ``blocking=False`` is the
    ``omp_test_lock`` form: a failed attempt returns ``False`` and
    reports nothing.
    """
    tool = runtime.tool
    if tool is None:
        return lock.acquire(blocking)
    thread = runtime.get_thread_num()
    wait = 0.0
    if not lock.acquire(blocking=False):
        if not blocking:
            return False
        tool.mutex_acquire(thread, kind, handle)
        begin = time.perf_counter()
        park(tool, thread, lock, lock.acquire)
        wait = time.perf_counter() - begin
    tool.mutex_acquired(thread, kind, handle, wait)
    return True


def release(runtime, lock, kind: str, handle) -> None:
    """Drop ``lock``.  ``mutex_released`` fires *before* the unlock, so
    a tool tracking ownership has forgotten this owner by the time a
    racing acquirer can announce itself."""
    tool = runtime.tool
    if tool is not None:
        tool.mutex_released(runtime.get_thread_num(), kind, handle)
    lock.release()


class OmpLock:
    """A simple OpenMP lock."""

    __slots__ = ("_lock", "_destroyed", "_runtime")

    def __init__(self, lowlevel, runtime):
        self._lock = lowlevel.make_mutex()
        self._destroyed = False
        self._runtime = runtime

    def _check(self) -> None:
        if self._destroyed:
            raise OmpRuntimeError("lock used after omp_destroy_lock")

    def set(self) -> None:
        self._check()
        acquire(self._runtime, self._lock, "lock", id(self))

    def unset(self) -> None:
        self._check()
        release(self._runtime, self._lock, "lock", id(self))

    def test(self) -> bool:
        self._check()
        return acquire(self._runtime, self._lock, "lock", id(self),
                       blocking=False)

    def destroy(self) -> None:
        self._destroyed = True


class OmpNestLock:
    """A nestable OpenMP lock (owner may re-acquire)."""

    __slots__ = ("_lock", "_owner", "_count", "_destroyed", "_guard",
                 "_runtime")

    def __init__(self, lowlevel, runtime):
        self._lock = lowlevel.make_mutex()
        self._guard = threading.Lock()
        self._owner = None
        self._count = 0
        self._destroyed = False
        self._runtime = runtime

    def _check(self) -> None:
        if self._destroyed:
            raise OmpRuntimeError("lock used after omp_destroy_nest_lock")

    def _take(self, blocking: bool) -> int:
        """Acquire (or, non-blocking, try to); the new nesting count,
        0 when a non-blocking attempt found the lock held."""
        self._check()
        me = threading.get_ident()
        with self._guard:
            if self._owner == me:
                self._count += 1
                tool = self._runtime.tool
                if tool is not None:
                    tool.mutex_acquired(self._runtime.get_thread_num(),
                                        "nest_lock", id(self), 0.0)
                return self._count
        if not acquire(self._runtime, self._lock, "nest_lock",
                       id(self), blocking):
            return 0
        with self._guard:
            self._owner = me
            self._count = 1
        return 1

    def set(self) -> None:
        self._take(True)

    def unset(self) -> None:
        self._check()
        me = threading.get_ident()
        with self._guard:
            if self._owner != me or self._count == 0:
                raise OmpRuntimeError(
                    "omp_unset_nest_lock by a thread that does not own it")
            self._count -= 1
            if self._count == 0:
                self._owner = None
                release(self._runtime, self._lock, "nest_lock", id(self))

    def test(self) -> int:
        """Acquire if possible; return the new nesting count, else 0."""
        return self._take(False)

    def destroy(self) -> None:
        self._destroyed = True
