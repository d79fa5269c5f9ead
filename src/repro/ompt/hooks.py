"""The OMPT-style tool-callback interface.

Native OpenMP runtimes expose the OMPT tools interface (OpenMP 5.x
chapter 4): a tool registers callbacks and the runtime invokes them at
well-defined execution events.  This module is the reproduction's
analogue.  A tool subclasses :class:`ToolHooks`, overrides the events it
cares about, and attaches itself with ``runtime.attach_tool(tool)``.

This is the runtime's only event channel: every instrumented site
reads one attribute (``runtime.tool``) and branches on ``None``, so a
runtime with no tool attached pays a single attribute read per event
site.  The event recorder (:class:`repro.runtime.trace.Recorder`:
the trace and the flight recorder, one event per callback), the
metrics tool, the sampler's directive markers and the hang
diagnostics' blocking records
(:class:`repro.diagnostics.state.DiagnosticsState`) are all tools;
multiple attached tools are fanned out through
:class:`ToolDispatcher`.  A callback that needs more than its
arguments (region id, parent task, call site) reads it from the
runtime it is attached to: callbacks fire on the thread concerned, so
``runtime.current_frame()`` is that thread's team and task, its
``forked`` is the team a ``parallel_begin``/``parallel_end`` is about,
and :func:`repro.runtime.trace.caller_site` names the user line.

Callback catalogue (thread numbers are team-relative, as everywhere in
the runtime):

===================  =====================================================
callback             fired when
===================  =====================================================
``thread_begin``     a runtime-managed native thread starts (fires on
                     the new thread, before its first implicit task)
``thread_end``       a runtime-managed native thread retires (pool
                     trim/shutdown)
``thread_idle``      a hot-team pool worker parks between regions
                     (``begin``) or is handed its next region (``end``)
``parallel_begin``   the encountering thread forks a team
``parallel_end``     the team joined (after the implicit barrier)
``implicit_task``    a team member starts its implicit task, arrives at
                     the join barrier, or ends the task
``loop``             a worksharing loop begins (``for_init``) or ends
                     (``for_end``, after its implicit barrier)
``work``             a worksharing unit is dispatched: one loop chunk,
                     one claimed section, or the selected single
``task_create``      an explicit task is submitted
``task_dependences`` a submitted task was deferred behind unfinished
                     predecessor tasks (fires after its ``task_create``)
``task_schedule``    an explicit task starts executing
``task_steal``       an explicit task was claimed from another thread's
                     deque (fires just before its ``task_schedule``)
``task_complete``    an explicit task's body returned (fires before
                     its waiters and successors are released)
``sync_region``      barrier/taskwait/ordered/dependence/copyprivate
                     enter and release; the release carries the
                     measured wait time in seconds
``wait``             brackets every blocking call inside the two rows
                     around it: the thread is about to sleep on an
                     object (``begin``) or woke up again (``end``)
``mutex_acquire``    a mutex was *not* immediately available and the
                     thread is about to block on it
``mutex_acquired``   a mutex was obtained (wait time is 0.0 for
                     uncontended acquisitions)
``mutex_released``   the owner is dropping a mutex (fires just before
                     the unlock)
``plan``             inspector–executor plan activity: a plan was
                     built, served from the plan cache, or executed
                     (see :mod:`repro.plan`)
===================  =====================================================
"""

from __future__ import annotations


class ToolHooks:
    """Base tool: every callback is a no-op.  Subclass and override.

    Callbacks run inline on runtime threads, inside parallel regions:
    implementations must be thread-safe, must not raise, and should be
    cheap — a slow callback stalls the thread that fired it.
    """

    # -- native threads ---------------------------------------------------

    def thread_begin(self, ttype: str, ident: int) -> None:
        """A runtime-managed native thread started.

        ``ttype`` is ``"pool-worker"`` (a hot-team pool member);
        ``ident`` is the native ``threading.get_ident()`` value.  Fires
        on the new thread.
        """

    def thread_end(self, ttype: str, ident: int) -> None:
        """A runtime-managed native thread retired (idle trim or pool
        shutdown)."""

    def thread_idle(self, ident: int, endpoint: str) -> None:
        """A pool worker parked between regions (``endpoint ==
        "begin"``) or was handed its next region's implicit task
        (``"end"`` — one fire per pool reuse)."""

    # -- parallel regions -------------------------------------------------

    def parallel_begin(self, thread: int, team_size: int) -> None:
        """The encountering thread is about to fork a team."""

    def parallel_end(self, thread: int, team_size: int) -> None:
        """The team joined and the region's results are visible."""

    def implicit_task(self, thread: int, endpoint: str,
                      team_size: int) -> None:
        """A team member begins/ends its implicit task.

        ``endpoint`` is ``"begin"``, ``"join"`` (the body returned and
        the member arrives at the region's join barrier) or ``"end"``
        (the join barrier released it).
        """

    # -- worksharing ------------------------------------------------------

    def loop(self, thread: int, endpoint: str) -> None:
        """``thread`` starts a worksharing loop (``endpoint ==
        "begin"``, fired by ``for_init``) or leaves it (``"end"``,
        fired by ``for_end`` after the loop's implicit barrier)."""

    def work(self, thread: int, wstype: str, low: int, high: int) -> None:
        """One worksharing unit was handed to ``thread``.

        ``wstype`` is ``"loop"`` (``low``/``high`` bound the dispatched
        chunk), ``"sections"`` (``low`` is the claimed section index,
        ``high == low + 1``) or ``"single"`` (``(0, 1)``).
        """

    # -- tasking ----------------------------------------------------------

    def task_create(self, thread: int, task_id: int) -> None:
        """An explicit task was submitted by ``thread``."""

    def task_dependences(self, thread: int, task_id: int,
                         predecessors) -> None:
        """The task ``thread`` just submitted is deferred until every
        task in ``predecessors`` completes.

        ``predecessors`` holds the runtime's task objects: ``id()`` of
        one is the ``task_id`` the other task callbacks carry, and its
        ``done`` attribute tells whether it has completed since.  Not
        fired for a task without ``depend`` predecessors, nor for an
        undeferred (``if(false)``) one, whose encountering thread
        waits in a ``"dependence"`` sync region instead.
        """

    def task_schedule(self, thread: int, task_id: int) -> None:
        """An explicit task begins execution on ``thread``."""

    def task_steal(self, thread: int, task_id: int, victim: int) -> None:
        """``thread`` stole a task from ``victim``'s deque.

        Fires on the thief, immediately before the task's
        ``task_schedule``; tasks popped from the executing thread's own
        deque (or claimed directly at a taskwait) never fire it.
        """

    def task_complete(self, thread: int, task_id: int) -> None:
        """An explicit task finished on ``thread``."""

    # -- synchronization --------------------------------------------------

    def sync_region(self, thread: int, kind: str, endpoint: str,
                    wait_time: float | None) -> None:
        """Boundary of a construct that waits for other threads.

        ``kind`` is ``"barrier"``, ``"taskwait"``, ``"ordered"`` (the
        wait for an iteration's turn in an ``ordered`` region),
        ``"dependence"`` (an undeferred task's encountering thread
        waiting for the task's ``depend`` predecessors) or
        ``"copyprivate"`` (a ``single copyprivate`` receiver waiting
        for the broadcast); ``endpoint`` is ``"enter"`` (``wait_time
        is None``) or ``"release"`` (``wait_time`` is the seconds spent
        inside, including any tasks executed while waiting).  The join
        barrier of a region is reported by ``implicit_task`` instead.
        """

    def wait(self, thread: int, endpoint: str, target) -> None:
        """``thread`` is about to block (``endpoint == "begin"``) or
        has just woken up (``"end"``).

        Fires in pairs on the blocking thread, inside a sync region, a
        region's join barrier or a contended ``mutex_acquire``, around
        each single blocking call — a waiter that is busy executing
        tasks or re-checking its predicate is between pairs.
        ``target`` is the runtime object slept on: the team's
        ``Barrier``, the list of incomplete child tasks (taskwait),
        the predecessor task (dependence), the loop's ``LoopSlot``
        (ordered), the ``SharedSlot`` (copyprivate) or the mutex.
        """

    def mutex_acquire(self, thread: int, kind: str, handle) -> None:
        """``thread`` is about to block on a contended mutex.

        ``kind`` is ``"critical"``, ``"atomic"``, ``"lock"`` or
        ``"nest_lock"``; ``handle`` identifies the mutex instance (the
        critical section name or the lock object's id).
        """

    def mutex_acquired(self, thread: int, kind: str, handle,
                       wait_time: float) -> None:
        """``thread`` obtained the mutex after ``wait_time`` seconds
        (0.0 when the acquisition was uncontended)."""

    def mutex_released(self, thread: int, kind: str, handle) -> None:
        """``thread`` is releasing the mutex.  Fires before the unlock,
        so every tool sees a release ahead of the next owner's
        ``mutex_acquired``."""

    # -- inspector–executor plans -----------------------------------------

    def plan(self, thread: int, event: str, payload: dict) -> None:
        """Inspector–executor plan activity (:mod:`repro.plan`).

        ``event`` is ``"build"`` (the inspector ran), ``"cache_hit"``
        (an existing plan was served for the same (map, partition
        size)), or ``"execute"`` (a plan ran color-by-color).
        ``payload`` carries ``source`` (the map name),
        ``partition_size``, ``partitions``, ``colors``,
        ``conflict_edges`` and, for executions, ``threads``.
        """


#: Every dispatchable callback name, in catalogue order.
CALLBACK_NAMES = ("thread_begin", "thread_end", "thread_idle",
                  "parallel_begin", "parallel_end", "implicit_task",
                  "loop", "work", "task_create", "task_dependences",
                  "task_schedule", "task_steal", "task_complete",
                  "sync_region", "wait", "mutex_acquire",
                  "mutex_acquired", "mutex_released", "plan")


class ToolDispatcher(ToolHooks):
    """Fans every callback out to the attached tools that implement it.

    Built by :meth:`repro.runtime.engine.OmpRuntime.attach_tool` when
    more than one tool is attached; a single tool is bound directly so
    the common case has no indirection.  The fan-outs are derived from
    :data:`CALLBACK_NAMES` — a callback in the catalogue cannot be
    missing here — and skip the tools that inherit the no-op, so a tool
    pays nothing for the events it ignores.  Callbacks are dispatched
    positionally, as the runtime calls them.
    """

    def __init__(self, tools):
        self.tools = tuple(tools)
        for name in CALLBACK_NAMES:
            ignored = getattr(ToolHooks, name)
            bound = [getattr(tool, name) for tool in self.tools]
            setattr(self, name, _fan_out([
                callback for callback in bound
                if getattr(callback, "__func__", None) is not ignored]))


def _fan_out(callbacks):
    def dispatch(*args):
        for callback in callbacks:
            callback(*args)
    return dispatch
