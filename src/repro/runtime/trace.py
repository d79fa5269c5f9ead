"""Runtime event tracing.

When started, the tracer records a timestamped event per interesting
transition — region fork/join, loop chunk dispatch, task lifecycle,
barrier arrival/release — into a bounded in-memory buffer.  The tracer
answers the questions the paper's figures raise ("which thread got the
hub nodes?", "how many chunks did dynamic hand out?") and gives the
test suite a precise view of scheduling decisions.

The tracer is a tool (:class:`repro.ompt.hooks.ToolHooks`):
``start()`` attaches it to its runtime, ``stop()`` detaches it, and
every event is one tool callback translated into a
:class:`TraceEvent`.  A stopped tracer costs the runtime nothing.
"""

from __future__ import annotations

import dataclasses
import os
import sys
import threading
import time

from repro.ompt.hooks import ToolHooks

#: The installed package root (``.../repro``): frames inside it are
#: runtime internals, never the user site a trace event should name.
_PACKAGE_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def caller_site() -> tuple[str, int]:
    """``(filename, lineno)`` of the nearest non-runtime caller frame.

    Walks outward until it leaves the ``repro`` package, so the result
    is the generated ``<omp4py:...>`` frame (resolvable to user
    coordinates via :mod:`repro.diagnostics.origin`) or the user script
    that called the runtime API directly.  It works from inside a tool
    callback (the dispatch frames are package frames too), which is
    where it is called: a runtime with no tool attached never pays for
    the frame walk.
    """
    try:
        frame = sys._getframe(1)
    except ValueError:  # pragma: no cover - no caller frame
        return "", 0
    while frame is not None:
        filename = frame.f_code.co_filename
        if not filename.startswith(_PACKAGE_DIR):
            return filename, frame.f_lineno
        frame = frame.f_back
    return "", 0


@dataclasses.dataclass(frozen=True)
class TraceEvent:
    """One runtime event.

    ``kind`` is one of:

    * ``region_fork`` (detail: team size, region id, caller file, line)
      / ``region_join`` (team size, region id);
    * ``itask_begin`` / ``itask_end`` (region id) — one pair per team
      member, bracketing the member's implicit task;
    * ``join_enter`` (region id) — a member arriving at the implicit
      join barrier (``itask_end`` doubles as its release);
    * ``chunk`` (low, high);
    * ``task_submit`` (task id, parent task id — 0 for an implicit
      parent — caller file, line), ``task_steal`` (task id and the
      victim thread the task was stolen from), ``task_start``,
      ``task_finish`` (task id);
    * ``barrier_enter`` (region id, caller file, line) /
      ``barrier_release`` (measured wait seconds, region id);
    * ``taskwait_enter`` (parent task id) / ``taskwait_release``
      (wait seconds, parent task id);
    * ``mutex_acquired`` (mutex kind, handle, wait seconds, caller
      file, line) / ``mutex_released`` (mutex kind, handle);
    * ``ordered_wait`` (wait seconds, caller file, line);
    * ``plan_execute`` (plan source, partitions, colors, conflict
      edges, caller file, line) — one inspector–executor plan
      execution (:mod:`repro.plan`), recorded by team thread 0.

    Older traces may carry shorter detail tuples; consumers index from
    the front and treat missing entries as absent.
    """

    timestamp: float
    kind: str
    thread: int
    detail: tuple


class TraceLog(list):
    """An event list that knows how many events were dropped.

    ``Tracer.stop()``/``events()`` return this so overflow is never
    silently swallowed: consumers that treat the result as a plain list
    keep working, and consumers that care (the Chrome exporter, the
    profile and explain CLIs' truncation warnings) read ``.dropped``.  ``.anchor`` carries the epoch anchor captured at
    ``Tracer.start()`` — ``(unix seconds, perf_counter seconds)`` at
    the same instant — so monotonic trace timestamps from separate
    runs/processes can be aligned on one wall-clock timeline.
    """

    __slots__ = ("dropped", "anchor")

    def __init__(self, events=(), dropped: int = 0,
                 anchor: tuple[float, float] | None = None):
        super().__init__(events)
        self.dropped = dropped
        self.anchor = anchor


#: ``implicit_task`` endpoint -> trace event kind.
_IMPLICIT_TASK_KINDS = {"begin": "itask_begin", "join": "join_enter",
                        "end": "itask_end"}


class Tracer(ToolHooks):
    """Bounded, thread-safe event buffer, fed by tool callbacks.

    ``runtime`` is the runtime ``start()`` attaches to; a standalone
    ``Tracer()`` only buffers what :meth:`record` is handed.
    """

    def __init__(self, capacity: int = 100_000, runtime=None):
        self.capacity = capacity
        self.runtime = runtime
        self._lock = threading.Lock()
        self._events: list[TraceEvent] = []
        self.enabled = False
        self.dropped = 0
        #: ``(time.time(), time.perf_counter())`` sampled at the last
        #: ``start()`` — the monotonic→unix offset for this recording.
        self.anchor: tuple[float, float] | None = None

    # -- control --------------------------------------------------------

    def start(self) -> None:
        with self._lock:
            self._events.clear()
            self.dropped = 0
            self.anchor = (time.time(), time.perf_counter())
            self.enabled = True
        if self.runtime is not None:
            self.runtime.attach_tool(self)

    def stop(self) -> TraceLog:
        if self.runtime is not None:
            self.runtime.detach_tool(self)
        with self._lock:
            self.enabled = False
            return TraceLog(self._events, self.dropped, self.anchor)

    def events(self) -> TraceLog:
        with self._lock:
            return TraceLog(self._events, self.dropped, self.anchor)

    # -- recording -------------------------------------------------------

    def record(self, kind: str, thread: int, *detail) -> None:
        if not self.enabled:
            return
        event = TraceEvent(time.perf_counter(), kind, thread,
                           tuple(detail))
        with self._lock:
            if len(self._events) < self.capacity:
                self._events.append(event)
            else:
                self.dropped += 1

    # -- tool callbacks: one TraceEvent each -----------------------------
    # What a callback does not carry comes from the thread's own frame.

    def parallel_begin(self, thread, team_size):
        self.record("region_fork", thread, team_size,
                    self.runtime.current_frame().forked.region_id,
                    *caller_site())

    def parallel_end(self, thread, team_size):
        self.record("region_join", thread, team_size,
                    self.runtime.current_frame().forked.region_id)

    def implicit_task(self, thread, endpoint, team_size):
        self.record(_IMPLICIT_TASK_KINDS[endpoint], thread,
                    self.runtime.current_frame().team.region_id)

    def work(self, thread, wstype, low, high):
        if wstype == "loop":
            self.record("chunk", thread, low, high)

    def task_create(self, thread, task_id):
        self.record("task_submit", thread, task_id,
                    self.runtime.current_frame().task_id, *caller_site())

    def task_schedule(self, thread, task_id):
        self.record("task_start", thread, task_id)

    def task_steal(self, thread, task_id, victim):
        self.record("task_steal", thread, task_id, victim)

    def task_complete(self, thread, task_id):
        self.record("task_finish", thread, task_id)

    def sync_region(self, thread, kind, endpoint, wait_time):
        frame = self.runtime.current_frame()
        if kind == "barrier":
            if endpoint == "enter":
                self.record("barrier_enter", thread,
                            frame.team.region_id, *caller_site())
            else:
                self.record("barrier_release", thread, wait_time,
                            frame.team.region_id)
        elif kind == "taskwait":
            if endpoint == "enter":
                self.record("taskwait_enter", thread, frame.task_id)
            else:
                self.record("taskwait_release", thread, wait_time,
                            frame.task_id)
        elif kind == "ordered" and endpoint == "release":
            self.record("ordered_wait", thread, wait_time,
                        *caller_site())
        # "dependence" and "copyprivate" waits have no TraceEvent kind.

    def mutex_acquired(self, thread, kind, handle, wait_time):
        self.record("mutex_acquired", thread, kind, handle, wait_time,
                    *caller_site())

    def mutex_released(self, thread, kind, handle):
        self.record("mutex_released", thread, kind, handle)

    def plan(self, thread, event, payload):
        if event == "execute":
            self.record("plan_execute", thread, payload["source"],
                        payload["partitions"], payload["colors"],
                        payload["conflict_edges"], *caller_site())

