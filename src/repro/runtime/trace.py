"""The event recorder: one tool, one event vocabulary, two retentions.

A :class:`Recorder` is a tool (:class:`repro.ompt.hooks.ToolHooks`)
that turns every callback into one event and appends it to a ring
owned by the thread that fired it.  A ring has one writer, so
recording takes no lock; a thread gets a new ring for each lifetime,
so a native ident the OS hands out again never mixes two threads'
events.  The recorder's retention decides what a full ring does:

* ``keep="first"`` keeps the first ``capacity`` events of each thread
  and counts the rest as dropped — the runtime's trace
  (``runtime.tracer``), read back merged by timestamp through
  :meth:`Recorder.events` by the Chrome exporter and the explain DAG;
* ``keep="last"`` keeps the last ``capacity`` events of each thread —
  the flight recorder :mod:`repro.arming` flies for the watchdog and
  ``repro.doctor``, read back per thread through :meth:`Recorder.dump`
  and :meth:`Recorder.format_text`.

``start()`` attaches the recorder to its runtime and ``stop()``
detaches it: a stopped recorder costs the runtime nothing.
"""

from __future__ import annotations

import collections
import os
import sys
import threading
import time

from repro.ompt.hooks import ToolHooks

#: The installed package root (``.../repro``): frames inside it are
#: runtime internals, never the user site an event should name.
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


class TraceEvent(collections.namedtuple(
        "TraceEvent", "timestamp kind thread detail")):
    """One recorded event: ``thread`` is the team-relative thread that
    fired the callback, ``detail`` what follows it.

    The ``kind`` is the callback's name (:mod:`repro.ompt.hooks`), with
    the endpoint appended where the callback has one.  In the layouts
    below *site* is the file and line :func:`caller_site` names,
    *region* the team's region id, *task* the current task's id (0 for
    an implicit task):

    * ``thread_begin`` / ``thread_end`` (thread type) and
      ``idle_begin`` / ``idle_end`` (nothing) — a pool worker's start,
      retirement and parking.  They have no team thread, so
      :meth:`Recorder.dump` shows them and :meth:`Recorder.events`
      does not;
    * ``parallel_begin`` (team size, region, site) / ``parallel_end``
      (team size, region);
    * ``implicit_task`` (``"begin"``, ``"join"`` or ``"end"``, region)
      — per team member; the join is its arrival at the join barrier,
      the end its release;
    * ``loop_begin`` / ``loop_end`` (nothing);
    * ``work`` (``"loop"``, ``"sections"`` or ``"single"``, low, high)
      — one chunk, claimed section or selected single;
    * ``task_create`` (task id, parent task id, site), ``task_deferred``
      (task id, predecessor task ids), ``task_steal`` (task id, victim
      thread), ``task_start``, ``task_finish`` (task id);
    * ``barrier_enter`` / ``barrier_release``, ``taskwait_enter`` /
      ``taskwait_release``, ``ordered_enter`` / ``ordered_release``,
      ``dependence_enter`` / ``dependence_release``,
      ``copyprivate_enter`` / ``copyprivate_release`` (wait seconds,
      None on enter; region, task, site);
    * ``wait_begin`` / ``wait_end`` (target type name and id, or
      ``"tasks"`` and the awaited task ids) — one blocking call;
    * ``mutex_wait`` (mutex kind, handle) — about to block on it;
      ``mutex_acquired`` (mutex kind, handle, wait seconds, site);
      ``mutex_released`` (mutex kind, handle);
    * ``plan`` (``"build"``, ``"cache_hit"`` or ``"execute"``, plan
      source, partitions, colors, conflict edges, site).
    """

    __slots__ = ()


#: Kinds a timeline reader draws (besides loop ``work`` and executed
#: ``plan``s): :func:`on_timeline`.
_TIMELINE_KINDS = frozenset({
    "parallel_begin", "parallel_end", "implicit_task", "task_create",
    "task_start", "task_steal", "task_finish", "barrier_enter",
    "barrier_release", "taskwait_enter", "taskwait_release",
    "ordered_release", "mutex_acquired", "mutex_released"})


def on_timeline(event: TraceEvent) -> bool:
    """Whether a timeline reader (the Chrome exporter, the explain DAG)
    draws ``event``: regions, implicit tasks, loop chunks, tasks,
    barriers, taskwaits, ordered waits, mutex ownership and plan
    executions.  The rest lies inside the intervals these bound —
    sleeps, loop brackets, blocking announcements, section and single
    claims, plan builds — and is there for the flight record: as a
    program-order point in the DAG it would split a wait edge and read
    the sleep in it as compute.
    """
    if event.kind == "work":
        return event.detail[0] == "loop"
    if event.kind == "plan":
        return event.detail[0] == "execute"
    return event.kind in _TIMELINE_KINDS


class TraceLog(list):
    """An event list that knows how many events were dropped.

    ``Recorder.stop()``/``events()`` return this so overflow is never
    silently swallowed: consumers that treat the result as a plain list
    keep working, and consumers that care (the Chrome exporter, the
    profile and explain CLIs' truncation warnings) read ``.dropped``.
    ``.anchor`` carries the epoch anchor captured at ``start()`` —
    ``(unix seconds, perf_counter seconds)`` at the same instant — so
    monotonic timestamps from separate runs/processes can be aligned
    on one wall-clock timeline.
    """

    __slots__ = ("dropped", "anchor")

    def __init__(self, events=(), dropped: int = 0,
                 anchor: tuple[float, float] | None = None):
        super().__init__(events)
        self.dropped = dropped
        self.anchor = anchor


class _Ring:
    """One thread's events: ``(timestamp, kind, thread, detail)``."""

    __slots__ = ("events", "count", "capacity", "ident", "name")

    def __init__(self, capacity: int):
        self.events: list[tuple] = []
        #: Events recorded, kept or not.
        self.count = 0
        self.capacity = capacity
        self.ident = threading.get_ident()
        self.name = threading.current_thread().name


class Recorder(ToolHooks):
    """Per-thread event rings fed by tool callbacks.

    ``capacity`` bounds each thread's ring; ``keep`` is ``"first"`` (a
    trace: later events are dropped) or ``"last"`` (a flight recorder:
    older events are overwritten).  ``runtime`` is what ``start()``
    attaches to and what callbacks read region and task ids from.
    """

    def __init__(self, capacity: int = 100_000, keep: str = "first",
                 runtime=None):
        if capacity < 1:
            raise ValueError("recorder capacity must be >= 1")
        if keep not in ("first", "last"):
            raise ValueError(f"keep must be 'first' or 'last', not {keep!r}")
        self.capacity = capacity
        self.keep = keep
        self.runtime = runtime
        self.enabled = False
        #: ``(time.time(), time.perf_counter())`` sampled at the last
        #: ``start()`` — the monotonic→unix offset for this recording.
        self.anchor: tuple[float, float] | None = None
        self._local = threading.local()
        self._rings: list[_Ring] = []

    # -- control --------------------------------------------------------

    def start(self) -> None:
        """Forget every ring and record from now on."""
        self._local = threading.local()
        self._rings = []
        self.anchor = (time.time(), time.perf_counter())
        self.enabled = True
        if self.runtime is not None:
            self.runtime.attach_tool(self)

    def stop(self) -> TraceLog:
        if self.runtime is not None:
            self.runtime.detach_tool(self)
        self.enabled = False
        return self.events()

    @property
    def dropped(self) -> int:
        return sum(max(0, ring.count - ring.capacity)
                   for ring in self._rings)

    def events(self) -> TraceLog:
        """Every ring's team events merged by timestamp."""
        merged = sorted((event for ring in list(self._rings)
                         for event in self._snapshot(ring)
                         if event[2] is not None),
                        key=lambda event: event[0])
        return TraceLog(map(TraceEvent._make, merged), self.dropped,
                        self.anchor)

    # -- recording: the one path every callback takes ---------------------

    def record(self, kind: str, thread: int | None, *detail) -> None:
        """Append one event to the calling thread's ring (``thread`` is
        ``None`` for an event with no team thread)."""
        if not self.enabled:
            return
        try:
            ring = self._local.ring
        except AttributeError:
            ring = self._local.ring = _Ring(self.capacity)
            self._rings.append(ring)
        count = ring.count
        ring.count = count + 1
        event = (time.perf_counter(), kind, thread, detail)
        if count < ring.capacity:
            ring.events.append(event)
        elif self.keep == "last":
            ring.events[count % ring.capacity] = event

    # -- tool callbacks: one event each -----------------------------------
    # What a callback does not carry comes from the thread's own frame.

    def thread_begin(self, ttype, ident):
        self.record("thread_begin", None, ttype)

    def thread_end(self, ttype, ident):
        self.record("thread_end", None, ttype)

    def thread_idle(self, ident, endpoint):
        # "idle_begin" as a thread's last event reads as "parked in the
        # pool, not stuck" in a hang dump.
        self.record(f"idle_{endpoint}", None)

    def parallel_begin(self, thread, team_size):
        self.record("parallel_begin", thread, team_size,
                    self.runtime.current_frame().forked.region_id,
                    *caller_site())

    def parallel_end(self, thread, team_size):
        self.record("parallel_end", thread, team_size,
                    self.runtime.current_frame().forked.region_id)

    def implicit_task(self, thread, endpoint, team_size):
        self.record("implicit_task", thread, endpoint,
                    self.runtime.current_frame().team.region_id)

    def loop(self, thread, endpoint):
        self.record(f"loop_{endpoint}", thread)

    def work(self, thread, wstype, low, high):
        self.record("work", thread, wstype, low, high)

    def task_create(self, thread, task_id):
        self.record("task_create", thread, task_id,
                    self.runtime.current_frame().task_id, *caller_site())

    def task_dependences(self, thread, task_id, predecessors):
        self.record("task_deferred", thread, task_id,
                    [id(task) for task in predecessors])

    def task_schedule(self, thread, task_id):
        self.record("task_start", thread, task_id)

    def task_steal(self, thread, task_id, victim):
        self.record("task_steal", thread, task_id, victim)

    def task_complete(self, thread, task_id):
        self.record("task_finish", thread, task_id)

    def sync_region(self, thread, kind, endpoint, wait_time):
        frame = self.runtime.current_frame()
        self.record(f"{kind}_{endpoint}", thread, wait_time,
                    frame.team.region_id, frame.task_id, *caller_site())

    def wait(self, thread, endpoint, target):
        # "wait_begin" as a thread's last event is the sleep it never
        # woke from; the ids are those of the doctor's wait-for graph
        # (barrier, task) or of the raw mutex.
        if isinstance(target, list):  # taskwait: the unfinished children
            self.record(f"wait_{endpoint}", thread, "tasks",
                        [id(task) for task in target])
        else:
            self.record(f"wait_{endpoint}", thread,
                        type(target).__name__, id(target))

    def mutex_acquire(self, thread, kind, handle):
        self.record("mutex_wait", thread, kind, handle)

    def mutex_acquired(self, thread, kind, handle, wait_time):
        self.record("mutex_acquired", thread, kind, handle, wait_time,
                    *caller_site())

    def mutex_released(self, thread, kind, handle):
        self.record("mutex_released", thread, kind, handle)

    def plan(self, thread, event, payload):
        self.record("plan", thread, event, payload["source"],
                    payload["partitions"], payload["colors"],
                    payload["conflict_edges"], *caller_site())

    # -- reading ------------------------------------------------------------

    def _snapshot(self, ring: _Ring) -> list[tuple]:
        """``ring``'s events oldest first (racy-safe: a concurrent wrap
        can tear one slot, never the list)."""
        count = ring.count
        events = ring.events[:]
        if self.keep == "first" or count <= ring.capacity:
            return events
        cut = count % ring.capacity
        return events[cut:] + events[:cut]

    def _keyed(self) -> list[tuple[str, _Ring]]:
        """``(key, ring)`` oldest ring first.  The newest ring of a
        native ident — the live thread, if any — is keyed by the ident;
        older ones, of finished threads whose ident was handed out
        again, by ``ident/n``."""
        seen: collections.Counter = collections.Counter()
        keyed = []
        for ring in reversed(list(self._rings)):
            older = seen[ring.ident]
            seen[ring.ident] += 1
            keyed.append((f"{ring.ident}/{older}" if older
                          else str(ring.ident), ring))
        return keyed[::-1]

    def dump(self, tail: int | None = None) -> dict:
        """``{key: {"thread": name, "events": [...]}}`` per ring (keys
        as :meth:`_keyed`), each event a ``{"t": seconds, "kind": ...,
        "detail": [...]}`` dict whose detail starts with the team
        thread, oldest first, optionally cut to the last ``tail``."""
        out = {}
        for key, ring in self._keyed():
            events = self._snapshot(ring)
            if tail is not None:
                events = events[-tail:]
            out[key] = {
                "thread": ring.name,
                "events": [{"t": round(ts, 6), "kind": kind,
                            "detail": _flat(thread, detail)}
                           for ts, kind, thread, detail in events],
            }
        return out

    def format_text(self, tail: int = 12) -> str:
        """Human-readable tail of every ring, for stderr dumps."""
        lines = ["flight recorder (last events per thread):"]
        for key, entry in self.dump(tail).items():
            lines.append(f"  [{entry['thread']} ident {key}]")
            if not entry["events"]:
                lines.append("    (no events)")
            for event in entry["events"]:
                detail_text = " ".join(str(part)
                                       for part in event["detail"])
                lines.append(f"    {event['t']:.6f} {event['kind']} "
                             f"{detail_text}".rstrip())
        return "\n".join(lines)


def _flat(thread, detail: tuple) -> list:
    return list(detail) if thread is None else [thread, *detail]
