"""Blocking records: what every runtime thread is currently waiting on.

PR 3 made every wait in the runtime event-driven, which means the
runtime *knows*, at each wait site, exactly which resource the thread
is about to sleep on — a barrier, a lock holder, a child task, a task
dependence, an ordered ticket, a copyprivate broadcast.  This module is
where that knowledge is surfaced: each wait site records a
:class:`BlockRecord` on entry and clears it on exit, and the lock paths
record ownership, so the watchdog can assemble a wait-for graph from a
consistent-enough snapshot of these tables.

Cost discipline matches the tracer and the tool interface: every
instrumented site reads one attribute (``runtime.diag``) and branches
on ``None``.  When armed, all tables are only ever written by the
thread the entry belongs to (or by the single submitting/finishing
thread for task entries), so plain dict stores under the GIL suffice —
no locks on any hot path.  The watchdog reads racily and re-validates:
a torn snapshot can only delay a verdict by one tick, never invent a
cycle, because edges are drawn only from records whose ``sleeping``
flag is set (see :mod:`repro.diagnostics.waitgraph`).
"""

from __future__ import annotations

import threading
import time

from repro.runtime.trace import caller_site


class BlockRecord:
    """One thread's current wait.

    ``kind`` is ``barrier``, ``taskwait``, ``dependence``, ``lock``,
    ``nest_lock``, ``critical``, ``atomic``, ``ordered`` or
    ``copyprivate``; ``resource`` identifies the waited-on object
    (``id()`` of the barrier/lock/slot, or a critical-section key).
    ``sleeping`` is flipped by the owning thread around the actual
    ``cond.wait``/``event.wait``/blocking-acquire call: the wait-for
    graph draws out-edges only from sleeping records, which is what
    keeps a barrier waiter that is busy draining tasks from ever
    appearing as a deadlock participant.
    """

    __slots__ = ("ident", "kind", "resource", "team_id", "thread_num",
                 "since", "detail", "location", "sleeping")

    def __init__(self, ident: int, kind: str, resource, team_id,
                 thread_num: int, detail, location):
        self.ident = ident
        self.kind = kind
        self.resource = resource
        self.team_id = team_id
        self.thread_num = thread_num
        self.since = time.perf_counter()
        self.detail = detail
        self.location = location
        self.sleeping = False

    def describe(self) -> dict:
        """JSON-able snapshot of this record."""
        from repro.diagnostics.origin import format_location
        return {
            "kind": self.kind,
            "resource": self.resource if isinstance(
                self.resource, (str, int)) else repr(self.resource),
            "team": self.team_id,
            "thread_num": self.thread_num,
            "wait_age_s": round(time.perf_counter() - self.since, 6),
            "sleeping": self.sleeping,
            "source": (format_location(*self.location)
                       if self.location else None),
        }


class TeamInfo:
    """Membership of one live team, for barrier-arrival accounting.

    ``members`` maps team-relative thread numbers to thread idents
    (each member registers itself); ``departed`` collects the numbers
    of members that completed their implicit task and left the region —
    a barrier still waiting on a departed member can never be satisfied.
    """

    __slots__ = ("team_id", "size", "members", "departed")

    def __init__(self, team_id: int, size: int):
        self.team_id = team_id
        self.size = size
        self.members: dict[int, int] = {}
        self.departed: set[int] = set()


class DiagnosticsState:
    """All blocking/ownership tables of one runtime, plus the progress
    counter the watchdog polls."""

    def __init__(self):
        #: ident -> stack of BlockRecords (innermost wait last).  A
        #: thread helping with tasks inside a barrier can block again
        #: on a lock inside the task body; both records coexist.
        self.blocked: dict[int, list[BlockRecord]] = {}
        #: resource key -> owning thread ident (omp locks, criticals,
        #: atomic, nest locks, ordered regions).
        self.owners: dict = {}
        #: id(team) -> TeamInfo for every live team.
        self.teams: dict[int, TeamInfo] = {}
        #: id(node) -> (node, executing ident) for running tasks.
        self.task_running: dict[int, tuple] = {}
        #: id(node) -> (node, tuple of predecessor nodes) for tasks
        #: deferred on unsatisfied dependences.
        self.task_waiting: dict[int, tuple] = {}
        #: Bumped whenever any thread unblocks or completes a task.
        #: Benign-racy ``+= 1`` under the GIL: the watchdog only needs
        #: "changed at all", not an exact count.
        self.progress = 0
        #: Thread idents the runtime has ever registered in a team.
        self.thread_names: dict[int, str] = {}

    # -- blocking records (owner-thread writes only) --------------------

    def block_enter(self, kind: str, resource, team=None,
                    thread_num: int = -1, detail=None) -> BlockRecord:
        ident = threading.get_ident()
        # Generated omp4py code (mapped back through the origin
        # registry at report time) or the user's own script; nothing
        # when the whole stack is runtime-internal.
        site = caller_site()
        record = BlockRecord(ident, kind, resource,
                             id(team) if team is not None else None,
                             thread_num, detail,
                             site if site[0] else None)
        stack = self.blocked.get(ident)
        if stack is None:
            stack = []
            self.blocked[ident] = stack
        stack.append(record)
        return record

    def block_exit(self) -> None:
        ident = threading.get_ident()
        stack = self.blocked.get(ident)
        if stack:
            stack.pop()
        self.progress += 1

    # -- team membership -------------------------------------------------

    def team_begin(self, team) -> None:
        self.teams[id(team)] = TeamInfo(id(team), team.size)

    def team_end(self, team) -> None:
        self.teams.pop(id(team), None)
        self.progress += 1

    def thread_enter(self, team, thread_num: int) -> None:
        ident = threading.get_ident()
        info = self.teams.get(id(team))
        if info is not None:
            info.members[thread_num] = ident
        self.thread_names[ident] = threading.current_thread().name

    def thread_exit(self, team, thread_num: int) -> None:
        info = self.teams.get(id(team))
        if info is not None:
            info.departed.add(thread_num)
        self.progress += 1

    # -- lock / region ownership ----------------------------------------

    def resource_acquired(self, key) -> None:
        self.owners[key] = threading.get_ident()

    def resource_released(self, key) -> None:
        self.owners.pop(key, None)
        self.progress += 1

    # -- tasking ---------------------------------------------------------

    def task_started(self, node) -> None:
        self.task_running[id(node)] = (node, threading.get_ident())

    def task_finished(self, node) -> None:
        self.task_running.pop(id(node), None)
        self.progress += 1

    def task_deferred(self, node, predecessors) -> None:
        self.task_waiting[id(node)] = (node, tuple(predecessors))

    def task_released(self, node) -> None:
        self.task_waiting.pop(id(node), None)
        self.progress += 1

    # -- snapshots ---------------------------------------------------------

    def snapshot(self) -> "StateSnapshot":
        """A point-in-time copy for the watchdog (GIL-consistent per
        table; cross-table consistency is re-validated by the graph)."""
        blocked = {}
        for ident, stack in list(self.blocked.items()):
            records = list(stack)
            if records:
                blocked[ident] = records
        return StateSnapshot(
            blocked=blocked,
            owners=dict(self.owners),
            teams=dict(self.teams),
            task_running=dict(self.task_running),
            task_waiting=dict(self.task_waiting),
            thread_names=dict(self.thread_names),
            progress=self.progress,
        )


class StateSnapshot:
    """Frozen view of a :class:`DiagnosticsState` for one analysis."""

    __slots__ = ("blocked", "owners", "teams", "task_running",
                 "task_waiting", "thread_names", "progress", "taken_at")

    def __init__(self, blocked, owners, teams, task_running,
                 task_waiting, thread_names, progress):
        self.blocked = blocked
        self.owners = owners
        self.teams = teams
        self.task_running = task_running
        self.task_waiting = task_waiting
        self.thread_names = thread_names
        self.progress = progress
        self.taken_at = time.perf_counter()

    def oldest_wait_age(self) -> float:
        """Age of the longest-standing innermost wait, in seconds."""
        oldest = self.taken_at
        for records in self.blocked.values():
            if records:
                oldest = min(oldest, records[-1].since)
        return self.taken_at - oldest
