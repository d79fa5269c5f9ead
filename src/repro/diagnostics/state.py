"""Blocking records: what every runtime thread is currently waiting on.

Every wait in the runtime is event-driven, which means the runtime
*knows*, at each wait site, exactly which resource the thread is about
to sleep on — a barrier, a lock holder, a child task, a task
dependence, an ordered ticket, a copyprivate broadcast — and says so on
its one event channel (:mod:`repro.ompt.hooks`).
:class:`DiagnosticsState` is the tool that listens: a ``sync_region``,
a region's join barrier or a contended ``mutex_acquire`` enters a
:class:`BlockRecord` and its release pops it, ``wait`` marks the record
asleep around each blocking call, and the mutex, team and task
callbacks keep the ownership, membership and task tables, so the
watchdog can assemble a wait-for graph from a consistent-enough
snapshot of them.

It costs what any tool costs: nothing while detached.  While attached,
all tables are only ever written by the thread the entry belongs to (or
by the single submitting/finishing thread for task entries), so plain
dict stores under the GIL suffice — no locks on any hot path.  The
watchdog reads racily and re-validates: a torn snapshot can only delay
a verdict by one tick, never invent a cycle, because edges are drawn
only from records whose ``sleeping`` flag is set (see
:mod:`repro.diagnostics.waitgraph`).
"""

from __future__ import annotations

import threading
import time

from repro.ompt.hooks import ToolHooks
from repro.runtime.trace import caller_site

#: ``mutex_*`` kinds (also the block-record kinds whose resource has an
#: owner).
MUTEX_KINDS = frozenset({"lock", "nest_lock", "critical", "atomic"})


class BlockRecord:
    """One thread's current wait.

    ``kind`` is ``barrier``, ``taskwait``, ``dependence``, ``lock``,
    ``nest_lock``, ``critical``, ``atomic``, ``ordered`` or
    ``copyprivate``; ``resource`` identifies the waited-on object
    (``id()`` of the barrier/lock/slot, or a critical-section key) and
    ``detail`` is what the wait-for graph follows from it (the object
    slept on; for a mutex, its name).  ``sleeping`` is flipped by the
    owning thread's ``wait`` callbacks around the actual
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


class DiagnosticsState(ToolHooks):
    """All blocking/ownership tables of one runtime, plus the progress
    counter the watchdog polls — kept current by the tool callbacks of
    the ``runtime`` it is attached to (:func:`install`)."""

    def __init__(self, runtime=None):
        self.runtime = runtime
        #: ident -> stack of BlockRecords (innermost wait last).  A
        #: thread helping with tasks inside a barrier can block again
        #: on a lock inside the task body; both records coexist.
        self.blocked: dict[int, list[BlockRecord]] = {}
        #: resource key -> owning thread ident (omp locks, criticals,
        #: atomic, nest locks).
        self.owners: dict = {}
        #: id(team) -> TeamInfo for every live team.
        self.teams: dict[int, TeamInfo] = {}
        #: task id -> (id(team), executing ident) for running tasks.
        self.task_running: dict[int, tuple] = {}
        #: task id -> (id(team), predecessor tasks) for tasks deferred
        #: on dependences and not started yet.
        self.task_waiting: dict[int, tuple] = {}
        #: Bumped whenever any thread unblocks or completes a task.
        #: Benign-racy ``+= 1`` under the GIL: the watchdog only needs
        #: "changed at all", not an exact count.
        self.progress = 0
        #: Thread idents the runtime has ever registered in a team.
        self.thread_names: dict[int, str] = {}

    # -- blocking records (owner-thread writes only) --------------------

    def block_enter(self, kind: str, resource, team=None,
                    thread_num: int = -1, detail=None) -> None:
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

    def block_exit(self) -> None:
        ident = threading.get_ident()
        stack = self.blocked.get(ident)
        if stack:
            stack.pop()
        self.progress += 1

    def sync_region(self, thread, kind, endpoint, wait_time):
        if endpoint != "enter":
            self.block_exit()
            return
        frame = self.runtime.current_frame()
        # A barrier is known on arrival (the graph counts arrivals);
        # every other wait names its resource when it first sleeps.
        self.block_enter(
            kind, id(frame.team.barrier) if kind == "barrier" else None,
            team=frame.team, thread_num=thread)

    def wait(self, thread, endpoint, target):
        stack = self.blocked.get(threading.get_ident())
        if not stack:
            return
        record = stack[-1]
        if endpoint == "begin":
            if record.kind not in MUTEX_KINDS:
                # A mutex record is complete from ``mutex_acquire``.
                record.resource = id(target)
                record.detail = target
            record.sleeping = True
        elif record.kind in MUTEX_KINDS:
            self.block_exit()  # got it: ``mutex_acquired`` follows
        else:
            record.sleeping = False

    # -- team membership -------------------------------------------------

    def parallel_begin(self, thread, team_size):
        team = self.runtime.current_frame().forked
        self.teams[id(team)] = TeamInfo(id(team), team_size)

    def parallel_end(self, thread, team_size):
        self.teams.pop(id(self.runtime.current_frame().forked), None)
        self.progress += 1

    def implicit_task(self, thread, endpoint, team_size):
        team = self.runtime.current_frame().team
        info = self.teams.get(id(team))
        if endpoint == "begin":
            ident = threading.get_ident()
            if info is not None:
                info.members[thread] = ident
            self.thread_names[ident] = threading.current_thread().name
        elif endpoint == "join":
            self.block_enter("barrier", id(team.barrier), team=team,
                             thread_num=thread)
        else:
            # Past the join barrier: a member that left can never
            # arrive at any further barrier of this team.
            self.block_exit()
            if info is not None:
                info.departed.add(thread)

    # -- lock ownership ----------------------------------------------------

    def mutex_acquire(self, thread, kind, handle):
        # A named construct labels its wait-for node by name, an
        # anonymous lock by its address.
        self.block_enter(kind, mutex_key(kind, handle), thread_num=thread,
                         detail=handle if isinstance(handle, str) else None)

    def mutex_acquired(self, thread, kind, handle, wait_time):
        self.owners[mutex_key(kind, handle)] = threading.get_ident()

    def mutex_released(self, thread, kind, handle):
        # Still under the lock (see ``mutex_released`` in the hooks), so
        # this cannot race the next owner's ``mutex_acquired``.
        self.owners.pop(mutex_key(kind, handle), None)
        self.progress += 1

    # -- tasking ---------------------------------------------------------

    def task_dependences(self, thread, task_id, predecessors):
        team = self.runtime.current_frame().team
        self.task_waiting[task_id] = (id(team), tuple(predecessors))

    def task_schedule(self, thread, task_id):
        self.task_waiting.pop(task_id, None)
        team = self.runtime.current_frame().team
        self.task_running[task_id] = (id(team), threading.get_ident())

    def task_complete(self, thread, task_id):
        self.task_running.pop(task_id, None)
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


def mutex_key(kind: str, handle):
    """Resource key of a mutex: a lock object's address, or the
    ``(kind, name)`` of a named construct (``critical``, ``atomic``)."""
    return (kind, handle) if isinstance(handle, str) else handle


def install(runtime) -> DiagnosticsState | None:
    """Attach a fresh :class:`DiagnosticsState` to ``runtime`` and
    publish it as ``runtime.diag`` — unless one is installed already,
    which is then left to whoever installed it (``None`` is returned).
    The watchdog, the sampler and :func:`repro.arming.arm` all arm the
    blocking records through here and hand what they got back to
    :func:`uninstall`."""
    if runtime.diag is not None:
        return None
    runtime.diag = DiagnosticsState(runtime)
    runtime.attach_tool(runtime.diag)
    return runtime.diag


def uninstall(runtime, state: DiagnosticsState | None) -> None:
    """Undo the :func:`install` call that returned ``state``."""
    if state is not None and runtime.diag is state:
        runtime.detach_tool(state)
        runtime.diag = None


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
