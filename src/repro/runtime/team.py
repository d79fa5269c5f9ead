"""Thread teams and the task-draining barrier.

A team is created by every ``parallel`` directive (including serialized
ones of size 1).  Its barrier implements the semantics the paper
describes: threads arriving early consume pending tasks from the team's
work-stealing deques instead of idling, are reawakened when new tasks
are submitted while they wait, and the barrier releases only once every
thread has arrived *and* every task of the team has completed.

Synchronization is event-driven.  Task submission, task completion, and
the final arrival each signal the barrier's condition variable
(:meth:`Barrier.poke`); waiters re-check the release predicate and the
deques under the condition lock before sleeping, so no wake-up can slip
between the check and the wait.  The ``timeout`` passed to the
condition wait is a bounded exponential backoff (``BACKOFF_MIN`` up to
``BACKOFF_MAX``) kept only as a safety net for team breakage observed
outside the lock — it is not the signalling mechanism, and tests can
disable it (:attr:`Barrier.use_fallback`) to prove liveness.
"""

from __future__ import annotations

import threading

from repro.runtime.tasking import WorkStealingScheduler

#: Bounds of the exponential-backoff safety net, in seconds.  Every
#: hot-path wait in the runtime (barrier, taskwait, dependence waits,
#: ordered, copyprivate) uses these: the first fallback wake-up comes
#: after 1 ms and the interval doubles to a 100 ms ceiling, so a missed
#: signal costs little and an idle waiter costs near nothing.
BACKOFF_MIN = 0.001
BACKOFF_MAX = 0.1


def next_backoff(backoff: float) -> float:
    """Advance one step of the bounded exponential backoff."""
    backoff *= 2
    return backoff if backoff < BACKOFF_MAX else BACKOFF_MAX


def park(tool, thread_num: int, target, block, *timeout):
    """Put the calling thread to sleep in ``block(*timeout)``.

    Every blocking call of the runtime — barrier, taskwait, dependence,
    ordered and copyprivate waits, contended mutexes — goes through
    here, the one place that tells ``tool`` (``runtime.tool``, or
    ``None``) a thread is asleep on ``target``: ``wait`` "begin" fires
    before the thread blocks and "end" when it is running again,
    however ``block`` returned.
    """
    if tool is None:
        return block(*timeout)
    tool.wait(thread_num, "begin", target)
    try:
        return block(*timeout)
    finally:
        tool.wait(thread_num, "end", target)


class Barrier:
    """Generation-counted barrier that drains the team's task deques."""

    __slots__ = ("cond", "count", "generation", "waiters", "use_fallback")

    def __init__(self):
        self.cond = threading.Condition()
        self.count = 0
        self.generation = 0
        #: Threads currently blocked in ``cond.wait``; maintained under
        #: the condition lock, read by :meth:`poke`'s caller contract.
        self.waiters = 0
        #: When ``False`` waiters sleep without the backoff timeout —
        #: used by the regression tests to prove the signalling protocol
        #: alone keeps the runtime live.
        self.use_fallback = True

    def wait(self, team, run_task, thread_num: int) -> None:
        """Block until the whole ``team`` arrives and all tasks are done.

        The team is passed in, not kept: a barrier that held its team
        would make every region's team a reference cycle, left for the
        cyclic collector instead of freed when the region ends.

        ``run_task(team, thread_num)`` is the runtime callback that
        claims and executes one task from the team's scheduler (it lives
        on the runtime, not here, because it must push a context frame
        and fire the steal instrumentation); it returns ``False`` when
        no task was claimable.

        A *broken* team (a member left the region via an exception, so
        barrier arrivals can no longer match up) releases every waiter
        immediately — the join will re-raise the recorded error.
        """
        if team.broken:
            return
        if team.size == 1 and team.pending.load() == 0:
            return
        cond = self.cond
        with cond:
            self.count += 1
            my_generation = self.generation
            if self.count >= team.size and team.pending.load() == 0:
                # Last arrival with no outstanding tasks: release
                # immediately, without a signalling round-trip.
                self.generation += 1
                self.count = 0
                cond.notify_all()
                return
        scheduler = team.scheduler
        tool = team.runtime.tool
        backoff = BACKOFF_MIN
        while True:
            if team.broken:
                with cond:
                    cond.notify_all()
                return
            if run_task(team, thread_num):
                backoff = BACKOFF_MIN
                continue
            with cond:
                # Register as a sleeper *before* the re-checks: pokers
                # mutate the scheduler/pending state before reading
                # ``waiters``, so observing zero sleepers there implies
                # this re-check sees their state change (see ``poke``).
                self.waiters += 1
                try:
                    if self.generation != my_generation:
                        return
                    if (self.count >= team.size
                            and team.pending.load() == 0):
                        self.generation += 1
                        self.count = 0
                        cond.notify_all()
                        return
                    if not scheduler.has_work():
                        # Signalled by poke (new task, task completion)
                        # or by the releasing arrival; the timeout is
                        # the bounded-backoff safety net only.
                        park(tool, thread_num, self, cond.wait,
                             backoff if self.use_fallback else None)
                finally:
                    self.waiters -= 1
            backoff = next_backoff(backoff)

    def poke(self) -> None:
        """Wake barrier waiters after a task submission or completion.

        The check runs under the condition lock: callers change the
        observable state (deque push, ``pending`` decrement) *before*
        poking, and waiters register in ``waiters`` under the lock
        before re-checking that state, so a poke can never fall between
        a waiter's failed claim and its ``cond.wait``.  (The previous
        implementation read the arrival count without the lock, a
        lost-wakeup race the 50 ms poll timeout used to paper over.)
        """
        with self.cond:
            if self.waiters:
                self.cond.notify_all()

    def poke_all(self) -> None:
        """Unconditional wake-up (team breakage)."""
        with self.cond:
            self.cond.notify_all()


class Team:
    """A team of threads executing one parallel region."""

    __slots__ = ("runtime", "parent_frame", "size", "level", "active_level",
                 "barrier", "scheduler", "pending", "slots", "slots_lock",
                 "mutex", "cpu_times", "errors", "errors_lock", "broken",
                 "region_id")

    def __init__(self, runtime, parent_frame, size: int):
        self.runtime = runtime
        self.parent_frame = parent_frame
        self.size = size
        #: Process-wide parallel-region instance id, assigned by
        #: ``parallel_run`` when tracing groups this region's events;
        #: 0 for implicit single-thread teams.
        self.region_id = 0
        if parent_frame is None:
            # The implicit single-thread team of an initial thread.
            self.level = 0
            self.active_level = 0
        else:
            parent_team = parent_frame.team
            self.level = parent_team.level + 1
            self.active_level = parent_team.active_level + (
                1 if size > 1 else 0)
        lowlevel = runtime.lowlevel
        self.barrier = Barrier()
        #: Per-thread work-stealing task deques (see
        #: :mod:`repro.runtime.tasking`).
        self.scheduler = WorkStealingScheduler(lowlevel, size)
        #: Tasks submitted to this team and not yet completed.
        self.pending = lowlevel.make_counter(0)
        #: Shared worksharing slots, keyed by per-thread region ordinal.
        self.slots: dict = {}
        self.slots_lock = lowlevel.make_mutex()
        #: Team mutex used by generated reduction epilogues
        #: (``__omp__.mutex_lock()`` in the paper's Fig. 2).
        self.mutex = threading.RLock()
        self.cpu_times = [0.0] * size
        self.errors: list = []
        self.errors_lock = threading.Lock()
        #: Set when a member leaves the region abnormally; every
        #: synchronization construct then drains instead of blocking.
        self.broken = False

    def record_error(self, thread_num: int, error: BaseException) -> None:
        with self.errors_lock:
            self.errors.append((thread_num, error))
        self.broken = True
        self.barrier.poke_all()

    def get_slot(self, key, factory):
        return self.runtime.lowlevel.slot_get_or_create(
            self.slots, self.slots_lock, key, factory)
