"""Explicit tasking: work-stealing deques and the task lifecycle.

Tasks live in per-thread deques rather than one shared queue: each team
member pushes the tasks it submits onto its own deque, pops them back
LIFO (depth-first, so recursive decompositions like qsort/bfs reuse warm
data), and steals FIFO from round-robin-chosen victims when its own
deque runs dry (breadth-first, so a thief takes the oldest — typically
largest — subproblem).  Each deque is a ``collections.deque`` under one
mutex (:class:`repro.runtime.lowlevel.MutexDeque`).

Deque entries are *hints*, not ownership: the single execution gate is
the task node's ``claim()`` compare-exchange.  A node handed out twice
under an owner/thief race, or claimed directly by ``taskwait`` while
still sitting in a deque, is executed exactly once — the losers observe
a failed CAS and move on.  That discipline is also what would let a
fence-free (Chase–Lev) deque replace the mutex one behind ``make_deque``.
"""

from __future__ import annotations

FREE = 0
RUNNING = 1
DONE = 2
#: Deferred but not yet runnable: unsatisfied dependences (the paper's
#: Section V extension).  WAITING nodes are not enqueued; completion of
#: their predecessors releases them to FREE and queues them.
WAITING = 3


class TaskNode:
    """One explicit task: function, state machine, completion event."""

    __slots__ = ("fn", "state", "event", "team", "dep_lock",
                 "dep_done", "successors", "deps_remaining")

    def __init__(self, fn, team, lowlevel):
        self.fn = fn
        self.team = team
        self.state = lowlevel.make_counter(FREE)
        self.event = lowlevel.make_event()
        # Dependence bookkeeping (inert unless depend clauses are used).
        self.dep_lock = lowlevel.make_mutex()
        self.dep_done = False
        self.successors: list = []
        self.deps_remaining = lowlevel.make_counter(0)

    def claim(self) -> bool:
        """Try to move this node from free to in-progress."""
        return self.state.compare_exchange(FREE, RUNNING)

    def add_successor(self, node: "TaskNode") -> bool:
        """Register a dependent task; ``False`` if already completed
        (the caller then counts this dependence as satisfied)."""
        with self.dep_lock:
            if self.dep_done:
                return False
            self.successors.append(node)
            return True

    def finish(self) -> list["TaskNode"]:
        """Complete the task; return successors that became runnable."""
        with self.dep_lock:
            self.dep_done = True
            ready = [successor for successor in self.successors
                     if successor.deps_remaining.fetch_add(-1) == 1]
            self.successors.clear()
        self.state.store(DONE)
        self.event.set()
        return ready

    @property
    def done(self) -> bool:
        return self.state.load() == DONE


class WorkStealingScheduler:
    """Per-thread work-stealing deques for one team.

    ``push``/``claim`` take the caller's team-relative thread number;
    the per-thread ``local_hits``/``steals`` tallies are owner-written
    plain slots (no synchronization — each index is only ever written by
    its own thread) and feed the OMPT steal counters and the benchmark
    harness.
    """

    __slots__ = ("deques", "size", "local_hits", "steals")

    def __init__(self, lowlevel, size: int):
        self.deques = [lowlevel.make_deque() for _ in range(size)]
        self.size = size
        self.local_hits = [0] * size
        self.steals = [0] * size

    def push(self, thread_num: int, node: TaskNode) -> None:
        self.deques[thread_num].push(node)

    def claim(self, thread_num: int):
        """Claim one runnable task for ``thread_num``.

        Pops the thread's own deque LIFO first; when empty, steals FIFO
        from the other deques in round-robin order starting at the next
        thread.  Returns ``(node, victim_thread)`` with the node already
        claimed (state RUNNING), or ``None`` when no claimable task was
        found.  Nodes whose ``claim()`` fails were executed through
        another path (taskwait direct claim, duplicate steal hint) and
        are simply discarded.
        """
        own = self.deques[thread_num]
        while True:
            node = own.pop()
            if node is None:
                break
            if node.claim():
                self.local_hits[thread_num] += 1
                return node, thread_num
        size = self.size
        for offset in range(1, size):
            victim = thread_num + offset
            if victim >= size:
                victim -= size
            target = self.deques[victim]
            while True:
                node = target.steal()
                if node is None:
                    break
                if node.claim():
                    self.steals[thread_num] += 1
                    return node, victim
        return None

    def has_work(self) -> bool:
        """Advisory: might any deque hold a claimable node?

        Used only for the pre-sleep recheck in the barrier; stale nodes
        that lost their claim race can make this report ``True`` once
        more than necessary, which costs one extra (empty) claim pass.
        """
        for deque_ in self.deques:
            if deque_:
                return True
        return False

    def snapshot(self) -> dict[int, list]:
        """Advisory per-thread view of the queued (unclaimed) nodes —
        the stall watchdog includes it so a report can distinguish
        "work exists but nobody picks it up" from "no work anywhere"."""
        return {thread_num: deque_.snapshot()
                for thread_num, deque_ in enumerate(self.deques)
                if deque_}
