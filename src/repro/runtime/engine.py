"""The OMP4Py runtime engine.

An :class:`OmpRuntime` instance is what the transformer binds to the
``__omp__`` handle inside generated code.  Two singletons exist —
:data:`repro.runtime.pure_runtime` and :data:`repro.cruntime.cruntime`,
both on the primitives of :mod:`repro.runtime.lowlevel` — and, as the
paper notes, each maintains its own per-thread contexts; a thread known
to one runtime is an independent initial thread to the other.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
import weakref

from repro import env
from repro.errors import OmpRuntimeError
from repro.runtime import locks, reduction, worksharing
from repro.runtime.context import TaskFrame
from repro.runtime.locks import OmpLock, OmpNestLock
from repro.runtime.stats import StatsCollector
from repro.runtime.tasking import TaskNode
from repro.runtime.team import BACKOFF_MIN, Team, next_backoff, park
from repro.runtime.trace import Recorder

#: Process-wide parallel-region ids: the key the explain DAG builder
#: uses to group fork/join, implicit-task, and barrier events of one
#: region instance (0 = the implicit serial region).
_REGION_IDS = itertools.count(1)

#: Every live runtime, for the one at-fork hook below.
_RUNTIMES: "weakref.WeakSet[OmpRuntime]" = weakref.WeakSet()


def _reset_after_fork() -> None:
    """Start every runtime cold in a forked child.

    Only the forking thread exists there: the parent's parked pool
    workers, team members and tool threads (watchdog, sampler, metrics
    server) are gone, and a lock another thread held at the fork stays
    locked for good.  Re-initialising drops the pool, the contexts and
    the attached tools and makes fresh locks, as a native OpenMP
    runtime re-initialises itself in a fork child; ICVs return to
    their environment defaults.
    """
    for runtime in list(_RUNTIMES):
        runtime.__init__(runtime.name, runtime.lowlevel)


os.register_at_fork(after_in_child=_reset_after_fork)


class _Undefined:
    """Value of a ``private`` copy before first assignment.

    OpenMP leaves such reads undefined; operating on this sentinel makes
    them fail loudly instead of silently reading the shared value.
    """

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<omp undefined>"

    def __bool__(self) -> bool:
        raise OmpRuntimeError("read of uninitialized private variable")


#: Sentinel injected by the transformer for ``private`` variables.
UNDEFINED = _Undefined()

_SCHEDULE_ENUM = {1: "static", 2: "dynamic", 3: "guided", 4: "auto"}
_SCHEDULE_NAMES = {v: k for k, v in _SCHEDULE_ENUM.items()}


class OmpRuntime:
    """One OMP4Py runtime: contexts, teams, worksharing, tasking, API."""

    def __init__(self, name: str, lowlevel):
        _RUNTIMES.add(self)
        #: ``"runtime"`` or ``"cruntime"``: which handle generated code
        #: reaches this instance through; reports and ``/state`` echo it.
        self.name = name
        self.lowlevel = lowlevel
        self._tls = threading.local()
        # Runtime-wide ICVs (per-task nthreads-var lives on frames).
        self._dyn = env.default_dynamic()
        self._nest = env.default_nested()
        self._run_sched = env.default_schedule()
        self._thread_limit = env.default_thread_limit()
        self._max_active_levels = env.default_max_active_levels()
        self._default_nthreads = env.default_num_threads()
        self._wait_policy = env.default_wait_policy()
        #: Execution backend (:mod:`repro.runtime.gilstate`): ``GIL``
        #: runtimes serialize Python threads and the analysis stack
        #: projects no-GIL wall time; ``NOGIL`` runtimes (free-threaded
        #: interpreter, or ``OMP4PY_BACKEND=nogil``) run this exact
        #: engine with true parallelism and report measured wall time.
        from repro.runtime.gilstate import current_backend
        self.backend = current_backend()
        from repro.affinity import binder_from_env
        self._binder = binder_from_env()
        #: Raw spec behind the current binder (``set_affinity`` uses it
        #: to skip rebuilds when a serving job repeats its partition).
        self._affinity_spec: tuple | None = None
        self._pool = None
        self._pool_lock = threading.Lock()
        self._criticals: dict[str, object] = {}
        self._criticals_lock = threading.Lock()
        self._atomic_mutex = lowlevel.make_mutex()
        self._tp_local = threading.local()
        #: Work-accounting collector (see :mod:`repro.runtime.stats`).
        self.stats = StatsCollector()
        #: OMPT-style tool dispatch target, the one channel every
        #: event leaves the runtime through: ``None`` when no tool is
        #: attached, a single tool, or a
        #: :class:`~repro.ompt.hooks.ToolDispatcher`.  Instrumented
        #: sites read this one attribute and branch on ``None``.
        self.tool = None
        self._tools: list = []
        #: Event trace (:mod:`repro.runtime.trace`): a keep-first
        #: recorder that ``tracer.start()`` attaches and
        #: ``tracer.stop()`` detaches.
        self.tracer = Recorder(runtime=self)
        #: The installed hang-diagnosis state
        #: (:mod:`repro.diagnostics.state`), for the watchdog, the
        #: doctor and the sampler to look up; it keeps its blocking
        #: records as an attached tool, so no site reads this.
        self.diag = None
        #: The running sampling profiler (:mod:`repro.sampling`), for
        #: the doctor and the live ``/profile`` route to look up; it
        #: follows directives as an attached tool, so no site reads
        #: this.
        self.sampler = None

    # ------------------------------------------------------------------
    # Tool interface (see :mod:`repro.ompt`)

    def attach_tool(self, tool) -> None:
        """Attach an OMPT-style tool (idempotent per instance).

        Attach/detach are not synchronization points: call them outside
        parallel regions, as OMPT requires of ``ompt_start_tool``.
        """
        if any(existing is tool for existing in self._tools):
            return
        self._tools.append(tool)
        self._rebind_tool()

    def detach_tool(self, tool) -> None:
        """Detach a previously attached tool (no-op when absent)."""
        self._tools = [t for t in self._tools if t is not tool]
        self._rebind_tool()

    def _rebind_tool(self) -> None:
        if not self._tools:
            self.tool = None
        elif len(self._tools) == 1:
            self.tool = self._tools[0]
        else:
            from repro.ompt.hooks import ToolDispatcher
            self.tool = ToolDispatcher(self._tools)

    # ------------------------------------------------------------------
    # Contexts

    def _stack(self) -> list[TaskFrame]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = []
            self._tls.stack = stack
        return stack

    def current_frame(self) -> TaskFrame:
        """The innermost task frame, creating the initial-thread context
        on first use (the paper's lazy initial-thread initialization)."""
        stack = self._stack()
        if not stack:
            team = Team(self, None, 1)
            stack.append(TaskFrame(team, 0, None, "implicit",
                                   self._default_nthreads))
        return stack[-1]

    # ------------------------------------------------------------------
    # Parallel regions

    def parallel_run(self, fn, num_threads=None, if_=True, copyin=()):
        """Fork a team, run ``fn`` in every member, join.

        ``copyin`` is a tuple of threadprivate keys whose master values
        are broadcast to the team (the ``copyin`` clause).
        """
        frame = self.current_frame()
        size = self._decide_team_size(frame, num_threads, if_)
        team = Team(self, frame, size)
        team.region_id = next(_REGION_IDS)
        frame.forked = team
        tool = self.tool
        if tool is not None:
            tool.parallel_begin(frame.thread_num, size)
        copyin_values = [(key, self._tp_dict().get(key, _TP_MISSING))
                         for key in copyin]
        binder = self._binder

        def member(index: int) -> None:
            if binder.enabled:
                binder.bind_current(index, size)
            stack = self._stack()
            stack.append(TaskFrame(team, index, frame, "implicit",
                                   frame.nthreads_var))
            if tool is not None:
                tool.implicit_task(index, "begin", size)
            begin = time.thread_time()
            try:
                for key, value in copyin_values:
                    if value is not _TP_MISSING:
                        self._tp_dict()[key] = value
                fn()
            except BaseException as error:  # noqa: BLE001 - re-raised at join
                team.record_error(index, error)
            finally:
                if tool is not None:
                    # The "end" below doubles as the join-barrier
                    # release, so the arrival must be its own event or
                    # the DAG would fold join wait into member compute.
                    tool.implicit_task(index, "join", size)
                try:
                    team.barrier.wait(team, self._run_one_task, index)
                except BaseException as error:  # noqa: BLE001
                    team.record_error(index, error)
                team.cpu_times[index] = time.thread_time() - begin
                if tool is not None:
                    tool.implicit_task(index, "end", size)
                stack.pop()

        if size > 1:
            ticket = self.pool().run_helpers(member, size - 1)
            member(0)
            self.pool().wait(ticket)
        else:
            member(0)
        if tool is not None:
            tool.parallel_end(frame.thread_num, size)
        frame.forked = None
        if team.level == 1:
            self.stats.record(team.cpu_times)
        if team.errors:
            thread_num, error = next(
                (entry for entry in team.errors
                 if not isinstance(entry[1], Exception)), team.errors[0])
            if not isinstance(error, Exception):
                raise error  # Ctrl-C or exit: the program's, not the region's
            raise OmpRuntimeError(
                f"exception in parallel region (thread {thread_num})"
            ) from error

    def _decide_team_size(self, frame: TaskFrame, num_threads, if_) -> int:
        if not if_:
            return 1
        active = frame.team.active_level
        if active >= 1 and not self._nest:
            return 1
        if active >= self._max_active_levels:
            return 1
        requested = (int(num_threads) if num_threads is not None
                     else frame.nthreads_var)
        if requested < 1:
            raise OmpRuntimeError("num_threads must be positive")
        return min(requested, self._thread_limit)

    def pool(self):
        """This runtime's hot-team worker pool, created on first fork."""
        pool = self._pool
        if pool is None:
            with self._pool_lock:
                pool = self._pool
                if pool is None:
                    from repro.runtime.pool import WorkerPool
                    pool = WorkerPool(self)
                    self._pool = pool
        return pool

    # ------------------------------------------------------------------
    # Worksharing: loops

    def for_bounds(self, triplet_values) -> list:
        return worksharing.make_bounds(triplet_values)

    def for_init(self, bounds, kind: str = "static", chunk=None,
                 ordered: bool = False, nowait: bool = False) -> None:
        chunk = int(chunk) if chunk is not None else None
        worksharing.init_loop(self, bounds, kind, chunk, ordered, nowait)
        tool = self.tool
        if tool is not None:
            tool.loop(bounds[2].thread_num, "begin")

    def for_next(self, bounds) -> bool:
        more = worksharing.next_chunk(bounds)
        if more:
            tool = self.tool
            if tool is not None:
                tool.work(bounds[2].thread_num, "loop",
                          bounds[0], bounds[1])
        return more

    def for_last(self, bounds) -> bool:
        return worksharing.loop_is_last(bounds)

    def for_end(self, bounds) -> None:
        if not bounds[2].nowait:
            # The loop ends after its implicit barrier, so wait time at
            # the loop's end attributes to the loop directive, not the
            # enclosing region.
            self.barrier()
        tool = self.tool
        if tool is not None:
            tool.loop(bounds[2].thread_num, "end")

    @staticmethod
    def trip_count(start: int, stop: int, step: int) -> int:
        """Iteration count of ``range(start, stop, step)`` (used by the
        generated taskloop chunking code)."""
        return worksharing.trip_count(start, stop, step)

    def taskloop_default_grain(self, total: int) -> int:
        """Implementation-defined taskloop grain: aim for ~8 tasks per
        team member, floored at 1."""
        team_size = max(1, self.current_frame().team.size)
        return max(1, total // (8 * team_size))

    @staticmethod
    def collapse_divisors(bounds) -> tuple:
        """Divisors for divmod index recovery in collapsed loops:
        entry ``k`` is the product of the trip counts of loops after
        level ``k``."""
        trips = bounds[2].trips
        divisors = []
        running = 1
        for count in reversed(trips[1:]):
            running *= count
            divisors.append(running)
        divisors.reverse()
        return tuple(divisors)

    def ordered_start(self, bounds, value) -> None:
        index = worksharing.linear_index(bounds, value)
        tool = self.tool
        if tool is None:
            worksharing.ordered_start(bounds, index)
            return
        thread = bounds[2].thread_num
        tool.sync_region(thread, "ordered", "enter", None)
        begin = time.perf_counter()
        worksharing.ordered_start(bounds, index, tool)
        tool.sync_region(thread, "ordered", "release",
                         time.perf_counter() - begin)

    def ordered_end(self, bounds, value) -> None:
        worksharing.ordered_end(
            bounds, worksharing.linear_index(bounds, value))

    # ------------------------------------------------------------------
    # Worksharing: sections / single

    def sections_begin(self, count: int):
        return worksharing.sections_begin(self, count)

    def sections_next(self, state) -> int:
        return worksharing.sections_next(state)

    def sections_last(self, state) -> bool:
        return state.executed_last

    def sections_end(self, state, nowait: bool = False) -> None:
        if not nowait:
            self.barrier()

    def single_begin(self):
        return worksharing.single_begin(self)

    def single_end(self, state, nowait: bool = False) -> None:
        if not nowait:
            self.barrier()

    def copyprivate_set(self, state, payload) -> None:
        worksharing.copyprivate_set(state, payload)

    def copyprivate_get(self, state):
        tool = self.tool
        if tool is None:
            return worksharing.copyprivate_get(state)
        thread = self.get_thread_num()
        tool.sync_region(thread, "copyprivate", "enter", None)
        begin = time.perf_counter()
        payload = worksharing.copyprivate_get(state, tool, thread)
        tool.sync_region(thread, "copyprivate", "release",
                         time.perf_counter() - begin)
        return payload

    def master_begin(self) -> bool:
        return self.current_frame().thread_num == 0

    # ------------------------------------------------------------------
    # Synchronization

    def barrier(self) -> None:
        frame = self.current_frame()
        if frame.kind == "task":
            raise OmpRuntimeError("barrier inside an explicit task")
        tool = self.tool
        if tool is not None:
            tool.sync_region(frame.thread_num, "barrier", "enter", None)
            begin = time.perf_counter()
        team = frame.team
        team.barrier.wait(team, self._run_one_task, frame.thread_num)
        # A released barrier implies every team task completed, so the
        # frame's dependence history and child list are all dead weight.
        self._prune_dependences(frame)
        frame.children.clear()
        if tool is not None:
            tool.sync_region(frame.thread_num, "barrier", "release",
                             time.perf_counter() - begin)

    # critical/atomic test for "no tool" themselves: going through
    # locks.acquire/release for the bare lock costs the disarmed pair
    # a third more (critical) to two thirds more (atomic).

    def critical_enter(self, name: str = "") -> None:
        lock = self._critical_lock(name)
        if self.tool is None:
            lock.acquire()
        else:
            locks.acquire(self, lock, "critical", name)

    def critical_exit(self, name: str = "") -> None:
        lock = self._critical_lock(name)
        if self.tool is None:
            lock.release()
        else:
            locks.release(self, lock, "critical", name)

    def _critical_lock(self, name: str):
        lock = self._criticals.get(name)
        if lock is None:
            with self._criticals_lock:
                lock = self._criticals.setdefault(
                    name, self.lowlevel.make_mutex())
        return lock

    def atomic_enter(self) -> None:
        if self.tool is None:
            self._atomic_mutex.acquire()
        else:
            locks.acquire(self, self._atomic_mutex, "atomic", "atomic")

    def atomic_exit(self) -> None:
        if self.tool is None:
            self._atomic_mutex.release()
        else:
            locks.release(self, self._atomic_mutex, "atomic", "atomic")

    def mutex_lock(self) -> None:
        """Team mutex used by generated reduction epilogues."""
        self.current_frame().team.mutex.acquire()

    def mutex_unlock(self) -> None:
        self.current_frame().team.mutex.release()

    def flush(self, *_names) -> None:
        """No-op: CPython's memory model already sequences the accesses
        a flush would order; kept for tracing and API fidelity."""

    # ------------------------------------------------------------------
    # Tasking

    def task_submit(self, fn, if_=True, depends_in=(),
                    depends_out=()) -> None:
        """Submit an explicit task.

        ``depends_in``/``depends_out`` carry the *objects* named by
        ``depend(in:...)``/``depend(out:...)``/``depend(inout:...)``
        clauses; dependences are keyed by object identity, the paper's
        Section V sketch (with its documented caveat for equal-valued
        immutables — interning can alias such keys).
        """
        frame = self.current_frame()
        team = frame.team
        node = TaskNode(fn, team, self.lowlevel)
        tool = self.tool
        if tool is not None:
            tool.task_create(frame.thread_num, id(node))
        predecessors = self._resolve_dependences(frame, node, depends_in,
                                                 depends_out)
        if not if_:
            # if(false): the task is undeferred — the encountering
            # thread executes it immediately (OpenMP 3.0 §2.7), but
            # only once its dependences are satisfied.  While a
            # predecessor runs elsewhere, this thread helps with other
            # team tasks instead of blocking — which also keeps a
            # single-thread team live when the predecessor is still
            # sitting unclaimed in a deque.
            if predecessors and not self._await_predecessors(
                    frame, predecessors):
                return
            team.pending.fetch_add(1)
            frame.children.append(node)
            node.claim()
            self._execute_task_node(node)
            return
        team.pending.fetch_add(1)
        frame.children.append(node)
        if predecessors:
            from repro.runtime.tasking import WAITING
            node.state.store(WAITING)
            if tool is not None:
                # Before add_successor, so the task is announced as
                # deferred ahead of any thread scheduling it.
                tool.task_dependences(frame.thread_num, id(node),
                                      predecessors)
            # +1 keeps the count from reaching zero before this thread
            # finishes registering with every predecessor.
            node.deps_remaining.store(len(predecessors) + 1)
            already_done = sum(
                1 for predecessor in predecessors
                if not predecessor.add_successor(node))
            remaining = node.deps_remaining.fetch_add(
                -(already_done + 1))
            if remaining - (already_done + 1) > 0:
                return  # a predecessor's completion will release it
        self._release_task(node, frame.thread_num)

    def _await_predecessors(self, frame: TaskFrame, predecessors) -> bool:
        """An undeferred task's dependence wait: help with team tasks
        until every predecessor is done.  ``False`` when the team broke
        meanwhile (the region is being torn down; the task is dropped).
        """
        team = frame.team
        thread = frame.thread_num
        tool = self.tool
        if tool is not None:
            tool.sync_region(thread, "dependence", "enter", None)
            begin = time.perf_counter()
        for predecessor in predecessors:
            backoff = BACKOFF_MIN
            while not (predecessor.done or team.broken):
                if self._run_one_task(team, thread):
                    backoff = BACKOFF_MIN
                    continue
                # Backoff fallback: completion sets the event, so the
                # timeout only bounds breakage detection.
                park(tool, thread, predecessor, predecessor.event.wait,
                     backoff)
                backoff = next_backoff(backoff)
        if tool is not None:
            tool.sync_region(thread, "dependence", "release",
                             time.perf_counter() - begin)
        return not team.broken

    def _release_task(self, node: TaskNode, thread_num: int) -> None:
        """Make a (possibly formerly WAITING) task claimable by pushing
        it onto ``thread_num``'s deque, then signal any sleeping
        waiters (the push must be visible before the poke)."""
        from repro.runtime.tasking import FREE, WAITING
        node.state.compare_exchange(WAITING, FREE)
        node.team.scheduler.push(thread_num, node)
        node.team.barrier.poke()

    def _resolve_dependences(self, frame: TaskFrame, node: TaskNode,
                             depends_in, depends_out) -> list[TaskNode]:
        if not depends_in and not depends_out:
            return []
        predecessors: dict[int, TaskNode] = {}
        out_ids = {id(obj) for obj in depends_out}
        for obj in depends_in:
            if id(obj) in out_ids:
                continue  # inout: the out rules below subsume it
            writer, readers = frame.depend_map.get(id(obj), (None, []))
            if writer is not None:
                predecessors[id(writer)] = writer
            frame.depend_map.setdefault(id(obj), (None, []))
            frame.depend_map[id(obj)][1].append(node)
            frame.depend_refs[id(obj)] = obj
        for obj in depends_out:
            writer, readers = frame.depend_map.get(id(obj), (None, []))
            if writer is not None:
                predecessors[id(writer)] = writer
            for reader in readers:
                predecessors[id(reader)] = reader
            frame.depend_map[id(obj)] = (node, [])
            frame.depend_refs[id(obj)] = obj
        predecessors.pop(id(node), None)
        return list(predecessors.values())

    def task_wait(self) -> None:
        """Complete all direct children of the current task."""
        frame = self.current_frame()
        team = frame.team
        tool = self.tool
        if tool is not None:
            tool.sync_region(frame.thread_num, "taskwait", "enter", None)
            begin = time.perf_counter()
        backoff = BACKOFF_MIN
        while not team.broken:
            incomplete = [c for c in frame.children if not c.done]
            if not incomplete:
                break
            progressed = False
            for child in incomplete:
                if child.claim():
                    self._execute_task_node(child)
                    progressed = True
            if progressed:
                backoff = BACKOFF_MIN
                continue
            # Children are running elsewhere or waiting on dependences:
            # a taskwait is a scheduling point, so help with any team
            # task before sleeping on a child's completion event.  The
            # timeout is the bounded-backoff safety net (breakage, or a
            # child released onto another thread's deque mid-sleep).
            if self._run_one_task(team, frame.thread_num):
                backoff = BACKOFF_MIN
                continue
            park(tool, frame.thread_num, incomplete,
                 incomplete[0].event.wait, backoff)
            backoff = next_backoff(backoff)
        if tool is not None:
            tool.sync_region(frame.thread_num, "taskwait", "release",
                             time.perf_counter() - begin)
        frame.children.clear()
        self._prune_dependences(frame)

    def _prune_dependences(self, frame: TaskFrame) -> None:
        """Drop dependence entries whose writer and readers have all
        completed (taskwait and region-end bookkeeping).

        Without this the per-frame history — and, through
        ``depend_refs``, every object ever named in a depend clause —
        grows for the life of the region, which for the never-popped
        implicit frame of an initial thread means the life of the
        program.
        """
        depend_map = frame.depend_map
        if not depend_map:
            return
        dead = [key for key, (writer, readers) in depend_map.items()
                if (writer is None or writer.done)
                and all(reader.done for reader in readers)]
        for key in dead:
            del depend_map[key]
            frame.depend_refs.pop(key, None)

    def _run_one_task(self, team, thread_num: int) -> bool:
        """Claim and execute one task from the team's scheduler.

        The callback behind every scheduling point (barrier drain,
        taskwait, undeferred-dependence waits).  Fires the steal
        instrumentation when the claimed task came from another
        thread's deque.
        """
        claimed = team.scheduler.claim(thread_num)
        if claimed is None:
            return False
        node, victim = claimed
        if victim != thread_num:
            tool = self.tool
            if tool is not None:
                tool.task_steal(thread_num, id(node), victim)
        self._execute_task_node(node)
        return True

    def _execute_task_node(self, node: TaskNode) -> None:
        frame = self.current_frame()
        stack = self._stack()
        child = TaskFrame(node.team, frame.thread_num, frame, "task",
                          frame.nthreads_var)
        child.task_id = id(node)
        stack.append(child)
        tool = self.tool
        if tool is not None:
            tool.task_schedule(frame.thread_num, id(node))
        try:
            node.fn()
        except BaseException as error:  # noqa: BLE001 - raised at join
            node.team.record_error(frame.thread_num, error)
        finally:
            stack.pop()
            if tool is not None:
                # Before finish() wakes waiters, so a trace orders a
                # task's end ahead of the taskwait it releases.
                tool.task_complete(frame.thread_num, id(node))
            ready = node.finish()
            node.team.pending.fetch_add(-1)
            for successor in ready:
                self._release_task(successor, frame.thread_num)
            node.team.barrier.poke()

    # ------------------------------------------------------------------
    # Reductions

    @staticmethod
    def reduction_init(op: str):
        return reduction.reduction_init(op)

    @staticmethod
    def reduction_combine(op: str, out, value):
        return reduction.reduction_combine(op, out, value)

    @staticmethod
    def declare_reduction(name: str, combiner, initializer) -> None:
        reduction.declare_reduction(name, combiner, initializer)

    # ------------------------------------------------------------------
    # Threadprivate

    def _tp_dict(self) -> dict:
        values = getattr(self._tp_local, "values", None)
        if values is None:
            values = {}
            self._tp_local.values = values
        return values

    def tp_load(self, key: str, name: str, globalns: dict):
        values = self._tp_dict()
        if key not in values:
            if name not in globalns:
                raise OmpRuntimeError(
                    f"threadprivate variable {name!r} has no initial value")
            values[key] = globalns[name]
        return values[key]

    def tp_store(self, key: str, value) -> None:
        self._tp_dict()[key] = value

    # ------------------------------------------------------------------
    # OpenMP runtime library API

    def set_num_threads(self, count: int) -> None:
        if count < 1:
            raise OmpRuntimeError("omp_set_num_threads requires >= 1")
        self.current_frame().nthreads_var = int(count)

    def get_num_threads(self) -> int:
        return self.current_frame().team.size

    def get_max_threads(self) -> int:
        return self.current_frame().nthreads_var

    def get_thread_num(self) -> int:
        return self.current_frame().thread_num

    @staticmethod
    def get_num_procs() -> int:
        """``omp_get_num_procs``: CPUs this *process* may use.

        Affinity/cgroup-aware (``os.process_cpu_count`` on 3.13+), so
        team sizing on a restricted runner — the free-threaded CI leg
        runs on shared machines — matches the cores actually grantable
        instead of the whole box.
        """
        return env.available_cpus()

    def in_parallel(self) -> bool:
        return self.current_frame().team.active_level > 0

    def get_num_places(self) -> int:
        """``omp_get_num_places``: places parsed from ``OMP_PLACES``."""
        return len(self._binder.places)

    def get_place_num(self) -> int:
        """``omp_get_place_num``: the calling thread's place, or -1
        when it is unbound (no places, bind disabled, or platform
        without ``sched_setaffinity``)."""
        return self._binder.place_num()

    def get_proc_bind(self) -> str:
        """Effective ``bind-var`` (normalized: ``false``/``primary``/
        ``close``/``spread``)."""
        return self._binder.proc_bind

    def set_affinity(self, places_spec: str | None,
                     proc_bind: str = "close") -> None:
        """Rebuild the affinity binder from an explicit places spec.

        The programmatic counterpart of ``OMP_PLACES``/
        ``OMP_PROC_BIND`` for callers that re-partition at run time —
        the serving layer binds each worker process to its tenant's
        CPU partition per job (:mod:`repro.serve`).  ``None`` restores
        the unbound default.  Idempotent per spec, so repeating a
        job's partition costs one tuple compare.
        """
        spec = (places_spec, proc_bind)
        if spec == self._affinity_spec:
            return
        from repro.affinity import Binder, parse_places
        places = parse_places(places_spec) if places_spec else ()
        self._binder = Binder(places, proc_bind if places else "false")
        self._affinity_spec = spec

    def get_wait_policy(self) -> str:
        """Effective ``wait-policy-var`` (``active`` or ``passive``)."""
        return self._wait_policy

    def set_dynamic(self, flag: bool) -> None:
        self._dyn = bool(flag)

    def get_dynamic(self) -> bool:
        return self._dyn

    def set_nested(self, flag: bool) -> None:
        self._nest = bool(flag)

    def get_nested(self) -> bool:
        return self._nest

    def set_schedule(self, kind, chunk=None) -> None:
        if isinstance(kind, int):
            if kind not in _SCHEDULE_ENUM:
                raise OmpRuntimeError(f"invalid schedule enum {kind}")
            kind = _SCHEDULE_ENUM[kind]
        kind = str(kind).lower()
        if kind not in _SCHEDULE_NAMES:
            raise OmpRuntimeError(f"invalid schedule kind {kind!r}")
        self._run_sched = (kind, int(chunk) if chunk else None)

    def get_schedule(self) -> tuple[str, int | None]:
        return self._run_sched

    def get_thread_limit(self) -> int:
        return self._thread_limit

    def set_max_active_levels(self, levels: int) -> None:
        self._max_active_levels = max(0, int(levels))

    def get_max_active_levels(self) -> int:
        return self._max_active_levels

    def get_level(self) -> int:
        return self.current_frame().team.level

    def get_active_level(self) -> int:
        return self.current_frame().team.active_level

    def get_ancestor_thread_num(self, level: int) -> int:
        frame = self.current_frame()
        if level < 0 or level > frame.team.level:
            return -1
        while frame.team.level > level:
            frame = frame.team.parent_frame
        return frame.thread_num

    def get_team_size(self, level: int) -> int:
        frame = self.current_frame()
        if level < 0 or level > frame.team.level:
            return -1
        while frame.team.level > level:
            frame = frame.team.parent_frame
        return frame.team.size

    def display_env(self, verbose: bool = False) -> None:
        """Print the ICVs in the OpenMP ``OMP_DISPLAY_ENV`` format.

        The snapshot comes from :mod:`repro.diagnostics.envreport`, the
        same source the watchdog reports and ``repro.doctor env`` use,
        so every diagnostic surface shows one consistent ICV view.
        """
        import sys as _sys
        from repro.diagnostics.envreport import (format_display_env,
                                                 icv_snapshot)
        snapshot = icv_snapshot(self, verbose=verbose)
        print(format_display_env(snapshot, runtime_name=self.name),
              file=_sys.stderr)

    @staticmethod
    def get_wtime() -> float:
        return time.perf_counter()

    @staticmethod
    def get_wtick() -> float:
        return time.get_clock_info("perf_counter").resolution

    # Lock API -----------------------------------------------------------

    def init_lock(self) -> OmpLock:
        return OmpLock(self.lowlevel, runtime=self)

    def init_nest_lock(self) -> OmpNestLock:
        return OmpNestLock(self.lowlevel, runtime=self)

    @staticmethod
    def destroy_lock(lock) -> None:
        lock.destroy()

    destroy_nest_lock = destroy_lock

    @staticmethod
    def set_lock(lock) -> None:
        lock.set()

    set_nest_lock = set_lock

    @staticmethod
    def unset_lock(lock) -> None:
        lock.unset()

    unset_nest_lock = unset_lock

    @staticmethod
    def test_lock(lock):
        return lock.test()

    test_nest_lock = test_lock

    # Misc ----------------------------------------------------------------

    #: Sentinel re-exported for generated ``private`` initialisation.
    UNDEFINED = UNDEFINED

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<OmpRuntime {self.name}>"


class _TPMissingType:
    __slots__ = ()


_TP_MISSING = _TPMissingType()
