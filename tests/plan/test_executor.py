"""Executor tests: exactly-once coverage, color barriers, in-region
re-execution, and team-size folding."""

import threading

import pytest

from repro.errors import OmpError
from repro.plan import Map, build_plan, execute, execute_member
from repro.runtime import pure_runtime
from repro.runtime.trace import Recorder


def _chain_map(n):
    return Map("exec-chain", [tuple(r for r in (i - 1, i, i + 1)
                                    if 0 <= r < n) for i in range(n)])


class TestExecute:
    def test_every_iteration_runs_exactly_once(self):
        n = 40
        plan = build_plan(_chain_map(n), 3)
        hits = [0] * n
        lock = threading.Lock()

        def body(lo, hi, thread_num):
            with lock:
                for i in range(lo, hi):
                    hits[i] += 1

        execute(plan, body, threads=4, runtime=pure_runtime)
        assert hits == [1] * n

    def test_single_thread(self):
        n = 10
        plan = build_plan(_chain_map(n), 2)
        order = []
        execute(plan, lambda lo, hi, t: order.append((lo, hi)),
                threads=1, runtime=pure_runtime)
        assert sorted(order) == sorted(plan.partitions)

    def test_empty_plan_skips_fork(self):
        plan = build_plan(Map("empty", []), 4)
        execute(plan, lambda *a: pytest.fail("body ran on empty plan"),
                threads=2, runtime=pure_runtime)

    def test_rejects_nested_call(self):
        plan = build_plan(_chain_map(4), 1)
        failures = []

        def member():
            try:
                execute(plan, lambda *a: None, runtime=pure_runtime)
            except OmpError:
                failures.append(pure_runtime.get_thread_num())

        pure_runtime.parallel_run(member, num_threads=2)
        assert sorted(failures) == [0, 1]

    def test_no_same_color_element_races(self):
        """Concurrent owners of one color never touch a shared
        element: per-element owner stamps stay single-writer within
        each color round."""
        n = 24
        the_map = _chain_map(n)
        plan = build_plan(the_map, 2)
        writer = {}
        errors = []

        def body(lo, hi, thread_num):
            for i in range(lo, hi):
                for element in the_map[i]:
                    prev = writer.setdefault(element, thread_num)
                    if prev != thread_num:
                        errors.append(element)

        # One color per round: clear the stamps at each boundary by
        # running colors through execute (barriers included) with a
        # fresh writer dict per execution round instead.
        for _ in range(3):
            writer.clear()
            schedule = plan.schedule_for(2)

            def member():
                thread_num = pure_runtime.get_thread_num()
                for per_thread in schedule:
                    for lo, hi in per_thread[thread_num]:
                        body(lo, hi, thread_num)
                    pure_runtime.barrier()
                    if thread_num == 0:
                        writer.clear()
                    pure_runtime.barrier()

            pure_runtime.parallel_run(member, num_threads=2)
        assert errors == []


class TestExecuteMember:
    def test_iterative_reexecution(self):
        n = 30
        steps = 4
        plan = build_plan(_chain_map(n), 2)
        hits = [0] * n
        lock = threading.Lock()

        def body(lo, hi, thread_num):
            with lock:
                for i in range(lo, hi):
                    hits[i] += 1

        def member():
            for _ in range(steps):
                execute_member(plan, body, runtime=pure_runtime)

        pure_runtime.parallel_run(member, num_threads=3)
        assert hits == [steps] * n

    def test_trailing_barrier_orders_steps(self):
        """No thread starts step k+1 while another is inside step k."""
        plan = build_plan(Map("disjoint", [[i] for i in range(8)]), 1)
        in_step = [0]
        max_skew = [0]
        lock = threading.Lock()

        def body(lo, hi, thread_num):
            with lock:
                in_step[0] += 1

        def member():
            for step in range(5):
                execute_member(plan, body, runtime=pure_runtime)
                with lock:
                    # After the trailing barrier every body call of the
                    # step has happened: the counter is a multiple of 8.
                    if in_step[0] % 8:
                        max_skew[0] += 1
                # Keep the next step's bodies out of the check window.
                pure_runtime.barrier()

        pure_runtime.parallel_run(member, num_threads=2)
        assert max_skew[0] == 0


class _StingyRuntime:
    """A single-member runtime that grants 1 thread whatever is asked —
    exercises the owner-folding path of :func:`execute`."""

    def __init__(self):
        self.tool = None
        self.tracer = Recorder()
        self._inside = False

    def in_parallel(self):
        return self._inside

    def get_max_threads(self):
        return 4

    def get_thread_limit(self):
        return 64

    def get_thread_num(self):
        return 0

    def get_num_threads(self):
        return 1

    def barrier(self):
        pass  # a single member never waits

    def parallel_run(self, fn, num_threads=None, **_kw):
        self._inside = True
        try:
            fn()
        finally:
            self._inside = False


class TestOwnerFolding:
    def test_undergranted_team_still_covers_every_partition(self):
        n = 20
        plan = build_plan(_chain_map(n), 2)
        hits = [0] * n

        def body(lo, hi, thread_num):
            for i in range(lo, hi):
                hits[i] += 1

        execute(plan, body, threads=4, runtime=_StingyRuntime())
        assert hits == [1] * n


class TestTraceEvents:
    def test_execute_records_plan_event(self):
        plan = build_plan(_chain_map(12), 3)
        pure_runtime.tracer.start()
        try:
            execute(plan, lambda *a: None, threads=2,
                    runtime=pure_runtime)
        finally:
            log = pure_runtime.tracer.stop()
        events = [e for e in log
                  if e.kind == "plan" and e.detail[0] == "execute"]
        assert len(events) == 1
        source, nparts, ncolors, edges = events[0].detail[1:5]
        assert source == "exec-chain"
        assert nparts == plan.npartitions
        assert ncolors == plan.ncolors
        assert edges == plan.conflict_edges

    def test_execute_member_records_once_per_step(self):
        plan = build_plan(_chain_map(12), 3)
        pure_runtime.tracer.start()
        try:
            def member():
                for _ in range(3):
                    execute_member(plan, lambda *a: None,
                                   runtime=pure_runtime)
            pure_runtime.parallel_run(member, num_threads=2)
        finally:
            log = pure_runtime.tracer.stop()
        events = [e for e in log
                  if e.kind == "plan" and e.detail[0] == "execute"]
        # Thread 0 reports each step exactly once for the whole team.
        assert len(events) == 3
        assert {e.thread for e in events} == {0}
