"""Regression tests for the work-stealing scheduler rework.

Each class pins one of the fixes that landed with the scheduler:

* the collapse-aware ordered index (``linear_index`` used to map
  collapsed linear values through the outer triplet alone);
* the ``Barrier.poke`` lost-wakeup race (the count was read outside the
  condition lock) and the event-driven protocol's liveness without the
  backoff timeout;
* unbounded ``depend_map``/``depend_refs`` growth across task
  generations;
* task-count conservation under concurrent stealing;
* the undeferred-task-behind-a-deferred-predecessor deadlock on a
  single-thread team.
"""

import threading

import pytest

from repro.cruntime import cruntime
from repro.errors import OmpRuntimeError
from repro.ompt.metrics import MetricsTool
from repro.runtime import pure_runtime
from repro.runtime.team import Barrier, Team
from repro.runtime.worksharing import (collapsed_index, linear_index,
                                       make_bounds)


@pytest.fixture(params=["pure", "cruntime"])
def rt(request):
    return pure_runtime if request.param == "pure" else cruntime


def run_with_watchdog(fn, timeout=30.0):
    """Run ``fn`` on a daemon thread; fail instead of hanging forever."""
    errors = []

    def target():
        try:
            fn()
        except BaseException as error:  # noqa: BLE001 - re-raised below
            errors.append(error)

    worker = threading.Thread(target=target, daemon=True)
    worker.start()
    worker.join(timeout)
    assert not worker.is_alive(), f"deadlock: still running after {timeout}s"
    if errors:
        raise errors[0]


# -- collapse-aware ordered index ------------------------------------------


class TestCollapsedOrderedIndex:
    """``linear_index`` with collapse(2) bounds whose outer loop is
    ``range(10, 16, 2)``: 3 x 4 = 12 iterations."""

    def _bounds(self):
        return make_bounds([10, 16, 2, 0, 4, 1])

    def test_collapsed_int_is_identity(self):
        # The generated collapse driver iterates the linear space
        # directly, so the value already *is* the position.  The
        # pre-fix code mapped it through the outer triplet:
        # (7 - 10) // 2 == -2.
        bounds = self._bounds()
        for linear in range(12):
            assert linear_index(bounds, linear) == linear

    def test_collapsed_tuple_maps_through_all_triplets(self):
        bounds = self._bounds()
        expected = 0
        for i in range(10, 16, 2):
            for j in range(4):
                assert linear_index(bounds, (i, j)) == expected
                assert collapsed_index(bounds, (i, j)) == expected
                expected += 1

    def test_single_loop_maps_through_triplet(self):
        bounds = make_bounds([10, 16, 2])
        assert [linear_index(bounds, value)
                for value in range(10, 16, 2)] == [0, 1, 2]

    def test_tuple_arity_mismatch_raises(self):
        with pytest.raises(OmpRuntimeError):
            collapsed_index(self._bounds(), (10,))

    def test_empty_collapsed_space(self):
        bounds = make_bounds([0, 0, 1, 0, 4, 1])
        assert collapsed_index(bounds, (0, 0)) == 0


class TestCollapsedOrderedEndToEnd:
    def test_ordered_sequences_nonzero_start_and_step(self, rt):
        """Hand-driven collapse(2) ordered loop whose outer triplet
        starts at 10 with step 2 — the shape the pre-fix index mangled
        into negative (colliding) ordered tickets."""
        log = []
        lock = threading.Lock()

        def region():
            bounds = rt.for_bounds([10, 16, 2, 0, 4, 1])
            rt.for_init(bounds, kind="dynamic", chunk=1, ordered=True)
            info = bounds[2]
            inner = info.inner_trips
            while rt.for_next(bounds):
                for linear in range(bounds[0], bounds[1]):
                    i = 10 + (linear // inner) * 2
                    j = linear % inner
                    rt.ordered_start(bounds, linear)
                    with lock:
                        log.append((i, j))
                    rt.ordered_end(bounds, linear)
            rt.for_end(bounds)

        run_with_watchdog(
            lambda: rt.parallel_run(region, num_threads=3))
        assert log == [(i, j) for i in range(10, 16, 2)
                       for j in range(4)]

    def test_ordered_tuple_form(self, rt):
        """The runtime-API tuple form: per-level loop-variable values
        instead of the precomputed linear number."""
        log = []

        def region():
            bounds = rt.for_bounds([4, 10, 3, 0, 2, 1])
            rt.for_init(bounds, kind="static", chunk=1, ordered=True)
            inner = bounds[2].inner_trips
            while rt.for_next(bounds):
                for linear in range(bounds[0], bounds[1]):
                    i = 4 + (linear // inner) * 3
                    j = linear % inner
                    rt.ordered_start(bounds, (i, j))
                    log.append((i, j))
                    rt.ordered_end(bounds, (i, j))
            rt.for_end(bounds)

        run_with_watchdog(
            lambda: rt.parallel_run(region, num_threads=2))
        assert log == [(i, j) for i in range(4, 10, 3)
                       for j in range(2)]


# -- barrier signalling ----------------------------------------------------


class TestBarrierPoke:
    def test_poke_synchronizes_on_condition_lock(self):
        """``poke`` must take the condition lock before deciding whether
        anyone needs waking.  The pre-fix code read the arrival count
        outside the lock and returned immediately, so a poke could slip
        between a waiter's failed re-check and its ``cond.wait`` — here
        it would *not* block while the test holds the lock."""
        barrier = Team(pure_runtime, None, 2).barrier
        entered = threading.Event()

        def poker():
            barrier.poke()
            entered.set()

        with barrier.cond:
            worker = threading.Thread(target=poker, daemon=True)
            worker.start()
            assert not entered.wait(timeout=0.2), \
                "poke returned without acquiring the condition lock"
        worker.join(timeout=5.0)
        assert entered.is_set()

    def test_poke_wakes_registered_waiter(self):
        barrier = Team(pure_runtime, None, 2).barrier
        woken = threading.Event()

        def waiter():
            with barrier.cond:
                barrier.waiters += 1
                barrier.cond.wait(timeout=30.0)
                barrier.waiters -= 1
            woken.set()

        worker = threading.Thread(target=waiter, daemon=True)
        worker.start()
        while True:  # wait until the waiter is registered
            with barrier.cond:
                if barrier.waiters:
                    break
        barrier.poke()
        assert woken.wait(timeout=5.0)
        worker.join(timeout=5.0)

    def test_barrier_lives_without_backoff_fallback(self, rt, monkeypatch):
        """With the timeout safety net disabled, the signalling protocol
        alone must keep a tasking workload live: waiters sleeping at the
        barrier are woken for new tasks and for the final release."""
        original_init = Barrier.__init__

        def no_fallback_init(self):
            original_init(self)
            self.use_fallback = False

        monkeypatch.setattr(Barrier, "__init__", no_fallback_init)
        done = []
        lock = threading.Lock()

        def region():
            state = rt.single_begin()
            if state.selected:
                for index in range(120):
                    def work(i=index):
                        with lock:
                            done.append(i)
                    rt.task_submit(work)
            rt.single_end(state)

        run_with_watchdog(
            lambda: rt.parallel_run(region, num_threads=4))
        assert sorted(done) == list(range(120))


# -- dependence-history pruning --------------------------------------------


class TestDependenceHistoryPruning:
    def test_taskwait_prunes_depend_map(self, rt):
        sizes = []
        lock = threading.Lock()

        def region():
            token = object()
            for _ in range(25):
                rt.task_submit(lambda: None, depends_out=(token,))
                rt.task_submit(lambda: None, depends_in=(token,))
                rt.task_wait()
            frame = rt.current_frame()
            with lock:
                sizes.append((len(frame.depend_map),
                              len(frame.depend_refs)))

        rt.parallel_run(region, num_threads=2)
        assert sizes == [(0, 0), (0, 0)]

    def test_barrier_prunes_depend_map(self, rt):
        sizes = []
        lock = threading.Lock()

        def region():
            tokens = [object() for _ in range(10)]
            for token in tokens:
                rt.task_submit(lambda: None, depends_out=(token,))
            rt.barrier()
            frame = rt.current_frame()
            with lock:
                sizes.append((len(frame.depend_map),
                              len(frame.depend_refs),
                              len(frame.children)))

        rt.parallel_run(region, num_threads=2)
        assert sizes == [(0, 0, 0), (0, 0, 0)]


# -- stealing stress -------------------------------------------------------


class TestWorkStealingConservation:
    def test_recursive_tasks_conserved_and_attributed(self, rt):
        """Every submitted task executes exactly once (no loss, no
        double execution) and every execution is attributed as either a
        local hit or a steal in the metrics."""
        executed = []
        lock = threading.Lock()
        total = 400

        def region():
            state = rt.single_begin()
            if state.selected:
                def spawn(low, high):
                    if high - low <= 4:
                        with lock:
                            executed.extend(range(low, high))
                        return
                    mid = (low + high) // 2
                    rt.task_submit(lambda: spawn(low, mid))
                    rt.task_submit(lambda: spawn(mid, high))
                spawn(0, total)
            rt.single_end(state)

        tool = MetricsTool()
        rt.attach_tool(tool)
        try:
            run_with_watchdog(
                lambda: rt.parallel_run(region, num_threads=4))
        finally:
            rt.detach_tool(tool)

        assert len(executed) == total  # no leaf ran twice
        assert sorted(executed) == list(range(total))

        data = tool.registry.as_dict()

        def counter_total(name):
            family = data.get(name)
            if family is None:
                return 0
            return sum(sample["value"] for sample in family["samples"])

        created = counter_total("omp_tasks_created_total")
        scheduled = counter_total("omp_tasks_executed_total")
        local = counter_total("omp_task_local_hits_total")
        steals = counter_total("omp_task_steals_total")
        assert created == scheduled
        assert local + steals == scheduled
        assert created > 0
        assert not tool._tasks  # every created task also completed


# -- undeferred task behind a deferred predecessor -------------------------


class TestUndeferredDependencePredecessor:
    def test_single_thread_team_does_not_deadlock(self, rt):
        """A deferred task A sits unclaimed in the deque when an
        undeferred task B depending on A is submitted on a one-thread
        team.  The encountering thread must help execute A instead of
        spinning on its completion event forever (the pre-fix
        behaviour)."""
        order = []

        def region():
            token = object()
            rt.task_submit(lambda: order.append("A"),
                           depends_out=(token,))
            rt.task_submit(lambda: order.append("B"), if_=False,
                           depends_in=(token,))

        run_with_watchdog(
            lambda: rt.parallel_run(region, num_threads=1))
        assert order == ["A", "B"]
