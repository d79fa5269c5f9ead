"""Tests of the persistent hot-team worker pool (runtime/pool.py).

Engine-level tests drive the singleton runtimes' pools through
``parallel_run``; lifecycle tests (trim, shutdown, tool callbacks) use
a standalone :class:`WorkerPool` with a tiny idle timeout so they never
perturb the shared pool other suites rely on.
"""

import threading
import time

import pytest

from repro.cruntime import cruntime
from repro.ompt.hooks import CALLBACK_NAMES, ToolHooks
from repro.runtime import pure_runtime
from repro.runtime.engine import OmpRuntime
from repro.runtime.pool import WorkerPool


@pytest.fixture(params=["pure", "cruntime"])
def rt(request):
    return pure_runtime if request.param == "pure" else cruntime


def _wait_until(predicate, timeout=8.0, step=0.01):
    deadline = time.perf_counter() + timeout
    while time.perf_counter() < deadline:
        if predicate():
            return True
        time.sleep(step)
    return predicate()


class RecordingTool(ToolHooks):
    def __init__(self):
        self.calls = []


def _recorder(name):
    def method(self, *args):
        self.calls.append((name, args))
    return method


for _name in CALLBACK_NAMES:
    setattr(RecordingTool, _name, _recorder(_name))


# -- engine integration -----------------------------------------------------


class TestHotTeamsThroughEngine:
    def test_worker_identity_stable_across_regions(self, rt):
        """Back-to-back same-size regions reuse the same native
        threads: after a warm-up region, no new workers are spawned."""
        idents_per_region = []

        def body():
            idents_per_region[-1].add(threading.get_ident())

        idents_per_region.append(set())
        rt.parallel_run(body, num_threads=4)  # warm the pool
        spawned_before = rt.pool().spawned_total
        reused_before = rt.pool().reused_total
        for _ in range(5):
            idents_per_region.append(set())
            rt.parallel_run(body, num_threads=4)
        assert rt.pool().spawned_total == spawned_before
        assert rt.pool().reused_total == reused_before + 15
        warm = idents_per_region[0]
        assert all(region == warm for region in idents_per_region[1:])

    def test_growth_under_nested_parallelism(self, rt):
        """Nested regions need helpers while the outer helpers are
        busy: the pool must grow instead of deadlocking, and every
        implicit task must run."""
        ran = []
        ran_lock = threading.Lock()
        prior = rt.get_nested()
        rt.set_nested(True)
        try:
            def inner():
                with ran_lock:
                    ran.append(rt.get_thread_num())

            def outer():
                rt.parallel_run(inner, num_threads=2)

            rt.parallel_run(outer, num_threads=2)
        finally:
            rt.set_nested(prior)
        assert sorted(ran) == [0, 0, 1, 1]

    def test_team_of_one_never_creates_the_pool(self, rt):
        """``num_threads(1)`` and ``if(false)`` regions run on the
        encountering thread alone: no pool, no worker thread."""
        fresh = OmpRuntime("fresh", rt.lowlevel)
        sizes = []
        fresh.parallel_run(lambda: sizes.append(fresh.get_num_threads()),
                           num_threads=1)
        fresh.parallel_run(lambda: sizes.append(fresh.get_num_threads()),
                           num_threads=4, if_=False)
        assert sizes == [1, 1]
        assert fresh._pool is None

    def test_region_errors_propagate_through_pool(self, rt):
        from repro.errors import OmpRuntimeError

        def body():
            if rt.get_thread_num() == 1:
                raise ValueError("worker boom")

        with pytest.raises(OmpRuntimeError):
            rt.parallel_run(body, num_threads=3)
        # The pool must still be healthy after a failed region.
        rt.parallel_run(lambda: None, num_threads=3)

    def test_concurrent_masters_share_one_pool(self, rt):
        """parallel_run from several external threads at once: the pool
        serves all of them without cross-wiring members."""
        results = {}
        results_lock = threading.Lock()

        def run_region(tag):
            local = []

            def body():
                local.append(rt.get_thread_num())

            rt.parallel_run(body, num_threads=2)
            with results_lock:
                results[tag] = sorted(local)

        masters = [threading.Thread(target=run_region, args=(tag,))
                   for tag in range(4)]
        for master in masters:
            master.start()
        for master in masters:
            master.join()
        assert results == {tag: [0, 1] for tag in range(4)}


# -- standalone pool lifecycle ----------------------------------------------


class TestPoolLifecycle:
    def _run_region(self, pool, count):
        ran = []
        ran_lock = threading.Lock()

        def member(index):
            with ran_lock:
                ran.append(index)

        ticket = pool.run_helpers(member, count)
        pool.wait(ticket)
        return sorted(ran)

    def test_zero_helpers_is_a_noop(self, rt):
        pool = WorkerPool(rt, idle_timeout=1.0)
        assert pool.run_helpers(lambda index: None, 0) is None
        pool.wait(None)
        assert pool.size() == 0

    def test_reuse_then_idle_trim(self, rt):
        pool = WorkerPool(rt, idle_timeout=0.08)
        assert self._run_region(pool, 2) == [1, 2]
        assert pool.spawned_total == 2
        assert self._run_region(pool, 2) == [1, 2]
        assert pool.spawned_total == 2
        assert pool.reused_total == 2
        assert _wait_until(lambda: pool.size() == 0)
        assert pool.trimmed_total == 2
        # A trimmed pool serves the next region by spawning afresh.
        assert self._run_region(pool, 1) == [1]
        assert pool.spawned_total == 3
        pool.shutdown()

    def test_shutdown_retires_parked_workers(self, rt):
        pool = WorkerPool(rt, idle_timeout=30.0)
        self._run_region(pool, 3)
        assert pool.idle_count() == 3
        pool.shutdown()
        assert pool.size() == 0
        assert pool.idle_count() == 0

    def test_wait_policy_active_completes(self, rt):
        pool = WorkerPool(rt, idle_timeout=1.0, wait_policy="active")
        assert self._run_region(pool, 2) == [1, 2]
        assert self._run_region(pool, 2) == [1, 2]
        assert pool.reused_total == 2
        pool.shutdown()

    def test_member_exception_does_not_kill_worker(self, rt):
        pool = WorkerPool(rt, idle_timeout=1.0)

        def exploding(index):
            raise RuntimeError("member blew up")

        ticket = pool.run_helpers(exploding, 2)
        pool.wait(ticket)
        assert pool.idle_count() == 2  # workers survived and re-parked
        assert self._run_region(pool, 2) == [1, 2]
        pool.shutdown()


# -- OMPT thread lifecycle callbacks ----------------------------------------


class TestPoolToolCallbacks:
    def _calls(self, tool, name):
        return [args for called, args in tool.calls if called == name]

    def test_pool_worker_lifecycle_events(self, rt):
        tool = RecordingTool()
        pool = WorkerPool(rt, idle_timeout=30.0)
        rt.attach_tool(tool)
        try:
            ticket = pool.run_helpers(lambda index: None, 2)
            pool.wait(ticket)
            # thread_begin and the park's idle-"begin" both
            # happen-before the region ticket completes.
            begins = self._calls(tool, "thread_begin")
            assert [args[0] for args in begins] == ["pool-worker"] * 2
            idles = self._calls(tool, "thread_idle")
            assert [args[1] for args in idles] == ["begin", "begin"]

            ticket = pool.run_helpers(lambda index: None, 2)
            pool.wait(ticket)
            endpoints = [args[1]
                         for args in self._calls(tool, "thread_idle")]
            assert endpoints.count("end") == 2  # the two reuses
            assert endpoints.count("begin") == 4

            pool.shutdown()
            ends = self._calls(tool, "thread_end")
            assert [args[0] for args in ends] == ["pool-worker"] * 2
        finally:
            rt.detach_tool(tool)

    def test_pool_counters_in_metrics_registry(self, rt):
        from repro.ompt.metrics import MetricsTool

        tool = MetricsTool()
        pool = WorkerPool(rt, idle_timeout=30.0)
        rt.attach_tool(tool)
        try:
            for _ in range(3):
                ticket = pool.run_helpers(lambda index: None, 2)
                pool.wait(ticket)
            pool.shutdown()
        finally:
            rt.detach_tool(tool)
        data = tool.registry.as_dict()

        def total(metric):
            family = data.get(metric)
            if family is None:
                return 0
            return sum(s["value"] for s in family["samples"])

        assert total("omp_pool_spawns_total") == 2
        assert total("omp_pool_reuse_total") == 4
        assert total("omp_pool_trims_total") == 2
