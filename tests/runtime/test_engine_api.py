"""Tests of the OpenMP runtime library API on both runtimes."""

import gc
import threading

import pytest

from repro.cruntime import cruntime
from repro.errors import OmpRuntimeError
from repro.runtime import pure_runtime


@pytest.fixture(params=["pure", "cruntime"])
def rt(request):
    return pure_runtime if request.param == "pure" else cruntime


class TestInitialThreadContext:
    def test_outside_parallel(self, rt):
        assert rt.get_num_threads() == 1
        assert rt.get_thread_num() == 0
        assert not rt.in_parallel()
        assert rt.get_level() == 0
        assert rt.get_active_level() == 0

    def test_external_thread_is_independent_initial_thread(self, rt):
        results = {}

        def external():
            results["threads"] = rt.get_num_threads()
            results["num"] = rt.get_thread_num()

        worker = threading.Thread(target=external)
        worker.start()
        worker.join()
        assert results == {"threads": 1, "num": 0}


class TestNumThreadsControl:
    def test_set_get_max_threads(self, rt):
        old = rt.get_max_threads()
        try:
            rt.set_num_threads(3)
            assert rt.get_max_threads() == 3
        finally:
            rt.set_num_threads(old)

    def test_set_num_threads_rejects_zero(self, rt):
        with pytest.raises(OmpRuntimeError):
            rt.set_num_threads(0)

    def test_num_procs_positive(self, rt):
        assert rt.get_num_procs() >= 1


class TestInsideParallel:
    def test_team_queries(self, rt):
        seen = []

        def region():
            seen.append((rt.get_thread_num(), rt.get_num_threads(),
                         rt.in_parallel(), rt.get_level()))

        rt.parallel_run(region, num_threads=3)
        assert sorted(t[0] for t in seen) == [0, 1, 2]
        assert all(t[1] == 3 for t in seen)
        assert all(t[2] for t in seen)
        assert all(t[3] == 1 for t in seen)

    def test_if_false_serializes(self, rt):
        sizes = []
        rt.parallel_run(lambda: sizes.append(rt.get_num_threads()),
                        num_threads=4, if_=False)
        assert sizes == [1]

    def test_ancestor_and_team_size(self, rt):
        records = []

        def region():
            records.append((rt.get_ancestor_thread_num(0),
                            rt.get_ancestor_thread_num(1),
                            rt.get_team_size(0), rt.get_team_size(1),
                            rt.get_ancestor_thread_num(5)))

        rt.parallel_run(region, num_threads=2)
        for anc0, anc1, size0, size1, bogus in records:
            assert anc0 == 0
            assert anc1 in (0, 1)
            assert size0 == 1
            assert size1 == 2
            assert bogus == -1


class TestNesting:
    def test_nested_disabled_by_default(self, rt):
        inner_sizes = []

        def outer():
            rt.parallel_run(
                lambda: inner_sizes.append(rt.get_num_threads()),
                num_threads=2)

        assert not rt.get_nested()
        rt.parallel_run(outer, num_threads=2)
        assert inner_sizes == [1, 1]

    def test_nested_enabled(self, rt):
        inner = []

        def outer():
            rt.parallel_run(
                lambda: inner.append(
                    (rt.get_num_threads(), rt.get_level(),
                     rt.get_active_level())),
                num_threads=2)

        rt.set_nested(True)
        try:
            rt.parallel_run(outer, num_threads=2)
        finally:
            rt.set_nested(False)
        assert len(inner) == 4
        assert all(size == 2 and level == 2 and active == 2
                   for size, level, active in inner)

    def test_max_active_levels_cap(self, rt):
        inner_sizes = []

        def outer():
            rt.parallel_run(
                lambda: inner_sizes.append(rt.get_num_threads()),
                num_threads=2)

        rt.set_nested(True)
        rt.set_max_active_levels(1)
        try:
            rt.parallel_run(outer, num_threads=2)
        finally:
            rt.set_max_active_levels(2**31 - 1)
            rt.set_nested(False)
        assert inner_sizes == [1, 1]


class TestScheduleICV:
    def test_set_get_by_name(self, rt):
        rt.set_schedule("dynamic", 4)
        assert rt.get_schedule() == ("dynamic", 4)
        rt.set_schedule("static")
        assert rt.get_schedule() == ("static", None)

    def test_set_by_enum_value(self, rt):
        rt.set_schedule(3, 2)
        assert rt.get_schedule() == ("guided", 2)
        rt.set_schedule("static")

    def test_invalid_kind(self, rt):
        with pytest.raises(OmpRuntimeError):
            rt.set_schedule("bogus")


class TestDynamicFlag:
    def test_roundtrip(self, rt):
        rt.set_dynamic(True)
        assert rt.get_dynamic()
        rt.set_dynamic(False)
        assert not rt.get_dynamic()


class TestTimers:
    def test_wtime_monotonic(self, rt):
        first = rt.get_wtime()
        second = rt.get_wtime()
        assert second >= first

    def test_wtick_positive(self, rt):
        assert 0 < rt.get_wtick() < 1


class TestErrorPropagation:
    def test_exception_in_region_raises_at_join(self, rt):
        def region():
            if rt.get_thread_num() == 1:
                raise ValueError("boom")

        with pytest.raises(OmpRuntimeError) as excinfo:
            rt.parallel_run(region, num_threads=2)
        assert isinstance(excinfo.value.__cause__, ValueError)

    def test_region_error_does_not_poison_runtime(self, rt):
        with pytest.raises(OmpRuntimeError):
            rt.parallel_run(lambda: 1 / 0, num_threads=2)
        sizes = []
        rt.parallel_run(lambda: sizes.append(rt.get_num_threads()),
                        num_threads=2)
        assert sizes == [2, 2]


class TestSeparateContexts:
    def test_runtimes_do_not_share_settings(self):
        pure_runtime.set_num_threads(5)
        cruntime.set_num_threads(7)
        assert pure_runtime.get_max_threads() == 5
        assert cruntime.get_max_threads() == 7


class TestRegionsLeaveNoCycles:
    """A region's team is freed by reference counting when the region
    ends, not left to the cyclic collector."""

    def test_regions_leave_no_garbage(self, rt):
        def member():
            rt.task_submit(lambda: None)
            rt.barrier()

        rt.parallel_run(member, num_threads=2)  # the pool, warm
        gc.collect()
        gc.disable()
        try:
            for _ in range(20):
                rt.parallel_run(member, num_threads=2)
            assert gc.collect() == 0
        finally:
            gc.enable()
