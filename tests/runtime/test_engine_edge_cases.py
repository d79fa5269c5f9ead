"""Edge cases of the runtime engine: sentinels, threadprivate storage,
collapse divisors, serialized regions, orphaned constructs."""

import threading

import pytest

from repro.cruntime import cruntime
from repro.errors import OmpRuntimeError
from repro.runtime import pure_runtime
from repro.runtime.engine import UNDEFINED


@pytest.fixture(params=["pure", "cruntime"])
def rt(request):
    return pure_runtime if request.param == "pure" else cruntime


class TestUndefinedSentinel:
    def test_truthiness_raises(self):
        with pytest.raises(OmpRuntimeError, match="uninitialized"):
            bool(UNDEFINED)

    def test_arithmetic_fails_loudly(self):
        with pytest.raises(TypeError):
            UNDEFINED + 1

    def test_exported_on_runtimes(self):
        assert pure_runtime.UNDEFINED is UNDEFINED
        assert cruntime.UNDEFINED is UNDEFINED


class TestCollapseDivisors:
    def test_two_level(self, rt):
        bounds = rt.for_bounds([0, 3, 1, 0, 5, 1])
        assert rt.collapse_divisors(bounds) == (5,)

    def test_three_level(self, rt):
        bounds = rt.for_bounds([0, 2, 1, 0, 3, 1, 0, 4, 1])
        assert rt.collapse_divisors(bounds) == (12, 4)

    def test_single_level_empty(self, rt):
        bounds = rt.for_bounds([0, 9, 1])
        assert rt.collapse_divisors(bounds) == ()


class TestThreadprivateStorage:
    def test_load_initializes_from_globals(self, rt):
        key = f"tp_test_{rt.name}_a"
        assert rt.tp_load(key, "value", {"value": 41}) == 41

    def test_store_overrides(self, rt):
        key = f"tp_test_{rt.name}_b"
        rt.tp_store(key, 10)
        assert rt.tp_load(key, "value", {}) == 10

    def test_missing_initial_value_raises(self, rt):
        with pytest.raises(OmpRuntimeError, match="no initial value"):
            rt.tp_load(f"tp_test_{rt.name}_c", "ghost", {})

    def test_values_are_per_thread(self, rt):
        key = f"tp_test_{rt.name}_d"
        rt.tp_store(key, "main")
        seen = {}

        def other():
            seen["other"] = rt.tp_load(key, "value", {"value": "fresh"})

        worker = threading.Thread(target=other)
        worker.start()
        worker.join()
        assert seen["other"] == "fresh"
        assert rt.tp_load(key, "value", {}) == "main"


class TestSerializedRegions:
    def test_worksharing_in_serial_region_runs_everything(self, rt):
        """An orphaned worksharing loop on the implicit serial team."""
        seen = []
        bounds = rt.for_bounds([0, 7, 1])
        rt.for_init(bounds, kind="dynamic", chunk=2, nowait=True)
        while rt.for_next(bounds):
            seen.extend(range(bounds[0], bounds[1]))
        assert seen == list(range(7))

    def test_single_in_serial_region(self, rt):
        state = rt.single_begin()
        assert state.selected
        rt.single_end(state, nowait=True)

    def test_barrier_in_serial_region_is_noop(self, rt):
        rt.barrier()  # must not hang

    def test_task_in_serial_region_completes_at_barrier(self, rt):
        done = []
        rt.task_submit(lambda: done.append(1))
        rt.barrier()
        assert done == [1]

    def test_taskwait_in_serial_region(self, rt):
        done = []
        rt.task_submit(lambda: done.append(1))
        rt.task_wait()
        assert done == [1]


class TestTeamSizeDecisions:
    def test_num_threads_argument_wins_over_icv(self, rt):
        old = rt.get_max_threads()
        rt.set_num_threads(2)
        sizes = []
        try:
            rt.parallel_run(lambda: sizes.append(rt.get_num_threads()),
                            num_threads=3)
        finally:
            rt.set_num_threads(old)
        assert sizes[0] == 3

    def test_icv_used_when_no_clause(self, rt):
        old = rt.get_max_threads()
        rt.set_num_threads(2)
        sizes = []
        try:
            rt.parallel_run(lambda: sizes.append(rt.get_num_threads()))
        finally:
            rt.set_num_threads(old)
        assert sizes == [2, 2]

    def test_invalid_num_threads(self, rt):
        with pytest.raises(OmpRuntimeError):
            rt.parallel_run(lambda: None, num_threads=0)

    def test_set_num_threads_inside_region_affects_next_fork(self, rt):
        rt.set_nested(True)
        inner_sizes = []

        def outer():
            rt.set_num_threads(3)
            rt.parallel_run(
                lambda: inner_sizes.append(rt.get_num_threads()))

        try:
            rt.parallel_run(outer, num_threads=1)
        finally:
            rt.set_nested(False)
        assert inner_sizes == [3, 3, 3]


class TestMutexAPI:
    def test_mutex_is_per_team(self, rt):
        """The reduction mutex guards concurrent merges."""
        shared = {"value": 0}

        def region():
            for _ in range(100):
                rt.mutex_lock()
                try:
                    shared["value"] += 1
                finally:
                    rt.mutex_unlock()

        rt.parallel_run(region, num_threads=4)
        assert shared["value"] == 400


class TestInterruptsLeaveTheRegionUnwrapped:
    """Ctrl-C and ``sys.exit`` in a member end the region as what they
    are; only an ordinary exception becomes an ``OmpRuntimeError``."""

    @pytest.mark.parametrize("member", [0, 1])
    def test_keyboard_interrupt(self, rt, member):
        def body():
            if rt.get_thread_num() == member:
                raise KeyboardInterrupt
        with pytest.raises(KeyboardInterrupt):
            rt.parallel_run(body, num_threads=2)

    def test_system_exit_keeps_its_code(self, rt):
        def body():
            raise SystemExit(3)
        with pytest.raises(SystemExit) as caught:
            rt.parallel_run(body, num_threads=2)
        assert caught.value.code == 3

    def test_an_interrupt_wins_over_another_members_error(self, rt):
        raised = threading.Event()

        def body():
            if rt.get_thread_num() == 1:
                raised.set()
                raise ValueError("first")
            raised.wait(5)
            raise KeyboardInterrupt
        with pytest.raises(KeyboardInterrupt):
            rt.parallel_run(body, num_threads=2)

    def test_an_ordinary_error_is_still_wrapped(self, rt):
        def body():
            raise ValueError("boom")
        with pytest.raises(OmpRuntimeError) as caught:
            rt.parallel_run(body, num_threads=2)
        assert isinstance(caught.value.__cause__, ValueError)
