"""Tests of the OMPT-style tool interface and its runtime dispatch."""

import pytest

from repro.cruntime import cruntime
from repro.ompt.hooks import CALLBACK_NAMES, ToolDispatcher, ToolHooks
from repro.runtime import pure_runtime


@pytest.fixture(params=["pure", "cruntime"])
def rt(request):
    return pure_runtime if request.param == "pure" else cruntime


class RecordingTool(ToolHooks):
    """Collects every callback as (name, args) tuples."""

    def __init__(self):
        self.calls = []


def _recorder(name):
    def method(self, *args):
        self.calls.append((name, args))
    return method


for _name in CALLBACK_NAMES:
    setattr(RecordingTool, _name, _recorder(_name))


@pytest.fixture
def tool(rt):
    tool = RecordingTool()
    rt.attach_tool(tool)
    yield tool
    rt.detach_tool(tool)


def _names(tool):
    return [name for name, _args in tool.calls]


class TestAttachDetach:
    def test_no_tool_by_default(self):
        assert pure_runtime.tool is None

    def test_single_tool_bound_directly(self, rt):
        tool = RecordingTool()
        rt.attach_tool(tool)
        try:
            assert rt.tool is tool
        finally:
            rt.detach_tool(tool)
        assert rt.tool is None

    def test_attach_is_idempotent(self, rt):
        tool = RecordingTool()
        rt.attach_tool(tool)
        rt.attach_tool(tool)
        try:
            assert rt.tool is tool
        finally:
            rt.detach_tool(tool)
        assert rt.tool is None

    def test_two_tools_fan_out(self, rt):
        first, second = RecordingTool(), RecordingTool()
        rt.attach_tool(first)
        rt.attach_tool(second)
        try:
            assert isinstance(rt.tool, ToolDispatcher)
            rt.parallel_run(lambda: None, num_threads=2)
        finally:
            rt.detach_tool(first)
            rt.detach_tool(second)
        assert _names(first) == _names(second)
        assert "parallel_begin" in _names(first)

    def test_detach_unknown_tool_is_noop(self, rt):
        rt.detach_tool(RecordingTool())
        assert rt.tool is None


class TestDispatcher:
    def test_every_callback_fans_out(self):
        first, second = RecordingTool(), RecordingTool()
        dispatcher = ToolDispatcher([first, second])
        dispatcher.thread_begin("pool-worker", 1234)
        dispatcher.thread_end("pool-worker", 1234)
        dispatcher.thread_idle(1234, "begin")
        dispatcher.parallel_begin(0, 4)
        dispatcher.parallel_end(0, 4)
        dispatcher.implicit_task(1, "begin", 4)
        dispatcher.loop(1, "begin")
        dispatcher.work(1, "loop", 0, 10)
        dispatcher.task_create(0, 7)
        dispatcher.task_dependences(0, 7, [object()])
        dispatcher.task_schedule(1, 7)
        dispatcher.task_steal(1, 7, 0)
        dispatcher.task_complete(1, 7)
        dispatcher.sync_region(0, "barrier", "release", 0.5)
        dispatcher.wait(0, "begin", object())
        dispatcher.mutex_acquire(0, "critical", "c")
        dispatcher.mutex_acquired(0, "critical", "c", 0.1)
        dispatcher.mutex_released(0, "critical", "c")
        dispatcher.plan(0, "execute", {"source": "m", "partitions": 4,
                                       "colors": 2, "conflict_edges": 3,
                                       "partition_size": 8,
                                       "threads": 2})
        assert _names(first) == list(CALLBACK_NAMES)
        assert first.calls == second.calls

    def test_base_tool_callbacks_are_noops(self):
        tool = ToolHooks()
        for name in CALLBACK_NAMES:
            assert callable(getattr(tool, name))
        tool.parallel_begin(0, 2)
        tool.sync_region(0, "barrier", "enter", None)


class TestParallelRegionCallbacks:
    def test_region_and_implicit_tasks(self, rt, tool):
        rt.parallel_run(lambda: None, num_threads=3)
        names = _names(tool)
        assert names.count("parallel_begin") == 1
        assert names.count("parallel_end") == 1
        begins = [args for name, args in tool.calls
                  if name == "implicit_task" and args[1] == "begin"]
        ends = [args for name, args in tool.calls
                if name == "implicit_task" and args[1] == "end"]
        assert len(begins) == 3
        assert len(ends) == 3
        assert {args[0] for args in begins} == {0, 1, 2}
        # parallel_begin fires before any implicit task, parallel_end
        # after every implicit task ended.
        assert names.index("parallel_begin") < names.index("implicit_task")
        assert names[-1] == "parallel_end"

    def test_work_callbacks_cover_loop(self, rt, tool):
        def region():
            bounds = rt.for_bounds([0, 40, 1])
            rt.for_init(bounds, kind="dynamic", chunk=4)
            while rt.for_next(bounds):
                pass
            rt.for_end(bounds)

        rt.parallel_run(region, num_threads=2)
        chunks = [args for name, args in tool.calls if name == "work"]
        assert len(chunks) == 10
        assert all(args[1] == "loop" for args in chunks)
        assert sum(args[3] - args[2] for args in chunks) == 40

    def test_work_callbacks_for_sections_and_single(self, rt, tool):
        def region():
            state = rt.sections_begin(3)
            while rt.sections_next(state) >= 0:
                pass
            rt.sections_end(state)
            single = rt.single_begin()
            rt.single_end(single)

        rt.parallel_run(region, num_threads=2)
        wstypes = [args[1] for name, args in tool.calls if name == "work"]
        assert wstypes.count("sections") == 3
        assert wstypes.count("single") == 1

    def test_task_lifecycle_callbacks(self, rt, tool):
        def region():
            state = rt.single_begin()
            if state.selected:
                for _ in range(5):
                    rt.task_submit(lambda: None)
            rt.single_end(state)
            rt.task_wait()

        rt.parallel_run(region, num_threads=2)
        names = _names(tool)
        assert names.count("task_create") == 5
        assert names.count("task_schedule") == 5
        assert names.count("task_complete") == 5

    def test_sync_region_barrier(self, rt, tool):
        rt.parallel_run(rt.barrier, num_threads=2)
        syncs = [args for name, args in tool.calls
                 if name == "sync_region" and args[1] == "barrier"]
        enters = [args for args in syncs if args[2] == "enter"]
        releases = [args for args in syncs if args[2] == "release"]
        assert len(enters) == 2
        assert len(releases) == 2
        assert all(args[3] is None for args in enters)
        assert all(args[3] >= 0.0 for args in releases)

    def test_sync_region_taskwait(self, rt, tool):
        def region():
            rt.task_submit(lambda: None)
            rt.task_wait()

        rt.parallel_run(region, num_threads=1)
        syncs = [args for name, args in tool.calls
                 if name == "sync_region" and args[1] == "taskwait"]
        assert [args[2] for args in syncs] == ["enter", "release"]

    def test_taskwait_duration_is_the_same_for_tracer_and_tool(self, rt,
                                                               tool):
        """One timestamp pair per site: the trace event and the tool
        callback carry the same measured wait."""
        def region():
            rt.task_submit(lambda: None)
            rt.task_wait()

        rt.tracer.start()
        try:
            rt.parallel_run(region, num_threads=1)
        finally:
            events = rt.tracer.stop()
        (traced,) = [event.detail[0] for event in events
                     if event.kind == "taskwait_release"]
        (reported,) = [args[3] for name, args in tool.calls
                       if name == "sync_region"
                       and args[1:3] == ("taskwait", "release")]
        assert traced == reported

    def test_ordered_wait_reaches_tools(self, rt, tool):
        def region():
            bounds = rt.for_bounds([0, 4, 1])
            rt.for_init(bounds, "static", 1, ordered=True)
            while rt.for_next(bounds):
                rt.ordered_start(bounds, bounds[0])
                rt.ordered_end(bounds, bounds[0])
            rt.for_end(bounds)

        rt.parallel_run(region, num_threads=2)
        syncs = [args for name, args in tool.calls
                 if name == "sync_region" and args[1] == "ordered"]
        enters = [args for args in syncs if args[2] == "enter"]
        releases = [args for args in syncs if args[2] == "release"]
        assert len(enters) == len(releases) == 4
        assert all(args[3] is None for args in enters)
        assert all(args[3] >= 0.0 for args in releases)
        loops = [args for name, args in tool.calls if name == "loop"]
        assert sorted(loops) == [(0, "begin"), (0, "end"),
                                 (1, "begin"), (1, "end")]


class TestMutexCallbacks:
    def test_uncontended_critical(self, rt, tool):
        def region():
            rt.critical_enter("zone")
            rt.critical_exit("zone")

        rt.parallel_run(region, num_threads=1)
        names = _names(tool)
        assert "mutex_acquire" not in names  # never blocked
        acquired = [args for name, args in tool.calls
                    if name == "mutex_acquired"]
        assert acquired == [(0, "critical", "zone", 0.0)]
        assert ("mutex_released", (0, "critical", "zone")) in tool.calls

    def test_contended_critical_reports_wait(self, rt, tool):
        import time as _time

        def region():
            rt.barrier()  # line the threads up at the critical section
            rt.critical_enter("hot")
            _time.sleep(0.02)
            rt.critical_exit("hot")

        rt.parallel_run(region, num_threads=2)
        acquired = [args for name, args in tool.calls
                    if name == "mutex_acquired"]
        assert len(acquired) == 2
        contended = [name for name, _args in tool.calls
                     if name == "mutex_acquire"]
        # Exactly one thread should have had to block.
        assert len(contended) == 1
        waits = sorted(args[3] for args in acquired)
        assert waits[0] == 0.0
        assert waits[1] > 0.0

    def test_atomic_mutex_callbacks(self, rt, tool):
        def region():
            rt.atomic_enter()
            rt.atomic_exit()

        rt.parallel_run(region, num_threads=1)
        assert ("mutex_acquired", (0, "atomic", "atomic", 0.0)) \
            in tool.calls
        assert ("mutex_released", (0, "atomic", "atomic")) in tool.calls

    def test_lock_api_callbacks(self, rt, tool):
        lock = rt.init_lock()
        rt.set_lock(lock)
        rt.unset_lock(lock)
        assert rt.test_lock(lock) is True
        rt.unset_lock(lock)
        kinds = [(name, args[1]) for name, args in tool.calls
                 if name.startswith("mutex_")]
        assert kinds == [("mutex_acquired", "lock"),
                         ("mutex_released", "lock"),
                         ("mutex_acquired", "lock"),
                         ("mutex_released", "lock")]

    def test_nest_lock_callbacks(self, rt, tool):
        lock = rt.init_nest_lock()
        rt.set_nest_lock(lock)
        rt.set_nest_lock(lock)  # owner re-acquire
        rt.unset_nest_lock(lock)
        rt.unset_nest_lock(lock)
        names = [name for name, _args in tool.calls
                 if name.startswith("mutex_")]
        # Two acquisitions but only one release (when the count hits 0).
        assert names.count("mutex_acquired") == 2
        assert names.count("mutex_released") == 1


class TestDisabledCost:
    def test_no_dispatch_without_tool(self, rt):
        """With no tool attached the instrumented sites must not fire
        (and must not fail) — the one-attribute-read discipline."""
        assert rt.tool is None
        rt.parallel_run(rt.barrier, num_threads=2)

        def region():
            rt.critical_enter()
            rt.critical_exit()
            rt.task_submit(lambda: None)
            rt.task_wait()

        rt.parallel_run(region, num_threads=2)
