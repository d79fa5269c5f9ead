"""Tests of the event recorder and the events the runtimes emit."""

import re
import sys
import threading
import time
from collections import Counter

import pytest

from repro import Mode, transform
from repro.cruntime import cruntime
from repro.runtime import pure_runtime
from repro.runtime.trace import TraceEvent, TraceLog, Recorder


#: The one vocabulary: the kinds documented on ``TraceEvent``.
VOCABULARY = set(re.findall(r"``(\w+)``", TraceEvent.__doc__)) - {
    "detail", "kind", "thread"}


@pytest.fixture(params=["pure", "cruntime"])
def rt(request):
    return pure_runtime if request.param == "pure" else cruntime


class TestRecorderBasics:
    def test_disabled_by_default_records_nothing(self):
        tracer = Recorder()
        tracer.record("work", 0, "loop", 0, 10)
        assert tracer.events() == []

    def test_start_stop_cycle(self):
        tracer = Recorder()
        tracer.start()
        tracer.record("work", 1, "loop", 0, 5)
        events = tracer.stop()
        assert len(events) == 1
        assert events[0].kind == "work"
        assert events[0].thread == 1
        assert not tracer.enabled

    def test_start_clears_previous_events(self):
        tracer = Recorder()
        tracer.start()
        tracer.record("work", 0, "loop", 0, 1)
        tracer.start()
        assert tracer.events() == []

    def test_capacity_bound(self):
        tracer = Recorder(capacity=3)
        tracer.start()
        for index in range(10):
            tracer.record("work", 0, "loop", index, index + 1)
        assert len(tracer.events()) == 3
        assert tracer.dropped == 7

    def test_timestamps_monotonic(self):
        tracer = Recorder()
        tracer.start()
        for _ in range(5):
            tracer.record("work", 0, "loop", 0, 1)
        stamps = [event.timestamp for event in tracer.events()]
        assert stamps == sorted(stamps)

    def test_stop_surfaces_dropped_count(self):
        tracer = Recorder(capacity=2)
        tracer.start()
        for index in range(5):
            tracer.record("work", 0, "loop", index, index + 1)
        events = tracer.stop()
        assert isinstance(events, TraceLog)
        assert events.dropped == 3
        assert len(events) == 2

    def test_log_is_a_plain_list_to_consumers(self):
        log = TraceLog([TraceEvent(0.0, "work", 0, ("loop", 0, 1))],
                       dropped=4)
        assert log == [TraceEvent(0.0, "work", 0, ("loop", 0, 1))]
        assert list(log) == list(log[:])
        assert log.dropped == 4

    def test_start_resets_dropped(self):
        tracer = Recorder(capacity=1)
        tracer.start()
        tracer.record("work", 0, "loop", 0, 1)
        tracer.record("work", 0, "loop", 1, 2)
        assert tracer.stop().dropped == 1
        tracer.start()
        assert tracer.events().dropped == 0

    def test_concurrent_record_and_stop(self):
        import threading as _threading
        tracer = Recorder(capacity=10_000)
        tracer.start()
        stop_flag = []

        def hammer():
            while not stop_flag:
                tracer.record("work", 0, "loop", 0, 1)

        workers = [_threading.Thread(target=hammer) for _ in range(3)]
        for worker in workers:
            worker.start()
        events = tracer.stop()
        stop_flag.append(True)
        for worker in workers:
            worker.join()
        # The snapshot is a consistent copy; later records don't mutate
        # it and recording after stop() is a no-op.  The capacity
        # bounds each recording thread.
        size = len(events)
        tracer.record("work", 0, "loop", 0, 1)
        assert len(events) == size
        assert len(tracer.events()) <= 3 * 10_000


    @pytest.mark.parametrize("keep", ["first", "last"])
    def test_concurrent_writers_lose_nothing(self, keep):
        """More writers than cores, switching as often as the
        interpreter allows: every ring holds exactly its own thread's
        events, in order, and the rest is counted dropped."""
        recorder = Recorder(capacity=500, keep=keep)
        recorder.start()

        def write(thread):
            for index in range(2000):
                recorder.record("work", thread, "loop", index, index + 1)

        workers = [threading.Thread(target=write, args=(thread,))
                   for thread in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        kept = range(500) if keep == "first" else range(1500, 2000)
        rings = recorder.dump()
        assert len(rings) == 8
        for ring in rings.values():
            thread = ring["events"][0]["detail"][0]
            assert [event["detail"] for event in ring["events"]] == \
                [[thread, "loop", index, index + 1] for index in kept]
        assert recorder.dropped == 8 * 1500


class TestRuntimeIntegration:
    def test_region_events(self, rt):
        rt.tracer.start()
        rt.parallel_run(lambda: None, num_threads=3)
        events = rt.tracer.stop()
        kinds = [event.kind for event in events]
        assert kinds.count("parallel_begin") == 1
        assert kinds.count("parallel_end") == 1
        # detail: (team size, region id, caller file, line)
        assert events[0].detail[0] == 3
        region_id = events[0].detail[1]
        assert region_id > 0
        joins = [e for e in events if e.kind == "parallel_end"]
        assert joins[0].detail == (3, region_id)
        # One implicit-task bracket per member, all tagged with the
        # region id.
        itasks = [e for e in events if e.kind == "implicit_task"]
        for endpoint in ("begin", "join", "end"):
            assert sorted(e.thread for e in itasks
                          if e.detail[0] == endpoint) == [0, 1, 2]
        assert all(e.detail[1] == region_id for e in itasks)

    def test_chunk_events_cover_iteration_space(self, rt):
        rt.tracer.start()

        def region():
            bounds = rt.for_bounds([0, 40, 1])
            rt.for_init(bounds, kind="dynamic", chunk=4)
            while rt.for_next(bounds):
                pass
            rt.for_end(bounds)

        rt.parallel_run(region, num_threads=3)
        chunks = [e for e in rt.tracer.stop() if e.kind == "work"]
        assert len(chunks) == 10
        assert sum(high - low for _loop, low, high in
                   (e.detail for e in chunks)) == 40

    def test_task_lifecycle_events(self, rt):
        rt.tracer.start()

        def region():
            state = rt.single_begin()
            if state.selected:
                for _ in range(6):
                    rt.task_submit(lambda: None)
            rt.single_end(state)

        rt.parallel_run(region, num_threads=2)
        events = rt.tracer.stop()
        kinds = Counter(e.kind for e in events)
        assert kinds["task_create"] == 6
        assert kinds["task_start"] == 6
        assert kinds["task_finish"] == 6
        submitted = {e.detail[0]: e.timestamp for e in events
                     if e.kind == "task_create"}
        assert all(e.timestamp >= submitted[e.detail[0]]
                   for e in events if e.kind == "task_start")

    def test_barrier_events(self, rt):
        rt.tracer.start()

        def region():
            rt.barrier()

        rt.parallel_run(region, num_threads=2)
        kinds = Counter(e.kind for e in rt.tracer.stop())
        assert kinds["barrier_enter"] == 2
        assert kinds["barrier_release"] == 2

    def test_static_chunks_assigned_round_robin(self, rt):
        rt.tracer.start()

        def region():
            bounds = rt.for_bounds([0, 24, 1])
            rt.for_init(bounds, kind="static", chunk=3)
            while rt.for_next(bounds):
                pass
            rt.for_end(bounds)

        rt.parallel_run(region, num_threads=2)
        chunks = Counter(e.thread for e in rt.tracer.stop()
                         if e.kind == "work")
        assert chunks == {0: 4, 1: 4}

    def test_transformed_code_is_traceable(self):
        fn = transform(_traced_subject, Mode.HYBRID)
        cruntime.tracer.start()
        fn(30)
        kinds = Counter(e.kind for e in cruntime.tracer.stop())
        assert kinds["parallel_begin"] == 1
        assert kinds["work"] >= 2


def _mixed_program(rt):
    """Two threads through a dynamic loop, a barrier, tasks with a
    taskwait, a critical thread 1 must wait for, and an ordered loop."""
    held = threading.Event()

    def region():
        me = rt.get_thread_num()
        bounds = rt.for_bounds([0, 16, 1])
        rt.for_init(bounds, "dynamic", 2)
        while rt.for_next(bounds):
            pass
        rt.for_end(bounds)
        rt.barrier()
        for _ in range(2):
            rt.task_submit(lambda: None)
        rt.task_wait()
        if me == 0:
            rt.critical_enter("hot")
            held.set()
            time.sleep(0.05)
            rt.critical_exit("hot")
        else:
            assert held.wait(10.0)
            rt.critical_enter("hot")
            rt.critical_exit("hot")
        bounds = rt.for_bounds([0, 8, 1])
        rt.for_init(bounds, "static", 1, ordered=True)
        while rt.for_next(bounds):
            rt.ordered_start(bounds, bounds[0])
            rt.ordered_end(bounds, bounds[0])
        rt.for_end(bounds)

    rt.parallel_run(region, num_threads=2)


def _kinds_and_details(events):
    return [(event["kind"], event["detail"]) for event in events]


class TestOnePath:
    def test_retentions_keep_the_same_events(self, rt):
        """A keep-first and a keep-last recorder on the same run hold
        the same events, all in the one vocabulary; a keep-first
        recorder of two events per thread counts the rest dropped."""
        whole = Recorder(runtime=rt)
        tail = Recorder(capacity=16, keep="last", runtime=rt)
        tiny = Recorder(capacity=2, runtime=rt)
        for recorder in (whole, tail, tiny):
            recorder.start()
        try:
            _mixed_program(rt)
        finally:
            for recorder in (whole, tail, tiny):
                recorder.stop()
        rings = whole.dump()
        tails = tail.dump()
        assert rings.keys() == tails.keys()
        for key, ring in rings.items():
            assert tails[key]["thread"] == ring["thread"]
            assert _kinds_and_details(tails[key]["events"]) == \
                _kinds_and_details(ring["events"][-16:])
        kinds = {event["kind"] for ring in rings.values()
                 for event in ring["events"]}
        assert {"work", "barrier_enter", "task_create", "taskwait_release",
                "mutex_wait", "ordered_release"} <= kinds <= VOCABULARY
        recorded = sum(len(ring["events"]) for ring in rings.values())
        kept = sum(len(ring["events"]) for ring in tiny.dump().values())
        assert whole.dropped == 0
        assert kept == sum(min(2, len(ring["events"]))
                           for ring in rings.values())
        assert tiny.dropped == tiny.events().dropped == recorded - kept


def _traced_subject(n):
    from repro import omp
    total = 0
    with omp("parallel for reduction(+:total) num_threads(2) "
             "schedule(dynamic, 5)"):
        for i in range(n):
            total += i
    return total
