"""Tests of the runtime event tracer and the events the runtimes emit."""

from collections import Counter

import pytest

from repro import Mode, transform
from repro.cruntime import cruntime
from repro.runtime import pure_runtime
from repro.runtime.trace import TraceEvent, TraceLog, Tracer


@pytest.fixture(params=["pure", "cruntime"])
def rt(request):
    return pure_runtime if request.param == "pure" else cruntime


class TestTracerBasics:
    def test_disabled_by_default_records_nothing(self):
        tracer = Tracer()
        tracer.record("chunk", 0, 0, 10)
        assert tracer.events() == []

    def test_start_stop_cycle(self):
        tracer = Tracer()
        tracer.start()
        tracer.record("chunk", 1, 0, 5)
        events = tracer.stop()
        assert len(events) == 1
        assert events[0].kind == "chunk"
        assert events[0].thread == 1
        assert not tracer.enabled

    def test_start_clears_previous_events(self):
        tracer = Tracer()
        tracer.start()
        tracer.record("chunk", 0, 0, 1)
        tracer.start()
        assert tracer.events() == []

    def test_capacity_bound(self):
        tracer = Tracer(capacity=3)
        tracer.start()
        for index in range(10):
            tracer.record("chunk", 0, index, index + 1)
        assert len(tracer.events()) == 3
        assert tracer.dropped == 7

    def test_timestamps_monotonic(self):
        tracer = Tracer()
        tracer.start()
        for _ in range(5):
            tracer.record("chunk", 0, 0, 1)
        stamps = [event.timestamp for event in tracer.events()]
        assert stamps == sorted(stamps)

    def test_stop_surfaces_dropped_count(self):
        tracer = Tracer(capacity=2)
        tracer.start()
        for index in range(5):
            tracer.record("chunk", 0, index, index + 1)
        events = tracer.stop()
        assert isinstance(events, TraceLog)
        assert events.dropped == 3
        assert len(events) == 2

    def test_log_is_a_plain_list_to_consumers(self):
        log = TraceLog([TraceEvent(0.0, "chunk", 0, (0, 1))], dropped=4)
        assert log == [TraceEvent(0.0, "chunk", 0, (0, 1))]
        assert list(log) == list(log[:])
        assert log.dropped == 4

    def test_start_resets_dropped(self):
        tracer = Tracer(capacity=1)
        tracer.start()
        tracer.record("chunk", 0, 0, 1)
        tracer.record("chunk", 0, 1, 2)
        assert tracer.stop().dropped == 1
        tracer.start()
        assert tracer.events().dropped == 0

    def test_concurrent_record_and_stop(self):
        import threading as _threading
        tracer = Tracer(capacity=10_000)
        tracer.start()
        stop_flag = []

        def hammer():
            while not stop_flag:
                tracer.record("chunk", 0, 0, 1)

        workers = [_threading.Thread(target=hammer) for _ in range(3)]
        for worker in workers:
            worker.start()
        events = tracer.stop()
        stop_flag.append(True)
        for worker in workers:
            worker.join()
        # The snapshot is a consistent copy; later records don't mutate
        # it and recording after stop() is a no-op.
        size = len(events)
        tracer.record("chunk", 0, 0, 1)
        assert len(events) == size
        assert len(tracer.events()) <= 10_000


class TestRuntimeIntegration:
    def test_region_events(self, rt):
        rt.tracer.start()
        rt.parallel_run(lambda: None, num_threads=3)
        events = rt.tracer.stop()
        kinds = [event.kind for event in events]
        assert kinds.count("region_fork") == 1
        assert kinds.count("region_join") == 1
        # detail: (team size, region id, caller file, line)
        assert events[0].detail[0] == 3
        region_id = events[0].detail[1]
        assert region_id > 0
        joins = [e for e in events if e.kind == "region_join"]
        assert joins[0].detail == (3, region_id)
        # One implicit-task bracket per member, all tagged with the
        # region id.
        begins = [e for e in events if e.kind == "itask_begin"]
        ends = [e for e in events if e.kind == "itask_end"]
        assert {e.thread for e in begins} == {0, 1, 2}
        assert {e.thread for e in ends} == {0, 1, 2}
        assert all(e.detail == (region_id,) for e in begins + ends)

    def test_chunk_events_cover_iteration_space(self, rt):
        rt.tracer.start()

        def region():
            bounds = rt.for_bounds([0, 40, 1])
            rt.for_init(bounds, kind="dynamic", chunk=4)
            while rt.for_next(bounds):
                pass
            rt.for_end(bounds)

        rt.parallel_run(region, num_threads=3)
        chunks = [e for e in rt.tracer.stop() if e.kind == "chunk"]
        assert len(chunks) == 10
        assert sum(high - low for low, high in
                   (e.detail[:2] for e in chunks)) == 40

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
        assert kinds["task_submit"] == 6
        assert kinds["task_start"] == 6
        assert kinds["task_finish"] == 6
        submitted = {e.detail[0]: e.timestamp for e in events
                     if e.kind == "task_submit"}
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
                         if e.kind == "chunk")
        assert chunks == {0: 4, 1: 4}

    def test_transformed_code_is_traceable(self):
        fn = transform(_traced_subject, Mode.HYBRID)
        cruntime.tracer.start()
        fn(30)
        kinds = Counter(e.kind for e in cruntime.tracer.stop())
        assert kinds["region_fork"] == 1
        assert kinds["chunk"] >= 2


def _traced_subject(n):
    from repro import omp
    total = 0
    with omp("parallel for reduction(+:total) num_threads(2) "
             "schedule(dynamic, 5)"):
        for i in range(n):
            total += i
    return total
