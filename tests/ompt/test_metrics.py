"""Tests of the metrics registry and the metrics-accumulating tool."""

import threading

import pytest

from repro.ompt.metrics import (Counter, Gauge, Histogram, MetricsRegistry,
                                MetricsTool)
from repro.runtime import pure_runtime


class TestInstruments:
    def test_counter_accumulates(self):
        counter = Counter()
        counter.inc()
        counter.inc(2.5)
        assert counter.sample() == pytest.approx(3.5)
        assert counter.kind == "counter"

    def test_gauge_keeps_last_value(self):
        gauge = Gauge()
        gauge.set(4)
        gauge.set(2)
        assert gauge.sample() == 2
        assert gauge.kind == "gauge"

    def test_histogram_buckets_are_cumulative(self):
        histogram = Histogram(bounds=(1.0, 10.0))
        for value in (0.5, 0.7, 5.0, 50.0):
            histogram.observe(value)
        sample = histogram.sample()
        assert sample["count"] == 4
        assert sample["sum"] == pytest.approx(56.2)
        assert sample["min"] == 0.5
        assert sample["max"] == 50.0
        assert sample["buckets"] == {"1.0": 2, "10.0": 3, "+Inf": 4}

    def test_empty_histogram(self):
        sample = Histogram().sample()
        assert sample["count"] == 0
        assert sample["min"] is None
        assert sample["mean"] == 0.0


class TestRegistry:
    def test_same_name_and_labels_share_instrument(self):
        registry = MetricsRegistry()
        first = registry.counter("hits", thread=1)
        second = registry.counter("hits", thread=1)
        assert first is second

    def test_distinct_labels_get_distinct_instruments(self):
        registry = MetricsRegistry()
        assert registry.counter("hits", thread=1) \
            is not registry.counter("hits", thread=2)

    def test_label_order_does_not_matter(self):
        registry = MetricsRegistry()
        first = registry.counter("x", a=1, b=2)
        second = registry.counter("x", b=2, a=1)
        assert first is second

    def test_help_text_recorded_once(self):
        registry = MetricsRegistry()
        registry.counter("hits", "first description", thread=1)
        registry.counter("hits", "other description", thread=2)
        assert registry.help_text("hits") == "first description"
        assert registry.help_text("unknown") == ""

    def test_collect_sorted_with_labels(self):
        registry = MetricsRegistry()
        registry.counter("b_metric").inc()
        registry.counter("a_metric", thread=3).inc(2)
        rows = list(registry.collect())
        assert [name for name, _l, _i in rows] == ["a_metric", "b_metric"]
        assert rows[0][1] == {"thread": 3}

    def test_as_dict_groups_families(self):
        registry = MetricsRegistry()
        registry.counter("hits", "Hits", thread=0).inc()
        registry.counter("hits", "Hits", thread=1).inc(4)
        families = registry.as_dict()
        assert families["hits"]["type"] == "counter"
        assert families["hits"]["help"] == "Hits"
        assert len(families["hits"]["samples"]) == 2

    def test_concurrent_creation_is_safe(self):
        registry = MetricsRegistry()
        seen = []

        def create(index):
            seen.append(registry.counter("shared", slot=index % 4))

        workers = [threading.Thread(target=create, args=(i,))
                   for i in range(16)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        distinct = {id(instrument) for instrument in seen}
        assert len(distinct) == 4


class TestMetricsTool:
    def test_parallel_callbacks(self):
        tool = MetricsTool()
        tool.parallel_begin(0, 4)
        tool.parallel_begin(0, 2)
        tool.implicit_task(0, "begin", 2)
        tool.implicit_task(0, "end", 2)  # end must not count
        tool.implicit_task(1, "begin", 2)
        registry = tool.registry
        assert registry.counter(
            "omp_parallel_regions_total").sample() == 2
        assert registry.gauge("omp_team_size").sample() == 2
        assert registry.counter(
            "omp_implicit_tasks_total", thread=0).sample() == 1
        assert registry.counter(
            "omp_implicit_tasks_total", thread=1).sample() == 1

    def test_work_counts_chunks_and_iterations(self):
        tool = MetricsTool()
        tool.work(0, "loop", 0, 10)
        tool.work(0, "loop", 10, 15)
        tool.work(1, "sections", 2, 3)
        registry = tool.registry
        assert registry.counter("omp_chunks_total", thread=0,
                                wstype="loop").sample() == 2
        assert registry.counter("omp_chunks_total", thread=1,
                                wstype="sections").sample() == 1
        assert registry.counter("omp_iterations_total",
                                thread=0).sample() == 15
        # Sections don't contribute loop iterations.
        assert registry.counter("omp_iterations_total",
                                thread=1).sample() == 0

    def test_task_lifecycle_histograms(self):
        tool = MetricsTool()
        tool.task_create(0, 7)
        tool.task_schedule(1, 7)
        tool.task_complete(1, 7)
        registry = tool.registry
        latency = registry.histogram("omp_task_latency_seconds")
        duration = registry.histogram("omp_task_duration_seconds")
        assert latency.count == 1
        assert duration.count == 1
        assert tool.pending_tasks() == 0

    def test_unknown_task_ids_are_tolerated(self):
        tool = MetricsTool()
        tool.task_schedule(0, 99)  # never created
        tool.task_complete(0, 99)
        assert tool.registry.counter(
            "omp_tasks_executed_total", thread=0).sample() == 1
        assert tool.registry.histogram(
            "omp_task_duration_seconds").count == 0

    def test_never_started_task_does_not_leak_into_histograms(self):
        tool = MetricsTool()
        tool.task_create(0, 5)
        tool.task_complete(0, 5)  # completed without schedule
        assert tool.registry.histogram(
            "omp_task_duration_seconds").count == 0
        assert tool.pending_tasks() == 0

    def test_sync_region_only_counts_releases(self):
        tool = MetricsTool()
        tool.sync_region(0, "barrier", "enter", None)
        tool.sync_region(0, "barrier", "release", 0.25)
        tool.sync_region(1, "taskwait", "release", 0.5)
        registry = tool.registry
        barrier = registry.histogram("omp_sync_wait_seconds",
                                     kind="barrier", thread=0)
        taskwait = registry.histogram("omp_sync_wait_seconds",
                                      kind="taskwait", thread=1)
        assert barrier.count == 1
        assert barrier.total == pytest.approx(0.25)
        assert taskwait.total == pytest.approx(0.5)

    def test_mutex_contention_accounting(self):
        tool = MetricsTool()
        tool.mutex_acquired(0, "critical", "c", 0.0)
        tool.mutex_acquire(1, "critical", "c")
        tool.mutex_acquired(1, "critical", "c", 0.125)
        registry = tool.registry
        assert registry.counter("omp_mutex_acquisitions_total",
                                kind="critical").sample() == 2
        assert registry.counter("omp_mutex_contended_total",
                                kind="critical").sample() == 1
        assert registry.histogram("omp_mutex_wait_seconds",
                                  kind="critical").total \
            == pytest.approx(0.125)


class TestRuntimeIntegration:
    def test_attached_tool_accumulates_real_run(self):
        tool = MetricsTool()
        pure_runtime.attach_tool(tool)
        try:
            def region():
                bounds = pure_runtime.for_bounds([0, 20, 1])
                pure_runtime.for_init(bounds, kind="static", chunk=5)
                while pure_runtime.for_next(bounds):
                    pass
                pure_runtime.for_end(bounds)

            pure_runtime.parallel_run(region, num_threads=2)
        finally:
            pure_runtime.detach_tool(tool)
        registry = tool.registry
        assert registry.counter(
            "omp_parallel_regions_total").sample() == 1
        total_iterations = sum(
            instrument.value for name, _labels, instrument
            in registry.collect() if name == "omp_iterations_total")
        assert total_iterations == 20
        assert tool.pending_tasks() == 0

    def test_dependence_and_copyprivate_waits_are_observed(self):
        """The two waits no tool used to hear of: an ``if(false)`` task
        behind a ``depend`` predecessor and a ``copyprivate`` receiver
        land in ``omp_sync_wait_seconds`` and the flight recorder ring,
        while the tracer — which has no ``TraceEvent`` kind for them —
        records nothing extra."""
        from repro.diagnostics.flight import FlightRecorder
        rt = pure_runtime
        tool, recorder = MetricsTool(), FlightRecorder()
        token = object()

        def region():
            if rt.get_thread_num() == 0:
                rt.task_submit(lambda: None, depends_out=(token,))
                rt.task_submit(lambda: None, if_=False,
                               depends_in=(token,))
            state = rt.single_begin()
            if state.selected:
                rt.copyprivate_set(state, ("payload",))
            assert rt.copyprivate_get(state) == ("payload",)
            rt.single_end(state)

        rt.attach_tool(tool)
        rt.attach_tool(recorder)
        rt.tracer.start()
        try:
            rt.parallel_run(region, num_threads=2)
        finally:
            events = rt.tracer.stop()
            rt.detach_tool(recorder)
            rt.detach_tool(tool)
        observed = {}
        for name, labels, instrument in tool.registry.collect():
            if name == "omp_sync_wait_seconds":
                observed[labels["kind"]] = (observed.get(labels["kind"], 0)
                                            + instrument.count)
        assert observed["dependence"] == 1
        assert observed["copyprivate"] == 2
        noted = {event["kind"] for ring in recorder.dump().values()
                 for event in ring["events"]}
        assert {"dependence_enter", "dependence_release",
                "copyprivate_enter", "copyprivate_release"} <= noted
        assert {event.kind for event in events} <= {
            "region_fork", "region_join", "itask_begin", "itask_end",
            "join_enter", "task_submit", "task_start", "task_finish",
            "task_steal", "barrier_enter", "barrier_release"}
