"""Plan-cache tests: identity keying, weak-key collection, counters,
and the OMPT plan callback stream."""

import gc

import pytest

from repro.ompt.hooks import ToolHooks
from repro.ompt.metrics import MetricsTool
from repro.plan import (Map, clear_plan_cache, plan_cache_stats,
                        plan_for)
from repro.runtime.engine import OmpRuntime
from repro.runtime.lowlevel import MutexLowLevel


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_plan_cache()
    yield
    clear_plan_cache()


def _map(name="cache-map", n=12):
    return Map(name, [(i, i + 1) for i in range(n)])


class TestCacheKeying:
    def test_same_map_and_size_hits(self):
        m = _map()
        first = plan_for(m, 3)
        second = plan_for(m, 3)
        assert first is second
        stats = plan_cache_stats()
        assert stats["builds"] == 1
        assert stats["hits"] == 1

    def test_partition_size_is_part_of_the_key(self):
        m = _map()
        assert plan_for(m, 3) is not plan_for(m, 4)
        assert plan_cache_stats()["builds"] == 2

    def test_equal_but_distinct_maps_build_separately(self):
        # Identity keying: equality of contents is irrelevant, which is
        # what makes the cache sound without hashing entry tuples.
        assert plan_for(_map(), 3) is not plan_for(_map(), 3)
        assert plan_cache_stats()["builds"] == 2

    def test_clear_resets_counters(self):
        plan_for(_map(), 2)
        clear_plan_cache()
        stats = plan_cache_stats()
        assert stats == {"builds": 0, "hits": 0, "maps": 0, "plans": 0}


class TestWeakCollection:
    def test_dropping_the_map_drops_its_plans(self):
        m = _map()
        plan_for(m, 2)
        plan_for(m, 3)
        assert plan_cache_stats()["plans"] == 2
        del m
        gc.collect()
        stats = plan_cache_stats()
        assert stats["maps"] == 0
        assert stats["plans"] == 0

    def test_plan_does_not_reference_its_map(self):
        # The invariant the weak cache rests on: a cached value must
        # not keep its key alive.
        import weakref
        m = _map()
        ref = weakref.ref(m)
        plan = plan_for(m, 2)
        del m
        gc.collect()
        assert ref() is None
        assert plan.total == 12  # the plan itself stays usable


class _RecordingTool(ToolHooks):
    def __init__(self):
        self.events = []

    def plan(self, thread, event, payload):
        self.events.append((thread, event, dict(payload)))


class TestPlanCallbacks:
    def _runtime_with(self, tool):
        runtime = OmpRuntime("test", MutexLowLevel())
        runtime.attach_tool(tool)
        return runtime

    def test_build_then_hit_events(self):
        tool = _RecordingTool()
        runtime = self._runtime_with(tool)
        m = _map()
        plan_for(m, 3, runtime=runtime)
        plan_for(m, 3, runtime=runtime)
        kinds = [event for _, event, _ in tool.events]
        assert kinds == ["build", "cache_hit"]
        payload = tool.events[0][2]
        assert payload["source"] == "cache-map"
        assert payload["partition_size"] == 3
        assert payload["partitions"] == 4
        assert payload["colors"] == 2
        assert payload["conflict_edges"] == 3

    def test_no_runtime_means_no_events(self):
        plan_for(_map(), 3)  # must not raise without a tool

    def test_metrics_tool_counts_cache_traffic(self):
        tool = MetricsTool()
        runtime = self._runtime_with(tool)
        m = _map()
        plan_for(m, 3, runtime=runtime)
        plan_for(m, 3, runtime=runtime)
        plan_for(m, 3, runtime=runtime)
        registry = tool.registry
        assert registry.counter("omp_plan_builds_total",
                                source="cache-map").sample() == 1
        assert registry.counter("omp_plan_cache_hits_total",
                                source="cache-map").sample() == 2

    def test_metrics_tool_records_execution_shape(self):
        from repro.plan import execute
        tool = MetricsTool()
        runtime = self._runtime_with(tool)
        m = _map()
        plan = plan_for(m, 3, runtime=runtime)
        execute(plan, lambda *a: None, threads=2, runtime=runtime)
        registry = tool.registry
        assert registry.counter("omp_plan_executions_total",
                                source="cache-map").sample() == 1
        assert registry.gauge("omp_plan_partitions",
                              source="cache-map").sample() == 4
        assert registry.gauge("omp_plan_colors",
                              source="cache-map").sample() == 2
        assert registry.gauge("omp_plan_conflict_edges",
                              source="cache-map").sample() == 3
