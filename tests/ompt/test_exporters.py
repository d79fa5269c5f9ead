"""Tests of the Chrome trace, Prometheus, and JSON-report exporters."""

import json

import pytest

from repro.ompt.exporters import (chrome_trace, chrome_trace_events,
                                  metrics_report, prometheus_text,
                                  validate_chrome_trace,
                                  write_chrome_trace)
from repro.ompt.metrics import MetricsTool
from repro.runtime.stats import RegionRecord
from repro.runtime.trace import TraceEvent


def _sample_events():
    return [
        TraceEvent(10.0, "region_fork", 0, (2,)),
        TraceEvent(10.1, "chunk", 0, (0, 5)),
        TraceEvent(10.2, "chunk", 1, (5, 10)),
        TraceEvent(10.3, "task_submit", 0, (42,)),
        TraceEvent(10.4, "task_start", 1, (42,)),
        TraceEvent(10.5, "task_finish", 1, (42,)),
        TraceEvent(10.6, "barrier_enter", 0, ()),
        TraceEvent(10.7, "barrier_release", 0, (0.1,)),
        TraceEvent(10.8, "region_join", 0, (2,)),
    ]


class TestChromeTrace:
    def test_empty_events(self):
        assert chrome_trace_events([]) == []
        payload = chrome_trace([])
        assert payload["traceEvents"] == []
        assert validate_chrome_trace(payload) == []

    def test_timestamps_rebased_to_microseconds(self):
        rows = chrome_trace_events(_sample_events())
        data_rows = [row for row in rows if row["ph"] != "M"]
        assert min(row["ts"] for row in data_rows) == 0
        join = [row for row in data_rows
                if row["name"] == "parallel region" and row["ph"] == "E"]
        assert join[0]["ts"] == pytest.approx(0.8e6)

    def test_thread_metadata_rows(self):
        rows = chrome_trace_events(_sample_events())
        names = [row for row in rows if row["ph"] == "M"]
        assert {row["tid"] for row in names} == {0, 1}
        assert names[0]["args"]["name"] == "omp thread 0"

    def test_duration_pairs_and_instants(self):
        rows = chrome_trace_events(_sample_events())
        phases = [row["ph"] for row in rows if row["ph"] != "M"]
        assert phases.count("B") == phases.count("E") == 3
        chunks = [row for row in rows if row["name"] == "chunk"]
        assert all(row["ph"] == "i" and row["s"] == "t" for row in chunks)
        assert chunks[0]["args"] == {"low": 0, "high": 5}

    def test_document_carries_drop_count_and_metadata(self):
        payload = chrome_trace(_sample_events(), dropped=3,
                               metadata={"app": "pi"})
        assert payload["otherData"]["dropped_events"] == 3
        assert payload["otherData"]["app"] == "pi"
        assert payload["otherData"]["events"] == 9

    def test_write_round_trip(self, tmp_path):
        path = tmp_path / "trace.json"
        write_chrome_trace(path, _sample_events())
        loaded = json.loads(path.read_text())
        assert validate_chrome_trace(loaded) == []
        assert len(loaded["traceEvents"]) == 11  # 9 events + 2 metadata


class TestSchemaValidator:
    def test_accepts_generated_trace(self):
        assert validate_chrome_trace(chrome_trace(_sample_events())) == []

    def test_rejects_non_object(self):
        assert validate_chrome_trace([1, 2]) != []
        assert validate_chrome_trace({"nope": 1}) != []

    def test_rejects_missing_fields(self):
        payload = {"traceEvents": [{"ph": "B"}]}
        problems = validate_chrome_trace(payload)
        assert any("name" in problem for problem in problems)

    def test_rejects_unknown_phase(self):
        payload = {"traceEvents": [
            {"name": "x", "ph": "Z", "ts": 0, "pid": 1, "tid": 0}]}
        assert any("unknown phase" in problem
                   for problem in validate_chrome_trace(payload))

    def test_rejects_unbalanced_durations(self):
        payload = {"traceEvents": [
            {"name": "x", "ph": "B", "ts": 0, "pid": 1, "tid": 0}]}
        assert any("unclosed" in problem
                   for problem in validate_chrome_trace(payload))
        payload = {"traceEvents": [
            {"name": "x", "ph": "E", "ts": 0, "pid": 1, "tid": 0}]}
        assert any("without matching B" in problem
                   for problem in validate_chrome_trace(payload))

    def test_rejects_bad_instant_scope(self):
        payload = {"traceEvents": [
            {"name": "x", "ph": "i", "s": "q", "ts": 0, "pid": 1,
             "tid": 0}]}
        assert any("instant scope" in problem
                   for problem in validate_chrome_trace(payload))

    def test_rejects_negative_timestamp(self):
        payload = {"traceEvents": [
            {"name": "x", "ph": "i", "ts": -1.0, "pid": 1, "tid": 0}]}
        assert any("negative" in problem
                   for problem in validate_chrome_trace(payload))


class TestPrometheusText:
    def test_counter_and_gauge_rendering(self):
        tool = MetricsTool()
        tool.parallel_begin(0, 4)
        text = prometheus_text(tool.registry)
        assert "# HELP omp_parallel_regions_total " \
               "Parallel regions forked" in text
        assert "# TYPE omp_parallel_regions_total counter" in text
        assert "omp_parallel_regions_total 1" in text
        assert "omp_team_size 4" in text
        assert text.endswith("\n")

    def test_labels_sorted_and_quoted(self):
        tool = MetricsTool()
        tool.work(3, "loop", 0, 7)
        text = prometheus_text(tool.registry)
        assert 'omp_chunks_total{thread="3",wstype="loop"} 1' in text
        assert 'omp_iterations_total{thread="3"} 7' in text

    def test_histogram_exposition(self):
        tool = MetricsTool()
        tool.sync_region(0, "barrier", "release", 0.05)
        text = prometheus_text(tool.registry)
        assert 'omp_sync_wait_seconds_bucket{kind="barrier",le="0.1",' \
               'thread="0"} 1' in text
        assert 'omp_sync_wait_seconds_bucket{kind="barrier",le="+Inf",' \
               'thread="0"} 1' in text
        assert 'omp_sync_wait_seconds_count{kind="barrier",thread="0"} 1' \
            in text
        assert 'omp_sync_wait_seconds_sum{kind="barrier",thread="0"} ' \
               '0.05' in text

    def test_buckets_are_cumulative_in_text(self):
        tool = MetricsTool()
        for wait in (1e-7, 1e-7, 5.0):
            tool.sync_region(0, "barrier", "release", wait)
        text = prometheus_text(tool.registry)
        assert 'le="1e-06",thread="0"} 2' in text
        assert 'le="10.0",thread="0"} 3' in text


class TestMetricsReport:
    def test_empty_report_has_required_keys(self):
        report = metrics_report()
        assert report["per_thread"] == {"chunks": {}, "iterations": {},
                                        "tasks": {}}
        assert report["barrier_wait"]["count"] == 0
        assert report["task_latency"]["count"] == 0
        assert report["regions"] == []
        assert report["imbalance"] == {"max": None, "mean": None}

    def test_registry_sections(self):
        tool = MetricsTool()
        tool.work(0, "loop", 0, 10)
        tool.work(1, "loop", 10, 30)
        tool.sync_region(0, "barrier", "release", 0.5)
        tool.sync_region(1, "barrier", "release", 0.25)
        tool.mutex_acquired(0, "critical", "c", 0.0)
        tool.mutex_acquire(1, "critical", "c")
        tool.mutex_acquired(1, "critical", "c", 0.1)
        report = metrics_report(tool.registry)
        assert report["per_thread"]["chunks"] == {"0": 1, "1": 1}
        assert report["per_thread"]["iterations"] == {"0": 10, "1": 20}
        assert report["barrier_wait"]["count"] == 2
        assert report["barrier_wait"]["sum_s"] == pytest.approx(0.75)
        assert report["barrier_wait"]["per_thread_s"]["0"] \
            == pytest.approx(0.5)
        assert report["mutex"]["acquisitions"] == {"critical": 2}
        assert report["mutex"]["contended"] == {"critical": 1}
        assert report["mutex"]["wait_s"]["critical"] \
            == pytest.approx(0.1)
        assert "metrics" in report

    def test_region_imbalance_section(self):
        records = [RegionRecord(2, [1.0, 1.0]),
                   RegionRecord(2, [1.0, 3.0])]
        report = metrics_report(stats_records=records)
        assert [row["imbalance"] for row in report["regions"]] \
            == [pytest.approx(1.0), pytest.approx(1.5)]
        assert report["imbalance"]["max"] == pytest.approx(1.5)
        assert report["imbalance"]["mean"] == pytest.approx(1.25)

    def test_report_is_json_serializable(self):
        tool = MetricsTool()
        tool.parallel_begin(0, 2)
        tool.sync_region(0, "barrier", "release", 0.1)
        report = metrics_report(tool.registry,
                                stats_records=[RegionRecord(2, [1.0, 2.0])])
        json.dumps(report)
