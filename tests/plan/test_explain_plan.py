"""The explain pipeline on planned runs: plan events reach the DAG,
and the verdict is "convoy fixed by plan" — not a lock convoy."""

import pytest

from repro.apps import bfs
from repro.explain.bottlenecks import classify
from repro.explain.dag import build_dag, summarize
from repro.plan import clear_plan_cache
from repro.runtime.engine import OmpRuntime
from repro.runtime.lowlevel import MutexLowLevel


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_plan_cache()
    yield
    clear_plan_cache()


@pytest.fixture()
def traced_planned_bfs():
    runtime = OmpRuntime("test", MutexLowLevel())
    runtime.tracer.start()
    grid = bfs.make_maze(21)
    result = bfs.kernel_planned(grid, 21, 3, runtime=runtime)
    log = runtime.tracer.stop()
    assert result == bfs.sequential(grid, 21)
    return log


class TestDagPlans:
    def test_plan_events_reach_the_analysis(self, traced_planned_bfs):
        analysis = build_dag(traced_planned_bfs)
        assert "bfs-rows" in analysis.plans
        entry = analysis.plans["bfs-rows"]
        assert entry["executions"] > 0
        assert entry["partitions"] > 0
        assert entry["colors"] >= 1
        assert entry["site"] is not None

    def test_summary_carries_plans(self, traced_planned_bfs):
        summary = summarize(build_dag(traced_planned_bfs))
        assert "bfs-rows" in summary["plans"]
        assert summary["plans"]["bfs-rows"]["executions"] > 0


class TestClassifyPlannedRun:
    def test_plan_finding_replaces_lock_convoy(self, traced_planned_bfs):
        analysis = build_dag(traced_planned_bfs)
        findings = classify(analysis, nthreads=3,
                            events=traced_planned_bfs)
        categories = {f.category for f in findings}
        assert "plan-execution" in categories
        assert "lock-convoy" not in categories
        plan_finding = next(f for f in findings
                            if f.category == "plan-execution")
        assert "convoy fixed by plan" in plan_finding.message
        assert plan_finding.directive == "plan"
        assert plan_finding.extra["colors"] >= 1

    def test_plan_finding_survives_the_noise_filter(self,
                                                    traced_planned_bfs):
        # lost_s is zero by construction; the finding must still be
        # reported (it is informational, not a cost).
        analysis = build_dag(traced_planned_bfs)
        findings = classify(analysis, nthreads=3)
        assert any(f.category == "plan-execution" for f in findings)
        assert all(f.lost_s == 0.0 for f in findings
                   if f.category == "plan-execution")


class TestClassifyBaselineStillConvoys:
    def test_critical_baseline_reports_lock_convoy(self):
        """The control: the critical-section frontier kernel must
        still classify as a lock convoy, or the planned verdict means
        nothing."""
        from repro import transform
        from repro.modes import Mode
        kernel = transform(bfs.kernel_frontier, Mode.PURE)
        from repro.runtime import pure_runtime
        pure_runtime.tracer.start()
        try:
            grid = bfs.make_maze(21)
            kernel(grid=grid, n=21, threads=3)
        finally:
            log = pure_runtime.tracer.stop()
        analysis = build_dag(log)
        assert analysis.plans == {}
        assert any(handle[1] == "bfs_frontier"
                   for handle in analysis.mutexes
                   if len(handle) > 1)
