"""Tests of the directive-aware sampling profiler core."""

import threading
import time

import pytest

from repro import Mode, env
from repro.errors import OmpError
from repro.runtime import pure_runtime
from repro.sampling.sampler import FoldedStore, Sampler, directive_label


class TestFoldedStore:
    def test_counts_stacks_and_states(self):
        store = FoldedStore()
        stack = ("main (app.py:3)", "<omp for @ app.py:9>",
                 "kernel (app.py:10)")
        store.add(("<omp for @ app.py:9>",), stack, "cpu")
        store.add(("<omp for @ app.py:9>",), stack, "cpu")
        store.add(("<omp for @ app.py:9>",), stack, "wait")
        assert store.total == 3
        assert store.by_state == {"cpu": 2, "wait": 1}
        assert store.stacks[(stack, "cpu")] == 2
        assert store.stacks[(stack, "wait")] == 1
        entry = store.directives["<omp for @ app.py:9>"]
        assert entry == {"self": 2, "total": 2, "wait": 1}

    def test_self_goes_to_innermost_total_to_all(self):
        store = FoldedStore()
        directives = ("<omp parallel @ a.py:3>", "<omp for @ a.py:5>")
        store.add(directives, (*directives, "leaf (a.py:6)"), "cpu")
        assert store.directives["<omp for @ a.py:5>"]["self"] == 1
        assert store.directives["<omp parallel @ a.py:3>"]["self"] == 0
        assert store.directives["<omp parallel @ a.py:3>"]["total"] == 1
        hot = store.hottest_frames("<omp for @ a.py:5>")
        assert hot == [{"frame": "leaf (a.py:6)", "count": 1}]

    def test_top_stacks_ranked_and_summary_scaled(self):
        store = FoldedStore()
        for _ in range(3):
            store.add((), ("hot ()",), "cpu")
        store.add((), ("cold ()",), "cpu")
        top = store.top_stacks(limit=1)
        assert top == [{"stack": ["hot ()"], "state": "cpu",
                        "count": 3}]
        store.add(("<omp for>",), ("<omp for>", "x ()"), "cpu")
        summary = store.directive_summary(0.005)
        assert summary["<omp for>"]["self_s"] == pytest.approx(0.005)

    def test_bounds_drop_new_keys_not_counts(self):
        store = FoldedStore(max_stacks=1)
        store.add((), ("a ()",), "cpu")
        store.add((), ("a ()",), "cpu")  # existing key: counted
        store.add((), ("b ()",), "cpu")  # new key: dropped
        assert store.stacks[(("a ()",), "cpu")] == 2
        assert store.dropped_stacks == 1


class TestDirectiveLabel:
    def test_with_and_without_site(self):
        assert directive_label("parallel", None) == "<omp parallel>"
        label = directive_label("for", ("/tmp/app.py", 12))
        assert label == "<omp for @ app.py:12>"


class TestDirectiveStacks:
    def test_region_enter_exit_truncates_leaks(self):
        sampler = Sampler(pure_runtime, interval=0.01)
        ident = threading.get_ident()
        mark = sampler.region_enter("parallel", None)
        sampler.loop_enter(None)
        sampler.loop_enter(None)  # leaked inner loop (no loop_exit)
        assert len(sampler._active[ident]) == 3
        sampler.region_exit(mark)
        assert sampler._active[ident] == []

    def test_loop_exit_pops_innermost_for_only(self):
        sampler = Sampler(pure_runtime, interval=0.01)
        ident = threading.get_ident()
        mark = sampler.region_enter("parallel", None)
        sampler.loop_enter(("a.py", 1))
        sampler.loop_exit()
        assert [kind for kind, _ in sampler._active[ident]] \
            == ["parallel"]
        sampler.loop_exit()  # no for marker left: no-op
        assert [kind for kind, _ in sampler._active[ident]] \
            == ["parallel"]
        sampler.region_exit(mark)


class TestLifecycle:
    def test_interval_must_be_positive(self):
        with pytest.raises(ValueError):
            Sampler(pure_runtime, interval=0.0)

    def test_start_stop_idempotent_and_reversible(self):
        assert pure_runtime.sampler is None
        assert pure_runtime.diag is None
        sampler = Sampler(pure_runtime, interval=0.01)
        try:
            assert sampler.start() is sampler
            thread = sampler._thread
            assert sampler.start() is sampler  # second start: no-op
            assert sampler._thread is thread
            assert pure_runtime.sampler is sampler
            assert pure_runtime.diag is not None
        finally:
            sampler.stop()
        sampler.stop()  # second stop: no-op
        assert pure_runtime.sampler is None
        # The diag it created for wait classification is removed again.
        assert pure_runtime.diag is None
        assert not sampler.running

    def test_does_not_steal_foreign_diag(self):
        from repro.diagnostics.state import install, uninstall
        foreign = install(pure_runtime)
        sampler = Sampler(pure_runtime, interval=0.01).start()
        sampler.stop()
        assert pure_runtime.diag is foreign
        assert pure_runtime.tool is foreign
        uninstall(pure_runtime, foreign)

    def test_samples_arrive_while_running(self):
        sampler = Sampler(pure_runtime, interval=0.002).start()
        try:
            deadline = time.perf_counter() + 2.0
            while sampler.ticks < 5 and time.perf_counter() < deadline:
                time.sleep(0.01)
            assert sampler.ticks >= 5
        finally:
            sampler.stop()


class TestDisarmedCost:
    def test_directives_run_with_no_sampler(self):
        """With no sampler armed the instrumented sites must not fire
        (and must not fail) — the one-attribute-read discipline the
        tracer, tool, and diag hooks already follow."""
        rt = pure_runtime
        assert rt.sampler is None
        rt.parallel_run(rt.barrier, num_threads=2)

        def region():
            bounds = rt.for_bounds([0, 4, 1])
            rt.for_init(bounds)
            while rt.for_next(bounds):
                pass
            rt.for_end(bounds)
            rt.task_submit(lambda: None)
            rt.task_wait()

        rt.parallel_run(region, num_threads=2)
        assert rt.sampler is None


class TestEnvKnobs:
    def test_profile_spec_off_on_path(self, monkeypatch):
        monkeypatch.delenv("OMP4PY_PROFILE", raising=False)
        assert env.profile_spec() is None
        monkeypatch.setenv("OMP4PY_PROFILE", "0")
        assert env.profile_spec() is None
        monkeypatch.setenv("OMP4PY_PROFILE", "1")
        assert env.profile_spec() == "1"
        monkeypatch.setenv("OMP4PY_PROFILE", "out/samples.collapsed")
        assert env.profile_spec() == "out/samples.collapsed"

    def test_profile_hz_default_parse_cap_errors(self, monkeypatch):
        monkeypatch.delenv("OMP4PY_PROFILE_HZ", raising=False)
        assert env.profile_hz() == env.DEFAULT_PROFILE_HZ
        monkeypatch.setenv("OMP4PY_PROFILE_HZ", "50")
        assert env.profile_hz() == 50.0
        monkeypatch.setenv("OMP4PY_PROFILE_HZ", "1e9")
        assert env.profile_hz() == 10_000.0
        monkeypatch.setenv("OMP4PY_PROFILE_HZ", "fast")
        with pytest.raises(OmpError):
            env.profile_hz()
        monkeypatch.setenv("OMP4PY_PROFILE_HZ", "-5")
        with pytest.raises(OmpError):
            env.profile_hz()


class TestAutoSample:
    def test_env_knob_arms_and_deactivates(self, monkeypatch):
        from repro import arming
        monkeypatch.setenv("OMP4PY_PROFILE", "1")
        monkeypatch.setenv("OMP4PY_PROFILE_HZ", "100")
        arming.arm_from_env(pure_runtime)
        try:
            sampler = arming.armed(pure_runtime).sampler
            assert sampler is not None
            assert sampler.running
            assert sampler.interval == pytest.approx(0.01)
            assert pure_runtime.sampler is sampler
            arming.arm_from_env(pure_runtime)  # idempotent
            assert arming.armed(pure_runtime).sampler is sampler
        finally:
            arming.disarm(pure_runtime)
        assert arming.armed(pure_runtime).sampler is None
        assert pure_runtime.sampler is None

    def test_unset_knob_is_a_no_op(self, monkeypatch):
        from repro import arming
        monkeypatch.delenv("OMP4PY_PROFILE", raising=False)
        arming.arm_from_env(pure_runtime)
        assert arming.armed(pure_runtime).sampler is None


class TestReports:
    def test_status_and_report_shapes(self):
        sampler = Sampler(pure_runtime, interval=0.004).start()
        try:
            time.sleep(0.05)
        finally:
            sampler.stop()
        status = sampler.status()
        assert status["armed"] is False
        assert status["hz"] == pytest.approx(250.0)
        assert status["ticks"] > 0
        report = sampler.report()
        for key in ("directives", "hot_frames", "top_stacks",
                    "by_state", "dropped_stacks"):
            assert key in report

    def test_watchdog_report_carries_sampler_evidence(self):
        from repro.diagnostics.waitgraph import build_wait_graph
        from repro.diagnostics.watchdog import (build_report,
                                                format_report)
        sampler = Sampler(pure_runtime, interval=0.005).start()
        try:
            snapshot = pure_runtime.diag.snapshot()
            graph = build_wait_graph(snapshot)
            report = build_report(pure_runtime, snapshot, graph)
            assert report["sampler"]["armed"] is True
            assert report["sampler"]["hz"] == pytest.approx(200.0)
            text = format_report(report)
            assert "sampler: armed at 200 Hz" in text
        finally:
            sampler.stop()


class TestAttribution:
    KERNEL = '''
def kernel(hot_s, cold_s):
    import time
    x = 0.0
    with omp("parallel num_threads(2)"):
        with omp("for schedule(static)"):
            for _i in range(2):
                end = time.perf_counter() + hot_s
                while time.perf_counter() < end:
                    x += 1.0
        with omp("for schedule(static)"):
            for _j in range(2):
                end = time.perf_counter() + cold_s
                while time.perf_counter() < end:
                    x += 1.0
    return x
'''

    def test_hot_loop_dominates_samples(self, omp_compile):
        """The acceptance kernel: two worksharing loops burning ~90%
        and ~10% of the CPU; at least 80% of the loop-attributed
        on-CPU samples must land on the hot loop's directive."""
        kernel = omp_compile(self.KERNEL, "kernel", mode=Mode.PURE)
        sampler = Sampler(pure_runtime, interval=0.002).start()
        try:
            kernel(0.45, 0.05)
        finally:
            sampler.stop()
        loops = {label: entry for label, entry
                 in sampler.store.directives.items()
                 if label.startswith("<omp for")}
        assert len(loops) == 2, sampler.store.directives
        total_self = sum(entry["self"] for entry in loops.values())
        assert total_self >= 20, sampler.store.directives

        def line_of(label):
            return int(label.rsplit(":", 1)[1].rstrip(">"))

        hot_label = min(loops, key=line_of)  # first loop in the source
        share = loops[hot_label]["self"] / total_self
        assert share >= 0.8, (share, loops)
        # The hot loop's evidence names the frames inside it.
        assert sampler.store.hottest_frames(hot_label)

    def test_bottleneck_annotation_quotes_hot_frames(self, omp_compile):
        from repro.explain.bottlenecks import Finding, _attach_samples
        kernel = omp_compile(self.KERNEL, "kernel", mode=Mode.PURE)
        sampler = Sampler(pure_runtime, interval=0.002).start()
        try:
            kernel(0.3, 0.02)
        finally:
            sampler.stop()
        samples = sampler.report()
        findings = [Finding(category="barrier-imbalance", lost_s=1.0,
                            fraction=0.5, message="imbalance")]
        _attach_samples(findings, samples)
        assert "sampling:" in findings[0].message
        assert findings[0].extra["sampled_top_frames"]
        assert findings[0].extra["sampled_self_share"] >= 0.5

        # With no findings at all, a standalone informational finding
        # carries the evidence instead.
        alone: list = []
        _attach_samples(alone, samples)
        assert alone and alone[0].category == "sampled-hotspot"
