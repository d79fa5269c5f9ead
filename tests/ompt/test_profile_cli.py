"""Tests of ``python -m repro.profile`` and the env-knob wiring."""

import json
import subprocess
import sys

import pytest

from repro.modes import Mode
from repro.ompt.cli import build_parser, main, profile_app
from repro.ompt.exporters import validate_chrome_trace
from repro.runtime import pure_runtime


class TestProfileApp:
    def test_jacobi_pure_produces_full_artifacts(self):
        measurement, report, trace, prometheus = profile_app(
            "jacobi", Mode.PURE, threads=2, profile="test")
        assert measurement.wall > 0
        assert report["run"]["app"] == "jacobi"
        assert report["run"]["threads"] == 2
        # Acceptance figures: chunks/iterations per thread, barrier
        # wait, and projection imbalance all present.
        assert report["per_thread"]["chunks"]
        assert sum(report["per_thread"]["iterations"].values()) > 0
        assert report["barrier_wait"]["count"] >= 1
        assert report["barrier_wait"]["per_thread_s"]
        assert report["regions"]
        assert report["imbalance"]["max"] >= 1.0
        assert validate_chrome_trace(trace) == []
        assert trace["otherData"]["dropped_events"] == 0
        assert "omp_parallel_regions_total" in prometheus
        json.dumps(report)

    def test_instrumentation_is_removed_afterwards(self):
        profile_app("pi", Mode.PURE, threads=2, profile="test")
        assert pure_runtime.tool is None
        assert not pure_runtime.tracer.enabled

    def test_trace_capacity_override_is_restored(self):
        old_capacity = pure_runtime.tracer.capacity
        _m, report, trace, _prom = profile_app(
            "pi", Mode.PURE, threads=2, profile="test", trace_capacity=2)
        assert pure_runtime.tracer.capacity == old_capacity
        assert trace["otherData"]["dropped_events"] > 0
        assert report["trace"]["dropped"] == \
            trace["otherData"]["dropped_events"]
        # The capacity bounds each of the two team threads' rings.
        assert 0 < report["trace"]["events"] <= 2 * 2
        assert len(trace["traceEvents"]) <= 2 * 2 + 2  # + metadata

    def test_unknown_app_raises(self):
        from repro.errors import OmpError
        with pytest.raises(OmpError):
            profile_app("not-an-app", Mode.PURE, 1, "test")


class TestCliMain:
    def test_list_prints_apps(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "pi" in out.split()

    def test_missing_app_errors(self):
        with pytest.raises(SystemExit):
            main([])

    def test_writes_artifacts(self, tmp_path, capsys):
        assert main(["pi", "--mode", "pure", "--threads", "2",
                     "--profile", "test", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "[profile] pi (pure, 2 threads)" in out
        trace = json.loads((tmp_path / "pi_pure_trace.json").read_text())
        assert validate_chrome_trace(trace) == []
        report = json.loads(
            (tmp_path / "pi_pure_metrics.json").read_text())
        assert report["run"]["mode"] == "pure"
        prom = (tmp_path / "pi_pure_metrics.prom").read_text()
        assert "# TYPE omp_parallel_regions_total counter" in prom

    def test_truncation_warning(self, tmp_path, capsys):
        main(["pi", "--mode", "pure", "--threads", "2",
              "--profile", "test", "--out", str(tmp_path),
              "--trace-capacity", "2"])
        err = capsys.readouterr().err
        assert "trace truncated" in err

    def test_parser_defaults(self):
        args = build_parser().parse_args(["pi"])
        assert args.mode == "hybrid"
        assert args.threads == 2
        assert args.profile == "test"


class TestSampleFlag:
    def test_sample_writes_flamegraph_artifacts(self, tmp_path, capsys):
        from repro.sampling.exporters import (validate_collapsed,
                                              validate_speedscope)
        assert main(["qsort", "--mode", "pure", "--threads", "2",
                     "--profile", "test", "--repeats", "3",
                     "--sample", "--sample-hz", "400",
                     "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "[profile] samples:" in out
        assert "at 400 Hz" in out
        collapsed = (tmp_path / "qsort_pure_samples.collapsed")
        assert validate_collapsed(collapsed.read_text()) == []
        speedscope = json.loads(
            (tmp_path / "qsort_pure_samples.speedscope.json").read_text())
        assert validate_speedscope(speedscope) == []
        # The sampler is stopped and detached again afterwards.
        assert pure_runtime.sampler is None

    def test_sample_hz_alone_arms_the_sampler(self, tmp_path, capsys):
        assert main(["pi", "--mode", "pure", "--threads", "2",
                     "--profile", "test", "--sample-hz", "100",
                     "--out", str(tmp_path)]) == 0
        assert "at 100 Hz" in capsys.readouterr().out
        assert (tmp_path / "pi_pure_samples.collapsed").exists()


class TestMergeFlag:
    @staticmethod
    def rank_trace(tmp_path, rank, epoch):
        payload = {
            "traceEvents": [
                {"name": "work", "ph": "i", "s": "t", "ts": 5.0,
                 "pid": 1, "tid": 0, "args": {}},
            ],
            "displayTimeUnit": "ms",
            "otherData": {"rank": rank, "dropped_events": 0,
                          "epoch_start_unix_s": epoch},
        }
        path = tmp_path / f"trace.rank{rank}.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        return path

    def test_merge_writes_one_timeline(self, tmp_path, capsys):
        first = self.rank_trace(tmp_path, 0, 50.0)
        second = self.rank_trace(tmp_path, 1, 50.25)
        out_dir = tmp_path / "merged"
        assert main(["--merge", str(first), str(second),
                     "--out", str(out_dir)]) == 0
        out = capsys.readouterr().out
        assert "merged 2 rank trace(s)" in out
        merged = json.loads(
            (out_dir / "trace.merged.json").read_text())
        assert validate_chrome_trace(merged) == []
        assert merged["otherData"]["ranks"] == 2
        instants = {row["pid"]: row["ts"]
                    for row in merged["traceEvents"]
                    if row["ph"] == "i"}
        assert instants[0] == 5.0
        assert instants[1] == pytest.approx(5.0 + 0.25e6)

    def test_merge_to_explicit_json_path(self, tmp_path, capsys):
        first = self.rank_trace(tmp_path, 0, 50.0)
        target = tmp_path / "deep" / "combined.json"
        assert main(["--merge", str(first),
                     "--out", str(target)]) == 0
        capsys.readouterr()
        assert json.loads(target.read_text())["otherData"]["ranks"] == 1


class TestEnvKnobs:
    def test_module_entrypoint_and_env_artifacts(self, tmp_path):
        """OMP4PY_TRACE / OMP4PY_METRICS write artifacts at exit."""
        script = tmp_path / "knob_demo.py"
        script.write_text(
            "from repro.api import omp\n"
            "\n"
            "@omp\n"
            "def work(n, threads):\n"
            "    total = 0\n"
            "    with omp('parallel for reduction(+:total) "
            "num_threads(threads) schedule(dynamic, 50)'):\n"
            "        for i in range(n):\n"
            "            total += i\n"
            "    return total\n"
            "\n"
            "assert work(500, 2) == sum(range(500))\n",
            encoding="utf-8")
        trace_path = tmp_path / "trace.json"
        metrics_path = tmp_path / "metrics.json"
        import os
        import pathlib

        import repro
        src_dir = str(pathlib.Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ,
                   OMP4PY_MODE="pure",
                   OMP4PY_TRACE=str(trace_path),
                   OMP4PY_METRICS=str(metrics_path),
                   PYTHONPATH=src_dir)
        result = subprocess.run(
            [sys.executable, str(script)], env=env,
            capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        trace = json.loads(trace_path.read_text())
        assert validate_chrome_trace(trace) == []
        assert len(trace["traceEvents"]) > 0
        report = json.loads(metrics_path.read_text())
        assert report["per_thread"]["chunks"]

    def test_auto_instrument_is_idempotent(self, monkeypatch):
        from repro import arming
        monkeypatch.setattr(arming.env, "trace_spec", lambda: "1")
        monkeypatch.setattr(arming.env, "metrics_spec", lambda: None)
        try:
            arming.arm_from_env(pure_runtime)
            arming.arm_from_env(pure_runtime)
            assert pure_runtime.tracer.enabled
        finally:
            arming.disarm(pure_runtime)
        assert not pure_runtime.tracer.enabled

    def test_disarm_leaves_a_hand_started_tracer_running(self,
                                                         monkeypatch):
        """disarm() undoes what arm() did: a metrics-only arm never
        started the tracer, so it must not stop the user's."""
        from repro import arming
        monkeypatch.setattr(arming.env, "trace_spec", lambda: None)
        monkeypatch.setattr(arming.env, "metrics_spec", lambda: "1")
        pure_runtime.tracer.start()
        try:
            arming.arm_from_env(pure_runtime)
            tool = arming.armed(pure_runtime).tool
            assert tool is not None
            arming.disarm(pure_runtime)
            assert pure_runtime.tracer.enabled
            assert arming.armed(pure_runtime).tool is None
            pure_runtime.parallel_run(lambda: None, num_threads=2)
        finally:
            events = pure_runtime.tracer.stop()
        assert [event.kind for event in events].count("parallel_begin") == 1
        assert pure_runtime.tool is None

    def test_spec_parsing(self, monkeypatch):
        from repro import env
        monkeypatch.delenv("OMP4PY_TRACE", raising=False)
        assert env.trace_spec() is None
        monkeypatch.setenv("OMP4PY_TRACE", "0")
        assert env.trace_spec() is None
        monkeypatch.setenv("OMP4PY_TRACE", "true")
        assert env.trace_spec() == "1"
        monkeypatch.setenv("OMP4PY_TRACE", "/tmp/x.json")
        assert env.trace_spec() == "/tmp/x.json"
        monkeypatch.setenv("OMP4PY_METRICS", "out.prom")
        assert env.metrics_spec() == "out.prom"
