"""``python -m repro.explain`` end-to-end, plus the property that on
real traces the critical path is bracketed by wall/nthreads and wall."""

import json

import pytest

from repro.explain.cli import explain_app, main
from repro.modes import Mode


class TestExplainAppProperty:
    @pytest.mark.parametrize("app", ["qsort", "bfs"])
    def test_critical_path_bracketed_by_wall(self, app):
        threads = 4
        report = explain_app(app, Mode.PURE, threads=threads,
                             profile="test")
        wall = report["wall_s"]
        critical = report["critical_path_s"]
        assert wall > 0
        # The DAG invariant: no schedule beats perfect parallelism,
        # and the realized timeline never exceeds the recording.
        assert critical <= wall * 1.15
        assert critical >= wall / threads / 1.15
        assert critical <= report["span_s"] + 1e-9
        # A dominant bottleneck is named at a user source line.
        assert report["dominant"] is not None
        assert report["dominant"]["location"]
        json.dumps(report)  # report is JSON-serializable

    def test_instrumentation_removed_afterwards(self):
        from repro.runtime import pure_runtime
        old_capacity = pure_runtime.tracer.capacity
        explain_app("pi", Mode.PURE, threads=2, profile="test")
        assert pure_runtime.tool is None
        assert not pure_runtime.tracer.enabled
        assert pure_runtime.tracer.capacity == old_capacity


class TestCliMain:
    def test_list_prints_apps(self, capsys):
        assert main(["--list"]) == 0
        assert "pi" in capsys.readouterr().out.split()

    def test_missing_target_errors(self):
        with pytest.raises(SystemExit):
            main([])

    def test_report_json_and_check(self, tmp_path, capsys):
        out = tmp_path / "explain.json"
        code = main(["qsort", "--mode", "pure", "--threads", "4",
                     "--profile", "test", "--json", str(out),
                     "--check", "--strict"])
        printed = capsys.readouterr().out
        assert "[explain] qsort:" in printed
        assert "dominant bottleneck" in printed
        report = json.loads(out.read_text())
        assert report["schema"] == "omp4py-explain/1"
        assert report["run"]["threads"] == 4
        assert report["bottlenecks"]
        assert code == 0, printed

    def test_strict_fails_on_dropped_events(self, capsys):
        code = main(["qsort", "--mode", "pure", "--threads", "2",
                     "--profile", "test", "--strict",
                     "--trace-capacity", "4"])
        assert code == 1
        assert "STRICT" in capsys.readouterr().err

    def test_sweep_fits_models(self, capsys):
        code = main(["pi", "--mode", "pure", "--threads", "2",
                     "--profile", "test", "--sweep", "1,2"])
        assert code == 0
        assert "speedup ceiling" in capsys.readouterr().out

    def test_script_target(self, tmp_path, capsys):
        script = tmp_path / "tiny.py"
        script.write_text(
            "from repro import omp\n"
            "\n"
            "@omp(mode='pure')\n"
            "def work():\n"
            "    total = 0\n"
            "    with omp('parallel num_threads(2)'):\n"
            "        with omp('critical'):\n"
            "            total += 1\n"
            "    return total\n"
            "\n"
            "print('result:', work())\n",
            encoding="utf-8")
        code = main([str(script)])
        printed = capsys.readouterr().out
        assert code == 0
        assert "tiny.py" in printed
        assert "critical path" in printed


class TestProfileStrict:
    def test_profile_strict_fails_on_truncation(self, tmp_path,
                                                capsys):
        from repro.ompt.cli import main as profile_main
        code = profile_main(["pi", "--mode", "pure", "--threads", "2",
                             "--profile", "test", "--out",
                             str(tmp_path), "--trace-capacity", "2",
                             "--strict"])
        assert code == 1
        assert "STRICT" in capsys.readouterr().err

    def test_profile_strict_passes_when_complete(self, tmp_path):
        from repro.ompt.cli import main as profile_main
        code = profile_main(["pi", "--mode", "pure", "--threads", "2",
                             "--profile", "test", "--out",
                             str(tmp_path), "--strict"])
        assert code == 0


class TestChromeTraceAnchor:
    def test_exported_trace_carries_epoch_and_backend(self):
        import time

        from repro.ompt.exporters import chrome_trace
        from repro.runtime import pure_runtime

        tracer = pure_runtime.tracer
        tracer.start()
        tracer.record("parallel_begin", 0, 2, 1, "app.py", 3)
        tracer.record("parallel_end", 0, 2, 1)
        events = tracer.stop()
        trace = chrome_trace(events, metadata={"threads": 2})
        other = trace["otherData"]
        assert other["backend"] in ("gil", "nogil")
        assert other["threads_observed"] == 1
        assert other["threads"] == 2
        offset = other["monotonic_to_unix_offset_s"]
        # Rebasing the monotonic anchor by the offset lands on "now".
        anchored = events.anchor[1] + offset
        assert abs(anchored - time.time()) < 60.0
        assert other["epoch_start_unix_s"] == pytest.approx(
            events[0].timestamp + offset)
