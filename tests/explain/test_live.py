"""Live metrics endpoint and the OMP4PY_METRICS_PORT knob."""

import json
import urllib.error
import urllib.request

import pytest

from repro import env
from repro.errors import OmpError
from repro.explain.live import MetricsServer
from repro.ompt.metrics import MetricsTool
from repro.runtime import pure_runtime


def fetch(url, timeout=5):
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return response.status, response.read()


class TestMetricsServer:
    def test_serves_metrics_explain_healthz(self):
        tool = MetricsTool()
        tool.registry.counter("omp_test_total", "test counter").inc(3)
        server = MetricsServer(pure_runtime, registry=tool.registry,
                               port=0).start()
        try:
            assert server.port and server.port > 0
            status, body = fetch(server.url + "/metrics")
            assert status == 200
            text = body.decode()
            assert "# TYPE omp_test_total counter" in text
            assert "omp_test_total 3" in text

            status, body = fetch(server.url + "/explain")
            assert status == 200
            payload = json.loads(body)
            assert payload["runtime"] == pure_runtime.name
            assert "critical_path_s" in payload
            assert "recording" in payload

            status, body = fetch(server.url + "/healthz")
            assert status == 200
            assert json.loads(body) == {"ok": True}
        finally:
            server.stop()

    def test_unknown_path_is_404(self):
        server = MetricsServer(pure_runtime, port=0).start()
        try:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                fetch(server.url + "/nope")
            assert excinfo.value.code == 404
        finally:
            server.stop()

    def test_failing_route_is_500_json_and_keeps_serving(self,
                                                         monkeypatch):
        server = MetricsServer(pure_runtime, port=0)

        def broken():
            raise RuntimeError("dag exploded")

        monkeypatch.setattr(server, "explain_payload", broken)
        server.start()
        try:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                fetch(server.url + "/explain")
            assert excinfo.value.code == 500
            assert excinfo.value.headers["Content-Type"] \
                == "application/json"
            assert json.loads(excinfo.value.read()) \
                == {"error": "dag exploded"}
            assert fetch(server.url + "/healthz")[0] == 200
        finally:
            server.stop()

    def test_no_registry_metrics_placeholder(self):
        server = MetricsServer(pure_runtime, registry=None, port=0)
        assert "registry" in server.metrics_text()
        assert server.port is None
        assert server.url is None
        server.stop()  # no-op before start

    def test_stop_is_idempotent_and_start_reentrant(self):
        server = MetricsServer(pure_runtime, port=0)
        assert server.start() is server.start()
        server.stop()
        server.stop()


class TestProfileRoute:
    def test_disarmed_reports_so(self):
        server = MetricsServer(pure_runtime, port=0).start()
        try:
            status, body = fetch(server.url + "/profile")
            assert status == 200
            payload = json.loads(body)
            assert payload == {"armed": False,
                               "runtime": pure_runtime.name}
        finally:
            server.stop()

    def test_armed_serves_report_and_collapsed(self):
        from repro.sampling.exporters import validate_collapsed
        from repro.sampling.sampler import Sampler
        sampler = Sampler(pure_runtime, interval=0.005).start()
        server = MetricsServer(pure_runtime, port=0).start()
        try:
            status, body = fetch(server.url + "/profile")
            assert status == 200
            payload = json.loads(body)
            assert payload["armed"] is True
            assert payload["runtime"] == pure_runtime.name
            for key in ("directives", "top_stacks", "by_state"):
                assert key in payload

            status, body = fetch(server.url + "/profile?format=collapsed")
            assert status == 200
            assert validate_collapsed(body.decode()) == []
        finally:
            server.stop()
            sampler.stop()


class TestMetricsPortKnob:
    def test_unset_is_off(self, monkeypatch):
        monkeypatch.delenv("OMP4PY_METRICS_PORT", raising=False)
        assert env.metrics_port() is None

    @pytest.mark.parametrize("raw", ["off", "false", "no", "", "  "])
    def test_false_spellings_are_off(self, monkeypatch, raw):
        monkeypatch.setenv("OMP4PY_METRICS_PORT", raw)
        assert env.metrics_port() is None

    def test_zero_requests_an_ephemeral_port(self, monkeypatch):
        monkeypatch.setenv("OMP4PY_METRICS_PORT", "0")
        assert env.metrics_port() == 0

    def test_explicit_port(self, monkeypatch):
        monkeypatch.setenv("OMP4PY_METRICS_PORT", "9464")
        assert env.metrics_port() == 9464

    @pytest.mark.parametrize("raw", ["eleventy", "-1", "70000"])
    def test_invalid_values_raise(self, monkeypatch, raw):
        monkeypatch.setenv("OMP4PY_METRICS_PORT", raw)
        with pytest.raises(OmpError):
            env.metrics_port()


class TestAutoInstrumentWiring:
    def test_port_knob_arms_tracer_tool_and_server(self, monkeypatch):
        from repro import arming
        monkeypatch.setattr(arming.env, "trace_spec", lambda: None)
        monkeypatch.setattr(arming.env, "metrics_spec", lambda: None)
        monkeypatch.setattr(arming.env, "metrics_port", lambda: 0)
        try:
            arming.arm_from_env(pure_runtime)
            assert pure_runtime.tracer.enabled
            assert arming.armed(pure_runtime).tool is not None
            server = arming.armed(pure_runtime).server
            assert server is not None and server.port > 0
            status, _body = fetch(server.url + "/healthz")
            assert status == 200
        finally:
            arming.disarm(pure_runtime)
        assert arming.armed(pure_runtime).server is None
        assert not pure_runtime.tracer.enabled
