"""Live observability endpoint: ``/metrics`` and ``/explain`` over
HTTP while a workload runs.

The package's one HTTP front (:class:`repro.httpd.HttpFront`, a
stdlib ``ThreadingHTTPServer`` on a daemon thread) serves:

* ``GET /metrics`` — Prometheus text exposition of the attached
  metrics registry (scrapeable by a stock Prometheus);
* ``GET /explain`` — the current DAG summary as JSON, rebuilt from a
  snapshot of the (still recording) tracer on every request;
* ``GET /profile`` — the sampling profiler's directive/hot-frame
  report as JSON (``?format=collapsed`` for folded-stack text), or
  ``{"armed": false}`` when ``OMP4PY_PROFILE`` is off;
* ``GET /healthz`` — liveness probe.

Armed by ``OMP4PY_METRICS_PORT`` through :mod:`repro.arming`; port 0
binds an ephemeral port, exposed via :attr:`MetricsServer.port`.  Binds
127.0.0.1 — front it with a real proxy to expose it beyond the host.
"""

from __future__ import annotations

from repro.httpd import PROMETHEUS, HttpFront, json_reply


class MetricsServer:
    """Serve live metrics/explain snapshots for one runtime."""

    def __init__(self, runtime, registry=None, port: int = 0,
                 host: str = "127.0.0.1"):
        self.runtime = runtime
        self.registry = registry
        self._front = HttpFront({
            ("GET", "/metrics"): lambda _http: (
                200, PROMETHEUS, self.metrics_text().encode()),
            ("GET", "/explain"): lambda _http: json_reply(
                200, self.explain_payload()),
            ("GET", "/profile"): self._profile,
            ("GET", "/healthz"): lambda _http: json_reply(
                200, {"ok": True}),
        }, (host, port), "omp4py-metrics-server")

    # -- payloads (also used directly by tests) -------------------------

    def metrics_text(self) -> str:
        if self.registry is None:
            return "# no metrics registry attached\n"
        from repro.ompt.exporters import prometheus_text
        return prometheus_text(self.registry)

    def explain_payload(self) -> dict:
        from repro.explain.dag import build_dag, summarize
        events = self.runtime.tracer.events()
        payload = summarize(build_dag(events))
        payload["runtime"] = self.runtime.name
        payload["recording"] = self.runtime.tracer.enabled
        return payload

    def samples_payload(self) -> dict:
        sampler = getattr(self.runtime, "sampler", None)
        if sampler is None:
            return {"armed": False, "runtime": self.runtime.name}
        payload = sampler.report()
        payload["runtime"] = self.runtime.name
        return payload

    def samples_collapsed(self) -> str:
        sampler = getattr(self.runtime, "sampler", None)
        if sampler is None:
            return "# sampler disarmed (set OMP4PY_PROFILE)\n"
        from repro.sampling.exporters import collapsed_text
        return collapsed_text(sampler.store)

    def _profile(self, http):
        if "format=collapsed" in http.query:
            return (200, "text/plain; charset=utf-8",
                    self.samples_collapsed().encode())
        return json_reply(200, self.samples_payload())

    # -- lifecycle (the shared front: repro.httpd) ------------------------

    def start(self) -> "MetricsServer":
        self._front.start()
        return self

    @property
    def port(self) -> int | None:
        """The bound port (resolves port-0 requests), or ``None``
        before :meth:`start`."""
        return self._front.port

    @property
    def url(self) -> str | None:
        return self._front.url

    def stop(self) -> None:
        self._front.stop()
