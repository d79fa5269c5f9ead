"""Live observability endpoint: ``/metrics`` and ``/explain`` over
HTTP while a workload runs.

A daemon thread runs a stdlib :class:`http.server.ThreadingHTTPServer`
serving:

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

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer


class MetricsServer:
    """Serve live metrics/explain snapshots for one runtime."""

    def __init__(self, runtime, registry=None, port: int = 0,
                 host: str = "127.0.0.1"):
        self.runtime = runtime
        self.registry = registry
        self._requested = (host, port)
        self._httpd: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None

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

    # -- lifecycle -------------------------------------------------------

    def start(self) -> "MetricsServer":
        if self._httpd is not None:
            return self
        server = self

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, *_args):  # noqa: D102 - quiet server
                pass

            def _send(self, status: int, content_type: str,
                      body: bytes) -> None:
                self.send_response(status)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def do_GET(self):  # noqa: N802 - http.server API
                try:
                    if self.path.split("?")[0] == "/metrics":
                        self._send(200,
                                   "text/plain; version=0.0.4; "
                                   "charset=utf-8",
                                   server.metrics_text().encode())
                    elif self.path.split("?")[0] == "/explain":
                        body = json.dumps(
                            server.explain_payload()).encode()
                        self._send(200, "application/json", body)
                    elif self.path.split("?")[0] == "/profile":
                        if "format=collapsed" in self.path:
                            self._send(200,
                                       "text/plain; charset=utf-8",
                                       server.samples_collapsed()
                                       .encode())
                        else:
                            body = json.dumps(
                                server.samples_payload()).encode()
                            self._send(200, "application/json", body)
                    elif self.path.split("?")[0] == "/healthz":
                        self._send(200, "application/json",
                                   b'{"ok": true}')
                    else:
                        self._send(404, "text/plain", b"not found\n")
                except BrokenPipeError:  # pragma: no cover - client gone
                    pass
                except Exception as error:  # noqa: BLE001 - keep serving
                    try:
                        self._send(500, "text/plain",
                                   f"error: {error}\n".encode())
                    except OSError:  # pragma: no cover
                        pass

        self._httpd = ThreadingHTTPServer(self._requested, Handler)
        self._httpd.daemon_threads = True
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="omp4py-metrics-server", daemon=True)
        self._thread.start()
        return self

    @property
    def port(self) -> int | None:
        """The bound port (resolves port-0 requests), or ``None``
        before :meth:`start`."""
        if self._httpd is None:
            return None
        return self._httpd.server_address[1]

    @property
    def url(self) -> str | None:
        if self._httpd is None:
            return None
        host, port = self._httpd.server_address[:2]
        return f"http://{host}:{port}"

    def stop(self) -> None:
        httpd = self._httpd
        if httpd is None:
            return
        self._httpd = None
        httpd.shutdown()
        httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None
