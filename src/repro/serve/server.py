"""The serving core: input store, dispatcher, and the HTTP front door.

:class:`ServeServer` wires the subsystem together:

* the **input store** lazily materializes each (app, profile,
  overrides) input set once — numeric arrays into shared-memory
  segments, scalars onto the control plane, the rest marked for
  in-worker rebuild — and computes the sequential reference digest
  every response is verified against; it keeps at most
  ``INPUT_CAPACITY`` input sets, evicting the least recently used one
  no dispatched job holds;
* the **dispatcher** (one thread) pulls batches from the admission
  queue, charges tenant budgets, stamps each job with its tenant's CPU
  partition, and hands it to an idle worker; crashed jobs are requeued
  at the front with bounded retries, so an accepted request survives a
  worker kill;
* the **front door** is a stdlib ``ThreadingHTTPServer`` in the
  :mod:`repro.explain.live` style: ``POST /v1/run`` executes a kernel,
  ``POST /v1/tenants`` registers a tenant (409 on duplicates),
  ``GET /v1/apps``, ``/state``, ``/metrics`` (Prometheus text via the
  existing exporter), and ``/healthz``.  A full queue sheds with 503
  plus ``Retry-After``.
"""

from __future__ import annotations

import collections
import itertools
import json
import tempfile
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.errors import OmpError
from repro.ompt.metrics import MetricsRegistry
from repro.serve import catalog
from repro.serve.admission import AdmissionQueue, QueueFull
from repro.serve.fleet import INPUT_CAPACITY, Fleet
from repro.serve.protocol import (STATE_SCHEMA, ServeRequest,
                                  digests_match, parse_request,
                                  result_digest)
from repro.serve.shm import ShmRegistry
from repro.serve.tenants import DuplicateTenantError, TenantDirectory

#: Server-wide per-request thread cap (tenant budgets clamp further).
MAX_THREADS = 64

#: Latency samples kept for exact percentiles.
LATENCY_WINDOW = 8192

_SERVICE_BOUNDS = (0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 30.0)


class InputStore:
    """Lazy per-(app, profile, overrides) input materialization, in a
    fixed-capacity LRU.

    :meth:`entry` returns a key's input set, building it on a miss.
    Past ``capacity`` sets the least recently used one is evicted and
    its segments released — unless a job still holds it: :meth:`pin`
    is :meth:`entry` plus a hold that lasts until :meth:`unpin`, and a
    held set is never evicted, so no segment is unlinked under a
    queued or running job.  The store exceeds ``capacity`` only while
    in-flight jobs pin that many sets.
    """

    def __init__(self, registry: ShmRegistry, *, on_evict=None):
        self.registry = registry
        self.capacity = INPUT_CAPACITY
        self.evictions = 0
        self._on_evict = on_evict or (lambda count: None)
        self._lock = threading.Lock()
        self._entries: collections.OrderedDict[tuple, dict] = \
            collections.OrderedDict()
        self._pins: collections.Counter = collections.Counter()

    def entry(self, request: ServeRequest) -> dict:
        return self._lookup(request, pin=False)

    def pin(self, request: ServeRequest) -> dict:
        """:meth:`entry`, held against eviction until
        ``unpin(request.input_key)``."""
        return self._lookup(request, pin=True)

    def unpin(self, key: tuple) -> None:
        with self._lock:
            self._pins[key] -= 1
            if self._pins[key] <= 0:
                del self._pins[key]
            evicted = self._trim()
        self._release(evicted)

    def snapshot(self) -> dict:
        with self._lock:
            return {"entries": len(self._entries),
                    "pinned": len(self._pins),
                    "capacity": self.capacity,
                    "evictions": self.evictions}

    def _lookup(self, request: ServeRequest, *, pin: bool) -> dict:
        key = request.input_key
        with self._lock:
            cached = self._entries.get(key)
            if cached is not None:
                self._entries.move_to_end(key)
                if pin:
                    self._pins[key] += 1
                return cached
        built = self._build(request)
        with self._lock:
            cached = self._entries.setdefault(key, built)
            self._entries.move_to_end(key)
            if pin:
                self._pins[key] += 1
            evicted = self._trim()
        if cached is not built:
            # Another thread built the same key first.
            evicted.append(built)
        self._release(evicted)
        return cached

    def _build(self, request: ServeRequest) -> dict:
        wire: dict[str, dict] = {}
        try:
            inputs = catalog.build_inputs(request.app, request.profile,
                                          request.overrides)
            arrays, scalars, rebuild = catalog.classify_inputs(
                request.app, inputs)
            for field, (array, container, read_only) in arrays.items():
                handle = self.registry.create_array(
                    array, container=container, read_only=read_only)
                wire[field] = handle.to_wire()
            reference = catalog.reference_result(
                request.app, request.profile, request.overrides)
        except BaseException:
            self._release([{"arrays": wire}])
            raise
        expected = None if reference is catalog.NO_REFERENCE \
            else result_digest(reference)
        return {"arrays": wire, "scalars": scalars,
                "rebuild": rebuild, "expected": expected}

    def _trim(self) -> list[dict]:
        """Pop least recently used entries down to capacity (under the
        lock), sparing pinned ones and the newest, which its caller is
        about to return; the caller releases them outside the lock."""
        excess = len(self._entries) - self.capacity
        victims = []
        for key in list(self._entries)[:-1]:
            if len(victims) >= excess:
                break
            if key not in self._pins:
                victims.append(self._entries.pop(key))
        if victims:
            # Under the lock: ``on_evict`` need not be thread-safe.
            self.evictions += len(victims)
            self._on_evict(len(victims))
        return victims

    def _release(self, entries: list[dict]) -> None:
        for entry in entries:
            for doc in entry["arrays"].values():
                self.registry.release(doc["segment"])


class ServeStats:
    """Rollup counters plus an exact-percentile latency window."""

    def __init__(self):
        self.lock = threading.Lock()
        self.accepted = 0
        self.completed = 0
        self.failed = 0
        self.shed = 0
        self.retries = 0
        self.rejected = 0
        self.busy_cpu_s = 0.0
        self._latencies: list[float] = []
        self.started = time.monotonic()

    def observe_latency(self, seconds: float) -> None:
        with self.lock:
            self._latencies.append(seconds)
            if len(self._latencies) > LATENCY_WINDOW:
                del self._latencies[:LATENCY_WINDOW // 8]

    def percentile(self, q: float) -> float | None:
        with self.lock:
            if not self._latencies:
                return None
            ordered = sorted(self._latencies)
        index = min(len(ordered) - 1,
                    max(0, round(q * (len(ordered) - 1))))
        return ordered[index]

    def snapshot(self) -> dict:
        with self.lock:
            done = self.completed
            elapsed = max(1e-9, time.monotonic() - self.started)
            payload = {"accepted": self.accepted,
                       "completed": done,
                       "failed": self.failed,
                       "shed": self.shed,
                       "retries": self.retries,
                       "rejected": self.rejected,
                       "busy_cpu_s": round(self.busy_cpu_s, 4),
                       "rps": round(done / elapsed, 3)}
        payload["p50_s"] = self.percentile(0.50)
        payload["p99_s"] = self.percentile(0.99)
        return payload


class ServeServer:
    """The shared-memory kernel-serving layer (see module docstring)."""

    def __init__(self, *, workers: int = 2, queue_capacity: int = 16,
                 max_batch: int = 4, tenants: dict[str, int] | None = None,
                 host: str = "127.0.0.1", port: int = 0,
                 job_timeout: float = 120.0, max_retries: int = 2,
                 warm_threads: int | None = None,
                 watchdog_interval: float | None = 5.0,
                 debug_apps: bool = False,
                 report_dir: str | None = None):
        self.debug_apps = debug_apps
        self.max_batch = max(1, max_batch)
        self.max_retries = max(0, max_retries)
        self.job_timeout = job_timeout
        self._requested = (host, port)
        budgets = dict(tenants or {"default": 4})
        self.default_tenant = sorted(budgets)[0]
        self.tenants = TenantDirectory()
        for name in sorted(budgets):
            self.tenants.register(name, budgets[name])
        self.queue = AdmissionQueue(queue_capacity)
        self.stats = ServeStats()
        self.metrics = MetricsRegistry()
        self.shm = ShmRegistry()
        self.inputs = InputStore(self.shm, on_evict=self.metrics.counter(
            "omp_serve_input_evictions_total",
            "Input sets evicted from the server's store").inc)
        if report_dir is None:
            self._report_tmp = tempfile.TemporaryDirectory(
                prefix="omp4py-serve-")
            report_dir = self._report_tmp.name
        else:
            self._report_tmp = None
        self.fleet = Fleet(
            workers=workers, registry=self.shm, report_dir=report_dir,
            warm_threads=warm_threads or max(budgets.values()),
            watchdog_interval=watchdog_interval,
            job_timeout=job_timeout,
            debug_apps=debug_apps,
            on_result=self._on_result, on_crash=self._on_crash,
            on_idle=self._wake)
        self._job_ids = itertools.count(1)
        self._jobs: dict[int, dict] = {}
        self._jobs_lock = threading.Lock()
        self._wakeup = threading.Condition()
        self._stopping = False
        self._dispatcher: threading.Thread | None = None
        self._httpd: ThreadingHTTPServer | None = None
        self._http_thread: threading.Thread | None = None

    # -- lifecycle -------------------------------------------------------

    def start(self, *, wait_ready: bool = True) -> "ServeServer":
        self.fleet.start()
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="omp4py-serve-dispatcher",
            daemon=True)
        self._dispatcher.start()
        self._start_http()
        if wait_ready:
            self.fleet.wait_ready()
        return self

    def stop(self) -> None:
        with self._wakeup:
            self._stopping = True
            self._wakeup.notify_all()
        if self._httpd is not None:
            httpd, self._httpd = self._httpd, None
            httpd.shutdown()
            httpd.server_close()
            if self._http_thread is not None:
                self._http_thread.join(timeout=5)
        for request in self.queue.drain():
            request.complete({"ok": False, "id": request.id,
                              "error": "server shutting down"})
        if self._dispatcher is not None:
            self._dispatcher.join(timeout=5)
        self.fleet.shutdown()
        self.shm.close_all()
        if self._report_tmp is not None:
            self._report_tmp.cleanup()

    @property
    def port(self) -> int | None:
        if self._httpd is None:
            return None
        return self._httpd.server_address[1]

    @property
    def url(self) -> str | None:
        if self._httpd is None:
            return None
        host, port = self._httpd.server_address[:2]
        return f"http://{host}:{port}"

    def _wake(self) -> None:
        with self._wakeup:
            self._wakeup.notify_all()

    # -- submission ------------------------------------------------------

    def known_apps(self) -> list[str]:
        return catalog.serveable_apps(self.debug_apps)

    def submit(self, doc: dict, *,
               timeout: float | None = None) -> dict:
        """Parse, admit, dispatch, and wait for one request.

        Raises :class:`OmpError` on a malformed request and
        :class:`QueueFull` on shed — callers (HTTP front door, bench,
        tests) map those to 400/503 themselves.
        """
        request = parse_request(doc, known_apps=self.known_apps(),
                                default_tenant=self.default_tenant,
                                max_threads=MAX_THREADS)
        request.threads = self.tenants.clamp_threads(
            request.tenant, request.threads)
        try:
            self.queue.offer(request,
                             idle_workers=self.fleet.idle_workers())
        except QueueFull:
            with self.stats.lock:
                self.stats.shed += 1
            self.metrics.counter(
                "omp_serve_shed_total",
                "Requests shed at admission", reason="queue_full").inc()
            raise
        with self.stats.lock:
            self.stats.accepted += 1
        self._wake()
        wait = timeout if timeout is not None \
            else self.job_timeout * (self.max_retries + 1) + 30.0
        if not request.done.wait(timeout=wait):
            return {"ok": False, "id": request.id,
                    "error": "request timed out in the server",
                    "timeout": True}
        return request.response

    # -- dispatcher ------------------------------------------------------

    def _can_dispatch(self, request: ServeRequest) -> bool:
        if self.tenants.can_acquire(request.tenant, request.threads):
            return True
        if not request.throttled:
            request.throttled = True
            self.metrics.counter(
                "omp_serve_tenant_throttles_total",
                "Dispatches deferred by a tenant's thread budget",
                tenant=request.tenant).inc()
            self.tenants.throttles[request.tenant] = \
                self.tenants.throttles.get(request.tenant, 0) + 1
        return False

    def _dispatch_loop(self) -> None:
        while True:
            with self._wakeup:
                if self._stopping:
                    return
                if self.queue.depth() == 0 \
                        or self.fleet.idle_workers() == 0:
                    self._wakeup.wait(timeout=0.1)
                    continue
            worker = self.fleet.acquire_idle()
            if worker is None:
                continue
            batch = self.queue.next_batch(
                max_batch=self.max_batch,
                can_dispatch=self._can_dispatch)
            if not batch:
                self.fleet.release_idle(worker)
                with self._wakeup:
                    if not self._stopping:
                        self._wakeup.wait(timeout=0.05)
                continue
            self._dispatch_batch(worker, batch)

    def _fail_batch(self, batch: list[ServeRequest],
                    error: str) -> None:
        for request in batch:
            with self.stats.lock:
                self.stats.failed += 1
            self.metrics.counter(
                "omp_serve_requests_total",
                "Requests completed, by tenant/app/status",
                tenant=request.tenant, app=request.app,
                status="error").inc()
            request.complete({"ok": False, "id": request.id,
                              "app": request.app,
                              "tenant": request.tenant,
                              "error": error})

    def _dispatch_batch(self, worker, batch: list[ServeRequest]) -> None:
        head = batch[0]
        try:
            # Held until the job ends (``_end_job``), or below.
            entry = self.inputs.pin(head)
        except Exception as error:  # noqa: BLE001 - client-facing
            self.fleet.release_idle(worker)
            self._fail_batch(batch, f"input build failed: {error}")
            return
        if not self.tenants.try_acquire(head.tenant, head.threads):
            # A release can only add headroom between the pure check
            # and the charge, so this is effectively unreachable; be
            # safe and retry the batch later anyway.
            self.inputs.unpin(head.input_key)
            self.fleet.release_idle(worker)
            self.queue.requeue_front(batch)
            return
        tenant = self.tenants.get(head.tenant)
        job_id = next(self._job_ids)
        job_doc = {"op": "job", "job_id": job_id,
                   "app": head.app, "mode": head.mode,
                   "profile": head.profile, "threads": head.threads,
                   "nodes": head.nodes, "tenant": head.tenant,
                   "overrides": dict(head.overrides),
                   "arrays": entry["arrays"],
                   "scalars": entry["scalars"],
                   "rebuild": entry["rebuild"],
                   "places": tenant.places_spec if tenant else None,
                   "proc_bind": tenant.proc_bind if tenant else "close",
                   "requests": [{"id": request.id,
                                 "return_values": request.return_values}
                                for request in batch]}
        with self._jobs_lock:
            self._jobs[job_id] = {"requests": {r.id: r for r in batch},
                                  "tenant": head.tenant,
                                  "threads": head.threads,
                                  "input_key": head.input_key,
                                  "expected": entry["expected"]}
        self.metrics.histogram(
            "omp_serve_batch_size", "Requests coalesced per job",
            bounds=(1, 2, 4, 8, 16, 32)).observe(len(batch))
        timeout = self.job_timeout * max(1, len(batch))
        if not self.fleet.dispatch(worker, job_doc, batch,
                                   timeout=timeout):
            # The worker died since it was acquired: nothing was sent.
            self._end_job(job_id)
            self.queue.requeue_front(batch)
            self._wake()

    # -- fleet callbacks -------------------------------------------------

    def _end_job(self, job_id: int) -> dict | None:
        """Forget a job and give back what it held: its tenant's
        threads and its input set's pin.  ``None`` if already ended."""
        with self._jobs_lock:
            job = self._jobs.pop(job_id, None)
        if job is not None:
            self.tenants.release(job["tenant"], job["threads"])
            self.inputs.unpin(job["input_key"])
        return job

    def _on_result(self, worker, message: dict) -> None:
        job = self._end_job(message.get("job_id"))
        if job is None:
            return
        slab_view = None
        now = time.monotonic()
        for record in message.get("results") or []:
            request = job["requests"].pop(record.get("id"), None)
            if request is None:
                continue
            response = {"ok": False, "id": request.id,
                        "app": request.app, "tenant": request.tenant,
                        "mode": request.mode, "threads": request.threads,
                        "nodes": request.nodes,
                        "worker": worker.id, "pid": message.get("pid"),
                        "attempts": request.attempts + 1,
                        "wall_s": record.get("wall_s"),
                        "busy_cpu_s": record.get("busy_cpu_s"),
                        "digest": record.get("digest"),
                        "verified": None, "error": record.get("error")}
            status = "error"
            if record.get("ok"):
                expected = job["expected"]
                if expected is None:
                    response["ok"] = True
                    status = "ok"
                elif digests_match(expected, record.get("digest")):
                    response["ok"] = True
                    response["verified"] = True
                    status = "ok"
                else:
                    response["verified"] = False
                    response["error"] = (
                        "result digest does not match the sequential "
                        f"reference: expected {expected}, got "
                        f"{record.get('digest')}")
                if record.get("slab") and request.return_values:
                    if slab_view is None:
                        slab_view = self.shm.view(worker.slab_handle)
                    count = int(record["slab"]["n"])
                    response["values"] = slab_view[:count].tolist()
                    response["shape"] = record["slab"]["shape"]
            wall = record.get("wall_s")
            if wall:
                self.queue.mean_service_s = round(
                    0.8 * self.queue.mean_service_s + 0.2 * wall, 6)
            latency = now - request.created
            self.stats.observe_latency(latency)
            with self.stats.lock:
                if response["ok"]:
                    self.stats.completed += 1
                else:
                    self.stats.failed += 1
                self.stats.busy_cpu_s += record.get("busy_cpu_s") or 0.0
            self.metrics.counter(
                "omp_serve_requests_total",
                "Requests completed, by tenant/app/status",
                tenant=request.tenant, app=request.app,
                status=status).inc()
            self.metrics.histogram(
                "omp_serve_request_latency_seconds",
                "Admission-to-response latency",
                bounds=_SERVICE_BOUNDS, app=request.app).observe(latency)
            request.complete(response)
        for request in job["requests"].values():
            # The worker replied but skipped a request: treat as error.
            self._fail_batch([request], "worker dropped the request")

    def _on_crash(self, worker, job_doc: dict, requests: list) -> None:
        self._end_job(job_doc.get("job_id"))
        self.metrics.counter(
            "omp_serve_worker_restarts_total",
            "Worker processes respawned after a crash or kill").inc()
        report = worker.last_report or {}
        reason = "worker crashed"
        if report.get("verdict"):
            reason = f"worker killed ({report['verdict']})"
        retry: list[ServeRequest] = []
        for request in requests:
            request.attempts += 1
            request.throttled = False
            if request.attempts <= self.max_retries:
                retry.append(request)
                with self.stats.lock:
                    self.stats.retries += 1
                self.metrics.counter(
                    "omp_serve_retries_total",
                    "Requests requeued after a worker crash").inc()
            else:
                self._fail_batch(
                    [request],
                    f"{reason}; retries exhausted "
                    f"({request.attempts} attempts)")
        if retry:
            self.queue.requeue_front(retry)
        self._wake()

    # -- observability ---------------------------------------------------

    def _refresh_gauges(self) -> None:
        self.metrics.gauge(
            "omp_serve_queue_depth",
            "Admitted requests waiting for dispatch").set(
            self.queue.depth())
        self.metrics.gauge(
            "omp_serve_idle_workers",
            "Workers ready for a job").set(self.fleet.idle_workers())
        self.metrics.gauge(
            "omp_serve_shm_bytes",
            "Bytes held by the shared-memory registry").set(
            self.shm.total_bytes())
        for entry in self.tenants.snapshot():
            self.metrics.gauge(
                "omp_serve_tenant_inflight_threads",
                "Thread-budget units currently charged, per tenant",
                tenant=entry["name"]).set(entry["inflight_threads"])

    def metrics_text(self) -> str:
        from repro.ompt.exporters import prometheus_text
        self._refresh_gauges()
        return prometheus_text(self.metrics)

    def state_payload(self) -> dict:
        return {"schema": STATE_SCHEMA,
                "apps": self.known_apps(),
                "queue": {"depth": self.queue.depth(),
                          "capacity": self.queue.capacity,
                          "mean_service_s": self.queue.mean_service_s},
                "tenants": self.tenants.snapshot(),
                "workers": self.fleet.snapshot(),
                "shm": {"segments": len(self.shm.names()),
                        "bytes": self.shm.total_bytes()},
                "inputs": self.inputs.snapshot(),
                "stats": self.stats.snapshot(),
                "restarts_total": self.fleet.restarts_total}

    # -- HTTP front door -------------------------------------------------

    def _start_http(self) -> None:
        server = self

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, *_args):  # noqa: D102 - quiet server
                pass

            def _send(self, status: int, content_type: str,
                      body: bytes, headers: dict | None = None) -> None:
                self.send_response(status)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(body)))
                for key, value in (headers or {}).items():
                    self.send_header(key, value)
                self.end_headers()
                self.wfile.write(body)

            def _send_json(self, status: int, payload: dict,
                           headers: dict | None = None) -> None:
                self._send(status, "application/json",
                           json.dumps(payload).encode(), headers)

            def _read_body(self) -> dict:
                length = int(self.headers.get("Content-Length") or 0)
                raw = self.rfile.read(length) if length else b"{}"
                try:
                    doc = json.loads(raw.decode("utf-8") or "{}")
                except (ValueError, UnicodeDecodeError) as error:
                    raise OmpError(f"invalid JSON body: {error}") \
                        from error
                if not isinstance(doc, dict):
                    raise OmpError("request body must be a JSON object")
                return doc

            def do_GET(self):  # noqa: N802 - http.server API
                try:
                    path = self.path.split("?")[0]
                    if path == "/metrics":
                        self._send(200,
                                   "text/plain; version=0.0.4; "
                                   "charset=utf-8",
                                   server.metrics_text().encode())
                    elif path == "/state":
                        self._send_json(200, server.state_payload())
                    elif path == "/v1/apps":
                        self._send_json(
                            200, {"apps": server.known_apps(),
                                  "modes": ["pure", "hybrid"],
                                  "tenants": server.tenants.names()})
                    elif path == "/healthz":
                        self._send_json(200, {"ok": True})
                    else:
                        self._send(404, "text/plain", b"not found\n")
                except BrokenPipeError:  # pragma: no cover
                    pass
                except Exception as error:  # noqa: BLE001 - keep serving
                    self._send_json(500, {"error": str(error)})

            def do_POST(self):  # noqa: N802 - http.server API
                try:
                    path = self.path.split("?")[0]
                    if path == "/v1/run":
                        self._run()
                    elif path == "/v1/tenants":
                        self._register_tenant()
                    else:
                        self._send(404, "text/plain", b"not found\n")
                except BrokenPipeError:  # pragma: no cover
                    pass
                except Exception as error:  # noqa: BLE001 - keep serving
                    self._send_json(500, {"error": str(error)})

            def _run(self) -> None:
                try:
                    doc = self._read_body()
                    response = server.submit(doc)
                except OmpError as error:
                    with server.stats.lock:
                        server.stats.rejected += 1
                    self._send_json(400, {"error": str(error)})
                    return
                except QueueFull as shed:
                    self._send_json(
                        503,
                        {"error": str(shed), "shed": True,
                         "retry_after_s": shed.retry_after},
                        headers={"Retry-After":
                                 str(max(1, round(shed.retry_after)))})
                    return
                status = 200 if response.get("ok") else 500
                if response.get("timeout"):
                    status = 504
                self._send_json(status, response)

            def _register_tenant(self) -> None:
                try:
                    doc = self._read_body()
                    name = doc.get("name")
                    budget = doc.get("max_threads", 1)
                    if not isinstance(name, str):
                        raise OmpError("tenant name must be a string")
                    if not isinstance(budget, int):
                        raise OmpError("max_threads must be an integer")
                    tenant = server.tenants.register(name, budget)
                except DuplicateTenantError as error:
                    self._send_json(409, {"error": str(error)})
                    return
                except OmpError as error:
                    self._send_json(400, {"error": str(error)})
                    return
                self._send_json(201, {"ok": True, "name": tenant.name,
                                      "max_threads": tenant.max_threads,
                                      "places": tenant.places_spec})

        self._httpd = ThreadingHTTPServer(self._requested, Handler)
        self._httpd.daemon_threads = True
        self._http_thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="omp4py-serve-http", daemon=True)
        self._http_thread.start()
