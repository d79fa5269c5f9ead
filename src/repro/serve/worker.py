"""Worker-process entry point: the fleet's kernel execution engine.

Each worker is a process forked by the fleet's nursery
(:mod:`repro.serve.fleet`), holding both OMP4Py runtimes warm.  This
module imports at the top everything a worker needs up to and including
its first kernel out of the ``@omp`` code cache, so that the fork hands
it over loaded; nothing here transforms or arms anything at import.
The transformer is not part of that: a worker imports it for itself if
and when a request misses the cache.  At startup a worker
attaches its response slab, arms the stall watchdog on both runtimes
(a hung kernel writes a structured ``omp4py-doctor-report/1`` to the
worker's report file instead of stalling silently — the supervisor
collects it after the kill), forks one empty region per runtime so
both hot-team pools are populated *before* the first request, and only
then reports ready.  Kernels compile on demand: the first request for
an (app, mode) pair builds that variant (:func:`repro.decorator.transform`:
a cache read, or a transformation whose result every later worker
reads), later ones reuse it.

Per job it: applies the tenant's CPU partition through
``OmpRuntime.set_affinity``, materializes inputs — shared-memory
views (zero-copy for read-only fields, private copies otherwise),
JSON scalars, and locally rebuilt fields — and runs each request of
the batch through the kernel, returning digests, wall/CPU timings,
and optionally the flattened result values via the response slab.
``busy_cpu_s`` is measured with :func:`time.process_time`, so the
capacity accounting in ``benchmarks/bench_serving.py`` stays honest
on hosts with fewer cores than workers.
"""

from __future__ import annotations

import os
import time
import traceback

import numpy as np

# Loaded for the fork, not for a name: what arming the watchdog, the
# first region and the first cached kernel would otherwise import in
# every worker.
import repro.apps  # noqa: F401
import repro.diagnostics.watchdog  # noqa: F401
import repro.runtime.pool  # noqa: F401
from repro.arming import arm
from repro.cruntime import cruntime
from repro.runtime import pure_runtime
from repro.serve.catalog import build_inputs, execute
from repro.serve.protocol import overrides_key, result_digest
from repro.serve.shm import ArrayHandle, AttachedArrays

RUNTIMES = (pure_runtime, cruntime)


def _drop_observability_env() -> None:
    # The server's environment is the worker's: left in place, these
    # would arm a tracer, a sampler or a second metrics endpoint on
    # the worker's first transform.
    for noisy in ("OMP4PY_METRICS_PORT", "OMP4PY_TRACE",
                  "OMP4PY_PROFILE", "OMP4PY_WATCHDOG",
                  "OMP4PY_FLIGHT"):
        os.environ.pop(noisy, None)


def _warm(config: dict) -> None:
    """Populate both hot-team pools.

    One empty region per runtime at the largest tenant budget: served
    requests default to Hybrid, whose runtime owns a pool of its own,
    so both must hold parked workers when the first request lands
    (respawned workers come back warm the same way).
    """
    warm_threads = max(1, int(config.get("warm_threads", 2)))
    for runtime in RUNTIMES:
        runtime.parallel_run(lambda: None, num_threads=warm_threads)


class _JobRunner:
    """Per-process execution state: attachments, caches, slab."""

    def __init__(self, config: dict):
        self.attached = AttachedArrays()
        self.slab = None
        self.slab_floats = 0
        slab_doc = config.get("slab")
        if slab_doc:
            handle = ArrayHandle.from_wire(slab_doc)
            self.slab = self.attached.get(handle)
            self.slab_floats = int(handle.shape[0])
        #: (app, profile, overrides_key) -> locally rebuilt inputs.
        self.rebuilt: dict[tuple, dict] = {}
        self.last_app: str | None = None

    def _rebuild_fields(self, job: dict, fields: list) -> dict:
        key = (job["app"], job["profile"],
               overrides_key(job.get("overrides") or {}))
        inputs = self.rebuilt.get(key)
        if inputs is None:
            inputs = build_inputs(job["app"], job["profile"],
                                  job.get("overrides") or {})
            if len(self.rebuilt) >= 8:
                self.rebuilt.pop(next(iter(self.rebuilt)))
            self.rebuilt[key] = inputs
        return {field: inputs[field] for field in fields}

    def _materialize(self, job: dict) -> dict:
        """Kernel kwargs for one request (fresh copies per call)."""
        kwargs = dict(job.get("scalars") or {})
        for field, doc in (job.get("arrays") or {}).items():
            kwargs[field] = self.attached.materialize(
                ArrayHandle.from_wire(doc))
        rebuild = job.get("rebuild") or []
        if rebuild:
            kwargs.update(self._rebuild_fields(job, rebuild))
        return kwargs

    def _store_values(self, result) -> dict | None:
        """Flatten a numeric result into the response slab."""
        if self.slab is None:
            return None
        try:
            flat = np.asarray(result, dtype=np.float64).ravel()
        except (ValueError, TypeError):
            return None
        if flat.size > self.slab_floats:
            return None
        self.slab[:flat.size] = flat
        shape = getattr(np.asarray(result), "shape", (flat.size,))
        return {"n": int(flat.size), "shape": list(shape)}

    def run(self, job: dict) -> dict:
        places = job.get("places")
        proc_bind = job.get("proc_bind", "close")
        for runtime in RUNTIMES:
            runtime.set_affinity(places, proc_bind)
        self.last_app = job["app"]
        results = []
        for request in job["requests"]:
            record = {"id": request["id"], "ok": False,
                      "digest": None, "error": None, "slab": None,
                      "wall_s": None, "busy_cpu_s": None}
            try:
                kwargs = self._materialize(job)
                begin_wall = time.perf_counter()
                begin_cpu = time.process_time()
                result = execute(job["app"], job["mode"],
                                 job["threads"], job.get("nodes", 1),
                                 kwargs)
                record["busy_cpu_s"] = time.process_time() - begin_cpu
                record["wall_s"] = time.perf_counter() - begin_wall
                record["digest"] = result_digest(result)
                if request.get("return_values"):
                    record["slab"] = self._store_values(result)
                record["ok"] = True
            except Exception as error:  # noqa: BLE001 - reported
                tail = traceback.format_exc(limit=4)
                record["error"] = (f"{type(error).__name__}: {error}\n"
                                   f"{tail}")[-2000:]
            results.append(record)
        return {"op": "result", "job_id": job["job_id"],
                "worker_id": job.get("worker_id"),
                "pid": os.getpid(), "results": results}


def _state_payload(runner: _JobRunner) -> dict:
    return {"pid": os.getpid(),
            "backend": pure_runtime.backend.value,
            "pools": {runtime.name: runtime.pool().snapshot()
                      for runtime in RUNTIMES},
            "last_app": runner.last_app}


def worker_entry(conn, config: dict) -> None:
    """Process body: serve jobs from ``conn`` until shutdown or EOF."""
    _drop_observability_env()
    interval = config.get("watchdog_interval")
    if interval:
        for runtime in RUNTIMES:
            arm(runtime, watchdog_interval=float(interval),
                report_path=config.get("report_path"))
    runner = _JobRunner(config)
    try:
        _warm(config)
    except Exception:  # noqa: BLE001 - a cold worker still serves
        pass
    try:
        conn.send({"op": "ready", "worker_id": config.get("worker_id"),
                   **_state_payload(runner)})
    except (BrokenPipeError, OSError):
        # The supervisor is gone (shutdown raced the fork): exit
        # quietly instead of tracebacking into the server's stderr.
        runner.attached.close_all()
        return
    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break
            op = message.get("op") if isinstance(message, dict) else None
            if op == "job":
                message["worker_id"] = config.get("worker_id")
                reply = runner.run(message)
                reply["state"] = _state_payload(runner)
                conn.send(reply)
            elif op == "ping":
                conn.send({"op": "pong",
                           "worker_id": config.get("worker_id"),
                           **_state_payload(runner)})
            elif op == "shutdown":
                break  # the fleet reads the exit as EOF on the pipe
    except (BrokenPipeError, OSError):
        pass
    finally:
        runner.attached.close_all()
