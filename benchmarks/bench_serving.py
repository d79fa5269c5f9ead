"""Sustained-throughput benchmark for the serving layer (repro.serve).

Drives a mixed qsort+jacobi load through the HTTP front door of an
in-process :class:`~repro.serve.server.ServeServer` and reports
throughput, latency percentiles, and the worker-scaling figure the CI
``serve-smoke`` job gates on.

Scaling accounting: this host may have fewer cores than workers, so a
raw wall-clock ratio between a 1-worker and a 4-worker run measures
the machine, not the architecture (the same reasoning as the repo's
GIL projection model).  The fleet phase therefore reports

* ``measured_rps`` — completed requests per second of wall time, and
* ``capacity_rps = workers / mean(busy_cpu_s)`` — what the fleet
  sustains when every worker's CPU second counts, with per-request
  kernel CPU time measured worker-side via ``time.process_time``
  (immune to time-sharing between oversubscribed workers),

and ``scale = capacity_rps(fleet) / measured_rps(1 worker, 1 client)``.
The baseline denominator includes the full per-request overhead
(HTTP, dispatch, digest verification), so the gate still fails if the
serving layer's overhead — not kernel time — dominates.

Usage::

    python benchmarks/bench_serving.py [--workers 4] [--clients 8]
        [--requests 80] [--check] [--min-scale 4.0] [--max-p99 2.0]
        [--chaos] [--out results]

``--chaos`` kills one worker process mid-run and asserts every
accepted request still completes and no shared-memory segment leaks.
``smoke_failures()`` is the ``reproduce.py --smoke`` entry point.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import threading
import time
import urllib.error
import urllib.request

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent
                       / "src"))

#: The mixed tenant load: alternating non-numerical and numerical
#: kernels, sized so one request costs milliseconds, not seconds.
MIX = (
    ("qsort", {"n": 1500}),
    ("jacobi", {"n": 24, "iterations": 30}),
)


def _post(url: str, doc: dict, timeout: float = 120.0) -> dict:
    body = json.dumps(doc).encode()
    request = urllib.request.Request(
        url + "/v1/run", data=body,
        headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(request, timeout=timeout) as handle:
            return json.loads(handle.read().decode())
    except urllib.error.HTTPError as error:
        return json.loads(error.read().decode())


def _run_phase(server, *, clients: int, requests: int,
               chaos: bool = False) -> dict:
    """Closed-loop client threads against the server's front door."""
    url = server.url
    counter = {"next": 0}
    lock = threading.Lock()
    responses: list[dict] = []
    kill_at = requests // 4 if chaos else None
    killed = {"done": False}

    def loop():
        while True:
            with lock:
                index = counter["next"]
                if index >= requests:
                    return
                counter["next"] = index + 1
            app, overrides = MIX[index % len(MIX)]
            response = _post(url, {"app": app, "threads": 1,
                                   "overrides": overrides})
            with lock:
                responses.append(response)
                if kill_at is not None and not killed["done"] \
                        and len(responses) >= kill_at:
                    killed["done"] = True
                    pids = server.fleet.pids()
                    victim = next(iter(sorted(pids)))
                    server.fleet.kill_worker(victim)

    begin = time.perf_counter()
    threads = [threading.Thread(target=loop) for _ in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - begin
    ok = [r for r in responses if r.get("ok")]
    busy = [r["busy_cpu_s"] for r in ok if r.get("busy_cpu_s")]
    mean_busy = sum(busy) / len(busy) if busy else None
    return {"requests": len(responses), "ok": len(ok),
            "errors": len(responses) - len(ok),
            "elapsed_s": elapsed,
            "measured_rps": len(ok) / elapsed if elapsed else 0.0,
            "mean_busy_cpu_s": mean_busy,
            "killed_worker": bool(chaos and killed["done"])}


def _make_server(workers: int, queue: int):
    from repro.serve.server import ServeServer
    server = ServeServer(workers=workers, queue_capacity=queue,
                         max_batch=4,
                         tenants={"default": max(2, workers)},
                         job_timeout=60.0)
    server.start()
    return server


def run_bench(*, workers: int = 4, clients: int = 8,
              requests: int = 80, baseline_requests: int | None = None,
              chaos: bool = False) -> dict:
    """Run the baseline and fleet phases; return the result payload."""
    from repro.serve.shm import leaked_segments

    baseline_requests = baseline_requests or max(10, requests // 4)
    print(f"[serve-bench] baseline: 1 worker, 1 client, "
          f"{baseline_requests} requests", flush=True)
    server = _make_server(1, max(4, clients))
    try:
        baseline = _run_phase(server, clients=1,
                              requests=baseline_requests)
    finally:
        server.stop()
    if baseline["errors"]:
        raise RuntimeError(
            f"baseline phase had {baseline['errors']} errors")
    print(f"[serve-bench] baseline: "
          f"{baseline['measured_rps']:.1f} req/s", flush=True)

    print(f"[serve-bench] fleet: {workers} workers, {clients} clients, "
          f"{requests} requests" + (" (chaos)" if chaos else ""),
          flush=True)
    server = _make_server(workers, max(2 * clients, 16))
    try:
        fleet = _run_phase(server, clients=clients, requests=requests,
                           chaos=chaos)
        stats = server.stats.snapshot()
        restarts = server.fleet.restarts_total
    finally:
        server.stop()
    leaked = leaked_segments()

    capacity_rps = (workers / fleet["mean_busy_cpu_s"]
                    if fleet["mean_busy_cpu_s"] else 0.0)
    scale = (capacity_rps / baseline["measured_rps"]
             if baseline["measured_rps"] else 0.0)
    result = {"workers": workers, "clients": clients,
              "baseline": baseline, "fleet": fleet,
              "capacity_rps": capacity_rps, "scale": scale,
              "p99_s": stats.get("p99_s"), "p50_s": stats.get("p50_s"),
              "shed": stats.get("shed"),
              "retries": stats.get("retries"),
              "worker_restarts": restarts,
              "leaked_segments": leaked}
    print(f"[serve-bench] fleet: {fleet['measured_rps']:.1f} req/s "
          f"measured, {capacity_rps:.1f} req/s capacity "
          f"({workers} workers / {fleet['mean_busy_cpu_s']:.4f}s mean "
          f"kernel CPU), scale {scale:.1f}x vs baseline, "
          f"p99 {stats.get('p99_s'):.3f}s, shed {stats.get('shed')}, "
          f"retries {stats.get('retries')}, restarts {restarts}",
          flush=True)
    return result


def check_result(result: dict, *, min_scale: float,
                 max_p99: float) -> list[str]:
    """The CI gate: scaling, bounded p99, zero shed/errors/leaks."""
    failures = []
    if result["scale"] < min_scale:
        failures.append(
            f"serve: capacity scale {result['scale']:.2f}x below the "
            f"{min_scale:.1f}x gate")
    if result["p99_s"] is None or result["p99_s"] > max_p99:
        failures.append(
            f"serve: p99 {result['p99_s']}s above the {max_p99}s bound")
    if result["fleet"]["errors"]:
        failures.append(
            f"serve: {result['fleet']['errors']} failed requests")
    if result["shed"]:
        failures.append(
            f"serve: {result['shed']} requests shed at this low load")
    if result["leaked_segments"]:
        failures.append(
            f"serve: leaked segments {result['leaked_segments']}")
    if result["fleet"]["killed_worker"] and not result["worker_restarts"]:
        failures.append("serve: chaos kill produced no worker restart")
    return failures


def smoke_failures(workers: int = 2, clients: int = 4,
                   requests: int = 24) -> list[str]:
    """Entry point for ``reproduce.py --smoke``: a small fleet pass.

    The smoke gate is correctness plus a conservative scaling floor
    (half the worker count); the full 4x-at-4-workers gate runs in the
    dedicated CI ``serve-smoke`` job.
    """
    result = run_bench(workers=workers, clients=clients,
                       requests=requests, baseline_requests=10)
    return check_result(result, min_scale=workers / 2.0, max_p99=10.0)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--clients", type=int, default=8)
    parser.add_argument("--requests", type=int, default=80)
    parser.add_argument("--check", action="store_true",
                        help="exit 1 when a gate fails")
    parser.add_argument("--min-scale", type=float, default=4.0,
                        help="required capacity scale vs the 1-worker "
                             "baseline (default 4.0)")
    parser.add_argument("--max-p99", type=float, default=2.0,
                        help="p99 latency bound in seconds")
    parser.add_argument("--chaos", action="store_true",
                        help="kill one worker mid-run and require "
                             "zero lost requests and zero shm leaks")
    parser.add_argument("--out", default=None, metavar="DIR",
                        help="write BENCH_serving.json here")
    args = parser.parse_args(argv)

    result = run_bench(workers=args.workers, clients=args.clients,
                       requests=args.requests, chaos=args.chaos)
    failures = check_result(result, min_scale=args.min_scale,
                            max_p99=args.max_p99)
    if args.out:
        import platform

        from repro.runtime.gilstate import current_backend
        out_dir = pathlib.Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        payload_path = out_dir / "BENCH_serving.json"
        payload = {"python": platform.python_version(),
                   "platform": platform.platform(),
                   "backend": current_backend().value,
                   "serving": result}
        payload_path.write_text(json.dumps(payload, indent=2) + "\n",
                                encoding="utf-8")
        print(f"[serve-bench] wrote {payload_path}")
    for failure in failures:
        print(f"[serve-bench] FAIL: {failure}")
    if args.check and failures:
        return 1
    print("[serve-bench] " + ("FAILED" if failures else "OK"))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
