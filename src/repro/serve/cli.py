"""Command-line entry point: ``python -m repro.serve``.

Starts the serving layer in the foreground and runs until SIGINT or
SIGTERM, then shuts the fleet down gracefully (workers drain their
current job, shared segments are unlinked).  Defaults come from the
``OMP4PY_SERVE_PORT`` / ``OMP4PY_SERVE_WORKERS`` /
``OMP4PY_SERVE_QUEUE`` environment knobs (:mod:`repro.env`).

``--port-file`` writes the bound port to a file once listening — the
integration tests and the CI smoke job use it with ``--port 0`` to
avoid port races.  ``fleet ready`` is the first line on stdout, written
once the port file exists and a worker is idle; ``serving on …``
follows it.  If no worker becomes ready — every slot given up after
repeated deaths before ``ready``, or the ready timeout — the command
exits 1 without printing it.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys

from repro import env
from repro.errors import OmpError


def _parse_tenants(spec: str) -> dict[str, int]:
    """Parse ``name:threads,name:threads`` into a budget map."""
    budgets: dict[str, int] = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        name, sep, budget = part.partition(":")
        if not sep:
            raise OmpError(
                f"tenant spec {part!r} must look like name:threads")
        try:
            budgets[name.strip()] = int(budget)
        except ValueError:
            raise OmpError(
                f"tenant budget in {part!r} must be an integer"
            ) from None
    if not budgets:
        raise OmpError("at least one tenant is required")
    return budgets


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Serve the repository's parallel kernels over "
                    "HTTP with a shared-memory data plane.")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=None,
                        help="TCP port (default: OMP4PY_SERVE_PORT or "
                             f"{env.DEFAULT_SERVE_PORT}; 0 = ephemeral)")
    parser.add_argument("--workers", type=int, default=None,
                        help="worker processes (default: "
                             "OMP4PY_SERVE_WORKERS or min(4, cpus))")
    parser.add_argument("--queue", type=int, default=None,
                        help="admission queue capacity (default: "
                             "OMP4PY_SERVE_QUEUE or 16; 0 = hand-off "
                             "only)")
    parser.add_argument("--batch", type=int, default=4,
                        help="max requests coalesced per job")
    parser.add_argument("--tenants", default="default:4",
                        help="budget map, e.g. team-a:4,team-b:2")
    parser.add_argument("--timeout", type=float, default=120.0,
                        help="per-job deadline in seconds")
    parser.add_argument("--retries", type=int, default=2,
                        help="max requeues after a worker crash")
    parser.add_argument("--debug-apps", action="store_true",
                        help="expose the _spin hang-test app")
    parser.add_argument("--port-file", default=None,
                        help="write the bound port to this file once "
                             "listening")
    return parser


def _await_signal_on() -> int:
    """Route SIGINT/SIGTERM to a pipe and return its read end; a
    blocking ``os.read`` on it is the wait.

    The handler must not take a lock: it runs on the main thread, in
    the middle of whatever that thread is doing, and an ``Event.set``
    there deadlocks against the ``Event.wait`` it interrupts when the
    signal lands while ``wait`` holds the event's lock.  The
    interpreter's wakeup fd needs none — the C-level handler writes
    the signal number to it — and the Python-level handler only has
    to exist so that the default action does not end the process.
    """
    read_end, write_end = os.pipe()
    os.set_blocking(write_end, False)
    signal.set_wakeup_fd(write_end, warn_on_full_buffer=False)
    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, lambda *_: None)
    return read_end


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        tenants = _parse_tenants(args.tenants)
        port = args.port if args.port is not None else env.serve_port()
        workers = args.workers if args.workers is not None \
            else env.serve_workers()
        queue = args.queue if args.queue is not None \
            else env.serve_queue()
    except OmpError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    from repro.serve.server import ServeServer
    server = ServeServer(workers=workers, queue_capacity=queue,
                         max_batch=args.batch, tenants=tenants,
                         host=args.host, port=port,
                         job_timeout=args.timeout,
                         max_retries=args.retries,
                         debug_apps=args.debug_apps)
    # The server has forked its nursery by now: neither the handlers
    # nor the wakeup fd below are inherited by the fleet.
    stop = _await_signal_on()
    try:
        server.start(wait_ready=False)
        if args.port_file:
            with open(args.port_file, "w", encoding="utf-8") as handle:
                handle.write(str(server.port))
        if not server.fleet.wait_ready():
            print("error: no worker became ready", file=sys.stderr)
            return 1
        # First, and alone in its write: a reader that waits for this
        # line with select() and one readline() must not find it
        # buffered behind another.
        print("fleet ready", flush=True)
        print(f"serving on {server.url} "
              f"({workers} workers, queue={queue}, "
              f"tenants={','.join(sorted(tenants))})", flush=True)
        os.read(stop, 1)
    finally:
        print("shutting down", flush=True)
        server.stop()
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
