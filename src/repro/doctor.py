"""``python -m repro.doctor`` — hang diagnosis from the command line.

Three subcommands (see docs/observability.md, "Diagnosing hangs"):

* ``run SCRIPT [ARGS...]`` — execute a user script with the flight
  recorder and stall watchdog armed on both runtimes.  A *deadlock*
  verdict prints the wait-for-graph report and terminates the process
  with exit code :data:`~repro.diagnostics.watchdog.DEADLOCK_EXIT_CODE`
  (86), so CI can wrap hanging reproducers in a plain timeout; pass
  ``--no-exit`` to keep the process alive instead.  A SIGUSR1 handler
  is installed, so ``doctor dump PID`` works on the live process.
* ``env`` — print the runtime ICVs (the same snapshot
  ``omp_display_env`` and the watchdog reports use), optionally as
  JSON.
* ``dump PID`` — ask an armed process to print its flight-recorder
  tails and current wait-for diagnosis to stderr (sends SIGUSR1).
* ``serve [URL]`` — fetch a serving layer's ``/state`` endpoint
  (:mod:`repro.serve`) and pretty-print the fleet: per-worker backend
  and hot-team pool, queue depth, tenant budgets, and — because every
  worker runs with the watchdog armed — the structured doctor report
  of any worker that was killed over a hung kernel.
"""

from __future__ import annotations

import argparse
import json
import os
import runpy
import signal
import sys

from repro.diagnostics.watchdog import DEADLOCK_EXIT_CODE, DEFAULT_INTERVAL


def _runtimes(choice: str) -> list:
    runtimes = []
    if choice in ("pure", "both"):
        from repro.runtime import pure_runtime
        runtimes.append(pure_runtime)
    if choice in ("cruntime", "both"):
        from repro.cruntime import cruntime
        runtimes.append(cruntime)
    return runtimes


def _cmd_run(args) -> int:
    from repro.arming import arm, disarm, install_signal_dump
    runtimes = _runtimes(args.runtime)
    watchdogs = [
        arm(runtime,
            flight=args.flight != 0,
            flight_capacity=args.flight,
            watchdog_interval=args.watchdog,
            report_path=args.report,
            exit_on_deadlock=not args.no_exit).watchdog
        for runtime in runtimes]
    install_signal_dump()
    # The script sees itself as __main__ with its own argv, like
    # ``python SCRIPT ARGS...``.
    sys.argv = [args.script] + args.script_args
    script_dir = os.path.dirname(os.path.abspath(args.script))
    if script_dir not in sys.path:
        sys.path.insert(0, script_dir)
    try:
        runpy.run_path(args.script, run_name="__main__")
    finally:
        for runtime in runtimes:
            disarm(runtime)
    deadlocked = any(
        report["verdict"] == "deadlock"
        for watchdog in watchdogs for report in watchdog.reports)
    return DEADLOCK_EXIT_CODE if deadlocked else 0


def _cmd_env(args) -> int:
    from repro.diagnostics.envreport import format_display_env, icv_snapshot
    for runtime in _runtimes(args.runtime):
        snapshot = icv_snapshot(runtime, verbose=args.verbose)
        if args.json:
            print(json.dumps({"runtime": runtime.name, "icvs": snapshot},
                             indent=2))
        else:
            print(format_display_env(snapshot, runtime_name=runtime.name))
    return 0


def _cmd_dump(args) -> int:
    if not hasattr(signal, "SIGUSR1"):  # pragma: no cover - windows
        print("doctor dump needs SIGUSR1 (POSIX only)", file=sys.stderr)
        return 2
    try:
        os.kill(args.pid, signal.SIGUSR1)
    except (ProcessLookupError, PermissionError) as error:
        print(f"cannot signal pid {args.pid}: {error}", file=sys.stderr)
        return 1
    print(f"sent SIGUSR1 to {args.pid}; the dump appears on *its* stderr")
    return 0


def _format_serve_state(state: dict) -> str:
    lines = []
    queue = state.get("queue", {})
    stats = state.get("stats", {})
    lines.append(f"serving state ({state.get('schema')})")
    lines.append(
        f"  queue: {queue.get('depth')}/{queue.get('capacity')} waiting, "
        f"mean service {queue.get('mean_service_s')}s")
    lines.append(
        f"  stats: accepted={stats.get('accepted')} "
        f"completed={stats.get('completed')} failed={stats.get('failed')} "
        f"shed={stats.get('shed')} retries={stats.get('retries')} "
        f"p99={stats.get('p99_s')}s")
    shm = state.get("shm", {})
    inputs = state.get("inputs", {})
    lines.append(f"  shm: {shm.get('segments')} segments, "
                 f"{shm.get('bytes')} bytes; inputs: "
                 f"{inputs.get('entries')}/{inputs.get('capacity')} sets, "
                 f"{inputs.get('pinned')} pinned, "
                 f"{inputs.get('evictions')} evicted")
    lines.append("  tenants:")
    for tenant in state.get("tenants", []):
        lines.append(
            f"    {tenant['name']}: budget={tenant['max_threads']} "
            f"inflight={tenant['inflight_threads']} "
            f"throttles={tenant['throttles']} "
            f"places={tenant['places'] or '(unbound)'}")
    lines.append(f"  workers (restarts_total="
                 f"{state.get('restarts_total')}):")
    for worker in state.get("workers", []):
        pools = " ".join(
            f"{name}[workers={pool.get('workers')} "
            f"idle={pool.get('idle')} reused={pool.get('reused')}]"
            for name, pool in (worker.get("pools") or {}).items())
        job = worker.get("job")
        busy = (f" running {job['app']} x{job['batch']} "
                f"for {job['running_s']}s" if job else "")
        lines.append(
            f"    #{worker['id']} pid={worker['pid']} "
            f"{worker['state']}{busy} backend={worker.get('backend')} "
            f"pools: {pools or None} "
            f"restarts={worker['restarts']} "
            f"stillbirths={worker.get('stillbirths')} "
            f"last_app={worker.get('last_app')}")
        report = worker.get("last_report")
        if report:
            lines.append(
                f"      last doctor report: verdict="
                f"{report.get('verdict')} "
                f"({len(report.get('blocked', []))} blocked threads)")
            for cycle in report.get("cycles", [])[:1]:
                for step in cycle:
                    describe = step.get("describe", "")
                    lines.append(f"        {describe}")
    return "\n".join(lines)


def _cmd_serve(args) -> int:
    import urllib.error
    import urllib.request
    url = args.url.rstrip("/")
    if "://" not in url:
        url = "http://" + url
    try:
        with urllib.request.urlopen(url + "/state",
                                    timeout=args.timeout) as handle:
            state = json.loads(handle.read().decode("utf-8"))
    except (urllib.error.URLError, OSError, ValueError) as error:
        print(f"cannot fetch {url}/state: {error}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(state, indent=2))
    else:
        print(_format_serve_state(state))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.doctor",
        description="Diagnose hangs in omp4py programs: flight recorder, "
                    "stall watchdog, wait-for-graph deadlock detection.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a script under the watchdog")
    run.add_argument("script", help="path to the Python script to run")
    run.add_argument("script_args", nargs=argparse.REMAINDER,
                     help="arguments passed to the script")
    run.add_argument("--watchdog", type=float, default=DEFAULT_INTERVAL,
                     metavar="SECONDS",
                     help="stall interval before a diagnosis fires "
                          f"(default {DEFAULT_INTERVAL})")
    run.add_argument("--flight", type=int, default=None, metavar="N",
                     help="flight recorder ring capacity per thread "
                          "(0 disables the recorder)")
    run.add_argument("--report", default=None, metavar="PATH",
                     help="write the JSON diagnosis report here")
    run.add_argument("--no-exit", action="store_true",
                     help="report deadlocks but do not terminate "
                          f"(default: exit {DEADLOCK_EXIT_CODE})")
    run.add_argument("--runtime", choices=("pure", "cruntime", "both"),
                     default="both", help="which runtime(s) to arm")
    run.set_defaults(func=_cmd_run)

    env_cmd = sub.add_parser("env", help="print the runtime ICVs")
    env_cmd.add_argument("--verbose", action="store_true",
                         help="include OMP4PY_* metadata")
    env_cmd.add_argument("--json", action="store_true",
                         help="emit JSON instead of the display-env block")
    env_cmd.add_argument("--runtime",
                         choices=("pure", "cruntime", "both"),
                         default="cruntime",
                         help="which runtime(s) to report")
    env_cmd.set_defaults(func=_cmd_env)

    dump = sub.add_parser("dump",
                          help="SIGUSR1 an armed process to make it dump")
    dump.add_argument("pid", type=int, help="target process id")
    dump.set_defaults(func=_cmd_dump)

    serve = sub.add_parser(
        "serve", help="inspect a running repro.serve fleet")
    serve.add_argument("url", nargs="?",
                       default="http://127.0.0.1:8571",
                       help="server base URL (default "
                            "http://127.0.0.1:8571)")
    serve.add_argument("--json", action="store_true",
                       help="dump the raw /state payload")
    serve.add_argument("--timeout", type=float, default=5.0,
                       help="HTTP timeout in seconds")
    serve.set_defaults(func=_cmd_serve)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
