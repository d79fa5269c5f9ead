"""The repository's benchmark: one workload, every metric, verified.

    python3 benchmarks/e2e/run.py --workload numeric --seed 7 \
        [--seconds 22] [--trace 1] [--quick]

Prints every metric by name with its unit, then an ``annotations``
line (interpreter, backend, nproc, host steal share — context, not
metrics), then as the last line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Exits non-zero — without a result line — when a kernel
result fails verification, and non-zero when any served request fails.

The program under test is driven through its public entry points only
(``repro.apps.get_app``, ``repro.decorator.transform``,
``repro.analysis.timing.measure``, ``python -m repro.serve`` over
HTTP).  README.md in this directory defines every metric and says
which layer should move which end-to-end number on which workload.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import resource
import signal
import sys
import time

BEGIN = time.perf_counter()
HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"


def clean_environment(src: str) -> dict:
    """The environment the measured program sees: no ambient ``OMP_*``
    or ``OMP4PY_*`` knob (a stray ``OMP4PY_TRACE`` would arm the
    program's tracer), a fixed hash seed, temporary files kept inside
    the checkout."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith(("OMP_", "OMP4PY_"))}
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = src
    env["TMPDIR"] = str(OUT)
    return env


def reexec_if_needed(src: str) -> None:
    env = clean_environment(src)
    if env != dict(os.environ):
        OUT.mkdir(exist_ok=True)
        os.execve(sys.executable, [sys.executable, *sys.argv], env)


def cpu_ticks() -> tuple[int, int]:
    """(steal, total) jiffies of the host so far, from ``/proc/stat``."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = [int(field) for field in
                      handle.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields[:8])


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=22.0,
                        help="measuring time the run aims for")
    parser.add_argument("--trace", type=int, nargs="?", const=1,
                        default=0, choices=(0, 1))
    parser.add_argument("--src", default=str(ROOT / "src"),
                        help="source tree of the program under test "
                             "(compare.py points it at a parent "
                             "checkout)")
    parser.add_argument("--quick", action="store_true",
                        help="self-test sizes: same metric names, "
                             "meaningless values, a few seconds")
    return parser.parse_args(argv)


def _interrupt(signum, frame):
    raise KeyboardInterrupt


def main(argv=None) -> int:
    args = parse_args(argv)
    reexec_if_needed(args.src)
    sys.path[0:1] = [str(HERE.parent), args.src]
    from e2e import serving
    serving.adopt_orphans()
    signal.signal(signal.SIGTERM, _interrupt)
    try:
        return measure(args)
    finally:
        # Whatever way out: no process this run started outlives it
        # (the server is stopped by the harness; this catches the rest,
        # such as the resource tracker of the ledger's own shm segments).
        serving.reap()


def measure(args) -> int:
    try:
        import repro  # noqa: F401 - the program under test
    except ImportError as error:
        print(f"[e2e] cannot import the program under test from "
              f"{args.src}: {error}", file=sys.stderr)
        return 2
    from e2e import harness
    from e2e.modes import Unverified
    from e2e.workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"[e2e] unknown workload {args.workload!r}; available: "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    # The firstcall server keeps one shm mapping per distinct input.
    _soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    resource.setrlimit(resource.RLIMIT_NOFILE, (hard, hard))
    OUT.mkdir(exist_ok=True)
    steal0, total0 = cpu_ticks()
    try:
        outcome = harness.run(
            WORKLOADS[args.workload], seed=args.seed,
            seconds=args.seconds, traced=bool(args.trace),
            quick=args.quick, env=clean_environment(args.src), out=OUT)
    except Unverified as error:
        print(f"[e2e] unverified result, nothing reported: {error}",
              file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        # harness.run has already stopped and reaped the server.
        print("[e2e] interrupted, nothing reported", file=sys.stderr)
        return 130
    steal1, total1 = cpu_ticks()
    from repro.runtime.gilstate import current_backend
    annotations = {
        "workload": args.workload, "seed": args.seed,
        "interpreter": f"{platform.python_implementation()} "
                       f"{platform.python_version()}",
        "backend": current_backend().value,
        "nproc": os.cpu_count(),
        "steal_share": round((steal1 - steal0)
                             / max(1, total1 - total0), 4),
        "rounds": outcome.rounds, "windows": outcome.windows,
        "elapsed_s": round(time.perf_counter() - BEGIN, 2)}
    # The contract file says which metrics an untraced run reports
    # (end to end) and which a traced one does (per layer).
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        declared = json.load(handle)[
            "per_layer" if args.trace else "end_to_end"]
    metrics = {entry["name"]: outcome.metrics[entry["name"]]
               for entry in declared}
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:14.6g} {unit}")
    print("annotations " + json.dumps(annotations))
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0 if outcome.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
