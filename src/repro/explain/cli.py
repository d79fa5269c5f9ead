"""``python -m repro.explain`` — why doesn't this app scale?

Runs a registered app (or an arbitrary ``@omp`` script) under the
tracer, reconstructs the causal DAG, computes the critical path, and
names the dominant bottleneck at a user source line.  With ``--sweep``
it also runs the kernel at several thread counts and fits Amdahl/USL
speedup models predicting the app's ceiling.

Usage::

    python -m repro.explain qsort --threads 4 --mode pure
    python -m repro.explain bfs --threads 4 --sweep 1,2,4 --json out.json
    python -m repro.explain examples/faults/lock_convoy.py
    python -m repro.explain --list
"""

from __future__ import annotations

import argparse
import contextlib
import json
import pathlib
import sys
import time

from repro.explain.bottlenecks import classify
from repro.explain.dag import build_dag, summarize
from repro.explain.model import fit_models

#: Acceptance band for --check: the reconstructed critical path must
#: bracket the measured wall within this relative tolerance.
CHECK_TOLERANCE = 0.15


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.explain",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("target", nargs="?",
                        help="registered app name (see --list) or a "
                             "path to a python script to trace")
    parser.add_argument("script_args", nargs="*",
                        help="arguments passed through to a script "
                             "target")
    parser.add_argument("--list", action="store_true",
                        help="list registered apps and exit")
    parser.add_argument("--mode", default="hybrid",
                        help="execution mode (pure/hybrid/compiled/"
                             "compileddt)")
    parser.add_argument("--threads", type=int, default=4)
    parser.add_argument("--profile", default="test",
                        choices=("test", "default", "paper"),
                        help="problem-size profile")
    parser.add_argument("--repeats", type=int, default=1)
    parser.add_argument("--sweep", default=None,
                        help="comma-separated thread counts for the "
                             "Amdahl/USL model fits (e.g. 1,2,4)")
    parser.add_argument("--json", default=None,
                        help="write the full report to this path")
    parser.add_argument("--trace-capacity", type=int, default=1_000_000,
                        help="tracer event-buffer bound")
    parser.add_argument("--sample", action="store_true",
                        help="arm the sampling profiler during the "
                             "run; feeds directive-attributed hot "
                             "frames into the findings")
    parser.add_argument("--sample-hz", type=float, default=None,
                        help="sampling rate for --sample "
                             "(default: OMP4PY_PROFILE_HZ or 200)")
    parser.add_argument("--check", action="store_true",
                        help="exit nonzero unless wall/threads <= "
                             "critical path <= wall (within "
                             f"{CHECK_TOLERANCE:.0%})")
    parser.add_argument("--strict", action="store_true",
                        help="exit nonzero when trace events were "
                             "dropped")
    return parser


def explain_app(app: str, mode, threads: int, profile: str,
                repeats: int = 1,
                trace_capacity: int = 1_000_000,
                sample_hz: float | None = None) -> dict:
    """Trace one registered app and build its explain report.

    ``sample_hz`` additionally arms the sampling profiler for the
    run, attaching directive-attributed hot frames to the findings.
    """
    from repro.analysis.runner import run_point
    from repro.apps import get_app
    from repro.arming import session
    from repro.decorator import runtime_for

    spec = get_app(app)
    runtime = runtime_for(mode)
    with session(runtime, trace_capacity=trace_capacity, trace=True,
                 sample_hz=sample_hz) as armed:
        measurement = run_point(spec, mode, threads, profile,
                                repeats).measurement
    events = runtime.tracer.events()
    samples = armed.sampler.report() if armed.sampler else None
    analysis = build_dag(events)
    findings = classify(analysis, nthreads=threads,
                        wall=measurement.wall,
                        measurement=measurement, events=events,
                        samples=samples)
    report = _report(analysis, findings, target=app, kind="app")
    if samples is not None:
        report["samples"] = {
            "hz": sample_hz,
            "total": samples["samples"],
            "by_state": samples["by_state"],
            "directives": samples["directives"],
            "hot_frames": samples["hot_frames"],
        }
    report["run"] = {
        "app": app, "mode": mode.value, "threads": threads,
        "profile": profile, "repeats": repeats,
        "backend": measurement.backend,
    }
    report["wall_s"] = measurement.wall
    report["projected_s"] = measurement.projected
    report["model_projected_s"] = measurement.model_projected
    return report


def explain_script(path: str, script_args: list[str],
                   trace_capacity: int = 1_000_000) -> dict:
    """Trace an arbitrary script (both runtimes armed) and build its
    explain report from whichever runtime recorded the region work."""
    import runpy

    from repro.arming import session
    from repro.cruntime import cruntime
    from repro.runtime import pure_runtime

    runtimes = [pure_runtime, cruntime]
    old_argv = sys.argv
    old_path = list(sys.path)
    script_dir = str(pathlib.Path(path).resolve().parent)
    begin = time.perf_counter()
    try:
        with contextlib.ExitStack() as stack:
            for runtime in runtimes:
                stack.enter_context(session(
                    runtime, trace_capacity=trace_capacity, trace=True))
            sys.argv = [path, *script_args]
            if script_dir not in sys.path:
                sys.path.insert(0, script_dir)
            runpy.run_path(path, run_name="__main__")
    finally:
        wall = time.perf_counter() - begin
        sys.argv = old_argv
        sys.path[:] = old_path
    events = max((runtime.tracer.events() for runtime in runtimes),
                 key=len)
    analysis = build_dag(events)
    threads = max((meta["size"] for meta in
                   analysis.regions.values()), default=1)
    findings = classify(analysis, nthreads=threads, wall=wall,
                        events=events)
    report = _report(analysis, findings, target=path, kind="script")
    report["run"] = {"script": path, "threads": threads,
                     "args": script_args}
    report["wall_s"] = wall
    return report


def _report(analysis, findings, *, target: str, kind: str) -> dict:
    report = {
        "schema": "omp4py-explain/1",
        "target": target,
        "kind": kind,
        "span_s": analysis.span_s,
        "critical_path_s": analysis.critical_path_s,
        "trace": {"events": analysis.events_count,
                  "dropped": analysis.dropped},
        "analysis": summarize(analysis),
        "bottlenecks": [finding.as_dict() for finding in findings],
        "dominant": findings[0].as_dict() if findings else None,
    }
    return report


def _print_report(report: dict, out=None) -> None:
    out = out if out is not None else sys.stdout
    wall = report.get("wall_s")
    critical = report["critical_path_s"]
    span = report["span_s"]
    print(f"[explain] {report['target']}: "
          + (f"wall {wall:.4f}s, " if wall is not None else "")
          + f"span {span:.4f}s, critical path {critical:.4f}s",
          file=out)
    breakdown = report["analysis"]["path_breakdown_s"]
    if breakdown:
        parts = ", ".join(f"{cat} {sec:.4f}s"
                          for cat, sec in breakdown.items())
        print(f"[explain] critical path composition: {parts}",
              file=out)
    dominant = report.get("dominant")
    if dominant is None:
        print("[explain] no significant bottleneck found "
              "(well balanced)", file=out)
    else:
        where = f" at {dominant['location']}" if dominant["location"] \
            else ""
        print(f"[explain] dominant bottleneck: "
              f"{dominant['category']}{where} — {dominant['message']}",
              file=out)
    for finding in report["bottlenecks"][1:4]:
        where = f" at {finding['location']}" if finding["location"] \
            else ""
        print(f"[explain]   also: {finding['category']}{where} "
              f"({finding['lost_s']:.4f}s lost)", file=out)
    model = report.get("model")
    if model and model.get("speedup_ceiling") is not None:
        ceiling = model["speedup_ceiling"]
        rendered = f"{ceiling:.2f}x" if ceiling != float("inf") \
            else "unbounded"
        print(f"[explain] fitted speedup ceiling: {rendered}",
              file=out)
    if report["trace"]["dropped"]:
        print(f"[explain] WARNING: trace truncated — "
              f"{report['trace']['dropped']} event(s) dropped; raise "
              f"--trace-capacity", file=out)


def _check(report: dict) -> list[str]:
    problems: list[str] = []
    wall = report.get("wall_s")
    critical = report["critical_path_s"]
    threads = report.get("run", {}).get("threads", 1) or 1
    if wall is None or wall <= 0:
        return ["no wall-time measurement to check against"]
    if critical > wall * (1 + CHECK_TOLERANCE):
        problems.append(
            f"critical path {critical:.4f}s exceeds wall "
            f"{wall:.4f}s by more than {CHECK_TOLERANCE:.0%}")
    if critical < wall / threads / (1 + CHECK_TOLERANCE):
        problems.append(
            f"critical path {critical:.4f}s below wall/threads "
            f"({wall:.4f}s/{threads}) by more than "
            f"{CHECK_TOLERANCE:.0%}")
    if abs(critical - wall) / wall > CHECK_TOLERANCE:
        problems.append(
            f"critical path {critical:.4f}s deviates from wall "
            f"{wall:.4f}s by "
            f"{abs(critical - wall) / wall:.0%} (> "
            f"{CHECK_TOLERANCE:.0%})")
    return problems


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.list:
        from repro.apps import list_apps
        print("\n".join(list_apps()))
        return 0
    if not args.target:
        build_parser().error("target required (app name or script "
                             "path, or --list)")

    is_script = args.target.endswith(".py") \
        or pathlib.Path(args.target).exists()
    if is_script:
        report = explain_script(args.target, args.script_args,
                                trace_capacity=args.trace_capacity)
    else:
        from repro.modes import Mode
        mode = Mode.parse(args.mode)
        sample_hz = None
        if args.sample or args.sample_hz is not None:
            from repro import env
            sample_hz = args.sample_hz or env.profile_hz()
        report = explain_app(args.target, mode, args.threads,
                             args.profile, repeats=args.repeats,
                             trace_capacity=args.trace_capacity,
                             sample_hz=sample_hz)
        if args.sweep:
            counts = sorted({int(part) for part in
                             args.sweep.split(",") if part.strip()})
            report["model"] = _sweep_models(
                args.target, mode, counts, args.profile, args.repeats)

    _print_report(report)
    if args.json:
        path = pathlib.Path(args.json)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(report, indent=2, default=str),
                        encoding="utf-8")
        print(f"[explain] report written to {path}")
    status = 0
    if args.strict and report["trace"]["dropped"]:
        print(f"[explain] STRICT: {report['trace']['dropped']} "
              f"dropped event(s)", file=sys.stderr)
        status = 1
    if args.check:
        problems = _check(report)
        for problem in problems:
            print(f"[explain] CHECK FAILED: {problem}",
                  file=sys.stderr)
        if problems:
            status = 1
        else:
            print("[explain] check OK: wall/threads <= critical path "
                  "<= wall (within tolerance)")
    return status


def _sweep_models(app: str, mode, counts, profile: str,
                  repeats: int) -> dict | None:
    """Untraced timed runs at each thread count, fitted to the
    speedup models (projection-aware via Measurement.projected)."""
    from repro.analysis.runner import run_point
    from repro.apps import get_app

    spec = get_app(app)
    return fit_models([
        (threads, run_point(spec, mode, threads, profile,
                            repeats).measurement.projected)
        for threads in counts])


if __name__ == "__main__":
    sys.exit(main())
