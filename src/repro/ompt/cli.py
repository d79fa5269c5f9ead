"""``python -m repro.profile`` — run an app under full instrumentation.

Runs one registered benchmark app with the tracer and a metrics tool
attached, then writes three artifacts into ``--out``:

* ``<app>_<mode>_trace.json`` — Chrome trace-event JSON; open it in
  Perfetto (https://ui.perfetto.dev) or ``chrome://tracing``.
* ``<app>_<mode>_metrics.prom`` — Prometheus text exposition dump.
* ``<app>_<mode>_metrics.json`` — the structured observability report
  (per-thread chunks/iterations, barrier wait, task latencies, mutex
  contention, per-region projection imbalance) plus the measurement.

With ``--sample`` the sampling profiler (:mod:`repro.sampling`) runs
alongside and two more artifacts appear: ``<app>_<mode>_samples.
collapsed`` (folded stacks for flamegraph tools) and ``<app>_<mode>_
samples.speedscope.json`` (open at https://speedscope.app).

``--merge`` unions per-rank MPI trace files (``trace.rank<k>.json``)
into one Chrome trace with one process lane per rank.

Usage::

    python -m repro.profile pi --threads 4
    python -m repro.profile qsort --mode pure --profile test --out prof
    python -m repro.profile qsort --sample --sample-hz 200
    python -m repro.profile --merge out/trace.rank*.json --out merged
    python -m repro.profile --list
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

from repro.analysis.runner import run_point
from repro.apps import get_app, list_apps
from repro.arming import arm, disarm, session
from repro.decorator import runtime_for
from repro.modes import Mode
from repro.ompt.exporters import (chrome_trace, metrics_report,
                                  prometheus_text, validate_chrome_trace)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.profile",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("app", nargs="?",
                        help="registered app name (see --list)")
    parser.add_argument("--list", action="store_true",
                        help="list registered apps and exit")
    parser.add_argument("--mode", default="hybrid",
                        help="execution mode (pure/hybrid/compiled/"
                             "compileddt)")
    parser.add_argument("--threads", type=int, default=2)
    parser.add_argument("--profile", default="test",
                        choices=("test", "default", "paper"),
                        help="problem-size profile")
    parser.add_argument("--repeats", type=int, default=1)
    parser.add_argument("--out", default="results/profile",
                        help="artifact output directory")
    parser.add_argument("--trace-capacity", type=int, default=None,
                        help="override the tracer's event-buffer bound")
    parser.add_argument("--strict", action="store_true",
                        help="exit nonzero when the trace dropped "
                             "events (incomplete artifacts)")
    parser.add_argument("--sample", action="store_true",
                        help="run the sampling profiler alongside; "
                             "writes collapsed + speedscope artifacts")
    parser.add_argument("--sample-hz", type=float, default=None,
                        help="sampling rate for --sample "
                             "(default: OMP4PY_PROFILE_HZ or 200)")
    parser.add_argument("--merge", nargs="+", metavar="TRACE",
                        help="merge per-rank trace JSON files into "
                             "one timeline (writes trace.merged.json "
                             "into --out) and exit")
    return parser


def profile_app(app: str, mode: Mode, threads: int, profile: str,
                repeats: int = 1, trace_capacity: int | None = None):
    """Run ``app`` instrumented; return ``(measurement, report, trace,
    prometheus)``.

    ``report`` is the structured metrics JSON (with the measurement
    merged in), ``trace`` the Chrome trace document, and ``prometheus``
    the text exposition dump of the same registry.
    """
    spec = get_app(app)
    runtime = runtime_for(mode)
    with session(runtime, trace_capacity=trace_capacity, trace=True,
                 metrics=True) as armed:
        measurement = run_point(spec, mode, threads, profile,
                                repeats).measurement
    registry = armed.tool.registry
    events = runtime.tracer.events()
    report = metrics_report(registry, runtime.stats.snapshot())
    report["trace"] = {"events": len(events), "dropped": events.dropped}
    report["run"] = {
        "app": app, "mode": mode.value, "threads": threads,
        "profile": profile, "repeats": repeats,
        "wall_s": measurement.wall,
        "projected_s": measurement.projected,
        "serialized_cpu_s": measurement.serialized_cpu,
        "critical_cpu_s": measurement.critical_cpu,
        "regions": measurement.regions,
    }
    trace = chrome_trace(events, dropped=events.dropped,
                         metadata={"app": app, "mode": mode.value,
                                   "threads": threads})
    return measurement, report, trace, prometheus_text(registry)


def _print_summary(report: dict, out=None) -> None:
    out = out if out is not None else sys.stdout
    run = report["run"]
    print(f"[profile] {run['app']} ({run['mode']}, "
          f"{run['threads']} threads): wall {run['wall_s']:.4f}s, "
          f"projected {run['projected_s']:.4f}s", file=out)
    chunks = report["per_thread"]["chunks"]
    iterations = report["per_thread"]["iterations"]
    if chunks:
        print("[profile] chunks per thread:    "
              + "  ".join(f"t{t}={n}" for t, n in chunks.items()),
              file=out)
    if iterations:
        print("[profile] iterations per thread: "
              + "  ".join(f"t{t}={n}" for t, n in iterations.items()),
              file=out)
    barrier = report["barrier_wait"]
    if barrier["count"]:
        print(f"[profile] barrier wait: {barrier['sum_s']:.4f}s total "
              f"over {barrier['count']} waits", file=out)
    latency = report["task_latency"]
    if latency["count"]:
        print(f"[profile] task latency: mean {latency['mean_s']:.6f}s, "
              f"max {latency['max_s']:.6f}s over {latency['count']} "
              f"tasks", file=out)
    imbalance = report["imbalance"]
    if imbalance["max"] is not None:
        print(f"[profile] load imbalance (max_cpu/mean_cpu): "
              f"worst {imbalance['max']:.2f}, "
              f"mean {imbalance['mean']:.2f}", file=out)


def merge_main(paths, out: str) -> int:
    """The ``--merge`` entry: union rank traces into one document."""
    from repro.ompt.exporters import merge_chrome_traces
    payloads = []
    for path in paths:
        payloads.append(json.loads(
            pathlib.Path(path).read_text(encoding="utf-8")))
    merged = merge_chrome_traces(payloads)
    out_path = pathlib.Path(out)
    if out_path.suffix == ".json":
        out_path.parent.mkdir(parents=True, exist_ok=True)
    else:
        out_path.mkdir(parents=True, exist_ok=True)
        out_path = out_path / "trace.merged.json"
    out_path.write_text(json.dumps(merged), encoding="utf-8")
    problems = validate_chrome_trace(merged)
    print(f"[profile] merged {len(payloads)} rank trace(s), "
          f"{merged['otherData']['events']} events -> {out_path}")
    if merged["otherData"]["unaligned_ranks"]:
        print(f"[profile] WARNING: rank(s) "
              f"{merged['otherData']['unaligned_ranks']} had no epoch "
              f"anchor; their timestamps are not aligned",
              file=sys.stderr)
    if problems:
        print(f"[profile] WARNING: merged trace schema problems: "
              f"{problems[:3]}", file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.list:
        print("\n".join(list_apps()))
        return 0
    if args.merge:
        return merge_main(args.merge, args.out)
    if not args.app:
        build_parser().error("app name required (or --list)")
    mode = Mode.parse(args.mode)
    out_dir = pathlib.Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    runtime = runtime_for(mode)
    sampler = None
    if args.sample or args.sample_hz is not None:
        from repro import env
        sampler = arm(runtime, sample_hz=args.sample_hz
                      or env.profile_hz()).sampler
    try:
        _measurement, report, trace, prometheus = profile_app(
            args.app, mode, args.threads, args.profile,
            repeats=args.repeats, trace_capacity=args.trace_capacity)
    finally:
        disarm(runtime)

    stem = f"{args.app}_{mode.value}"
    trace_path = out_dir / f"{stem}_trace.json"
    prom_path = out_dir / f"{stem}_metrics.prom"
    json_path = out_dir / f"{stem}_metrics.json"
    trace_path.write_text(json.dumps(trace), encoding="utf-8")
    json_path.write_text(json.dumps(report, indent=2), encoding="utf-8")
    prom_path.write_text(prometheus, encoding="utf-8")

    dropped = trace["otherData"]["dropped_events"]
    if dropped:
        print(f"[profile] WARNING: trace truncated — {dropped} event(s) "
              f"dropped; raise --trace-capacity for a complete trace",
              file=sys.stderr)
    problems = validate_chrome_trace(trace)
    if problems:  # pragma: no cover - exporter guarantees schema
        print(f"[profile] WARNING: trace schema problems: {problems[:3]}",
              file=sys.stderr)
    _print_summary(report)
    artifacts = [trace_path, prom_path, json_path]
    if sampler is not None:
        from repro.sampling.exporters import (write_collapsed,
                                              write_speedscope)
        collapsed_path = out_dir / f"{stem}_samples.collapsed"
        speedscope_path = out_dir / f"{stem}_samples.speedscope.json"
        write_collapsed(collapsed_path, sampler.store)
        write_speedscope(speedscope_path, sampler.store,
                         interval=sampler.interval,
                         name=f"{args.app} ({mode.value})")
        artifacts += [collapsed_path, speedscope_path]
        by_state = dict(sampler.store.by_state)
        print(f"[profile] samples: {sampler.store.total} "
              f"({by_state}) at {1.0 / sampler.interval:.0f} Hz")
        for label, entry in sorted(
                sampler.store.directive_summary(
                    sampler.interval).items(),
                key=lambda item: -item[1]["self"]):
            print(f"[profile]   {label}: ~{entry['self_s']:.4f}s "
                  f"self-CPU, ~{entry['wait_s']:.4f}s waiting")
    print(f"[profile] artifacts: "
          + ", ".join(str(path) for path in artifacts))
    if args.strict and dropped:
        print(f"[profile] STRICT: failing — {dropped} dropped event(s)",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
