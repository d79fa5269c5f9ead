"""Full evaluation driver: regenerate every table and figure.

Runs the report harness for Table I and Figs. 5-8 plus the headline
summary, writing each into ``results/``.  Problem sizes and thread
counts default to laptop-scale values; ``--profile paper --threads
1,2,4,8,16,32`` reproduces the paper's configuration (expect many
hours, as the paper's artifact appendix also warns).

Usage::

    python benchmarks/reproduce.py [--profile default] \
        [--threads 1,2,4] [--nodes 1,2,4,8] [--repeats 3] [--out results]
"""

from __future__ import annotations

import argparse
import contextlib
import io
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent
                       / "src"))

from repro.analysis import report  # noqa: E402


def run_command(out_dir: pathlib.Path, name: str,
                argv: list[str]) -> float:
    print(f"[reproduce] {name}: report {' '.join(argv)}")
    begin = time.perf_counter()
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        report.main(argv)
    elapsed = time.perf_counter() - begin
    text = buffer.getvalue()
    (out_dir / f"{name}.txt").write_text(text, encoding="utf-8")
    print(text)
    print(f"[reproduce] {name} done in {elapsed:.1f}s -> "
          f"{out_dir / f'{name}.txt'}\n")
    return elapsed


def run_task_bench(out_dir: pathlib.Path, threads: int = 4,
                   profile: str = "test",
                   ) -> tuple[list[str], list[dict]]:
    """Task-scheduler microbenchmark: qsort and bfs under the metrics
    tool.

    The paper's two task-parallel apps drive the work-stealing deques
    hardest, so this records their wall time plus the scheduler's
    steal/local-hit attribution, and returns a failure for any
    task-count violation: a wrong result, tasks created but never
    executed (or vice versa), executions not attributed as exactly one
    local hit or steal, or tasks that never completed.  Also returns
    one machine-readable record per kernel for ``BENCH_smoke.json``.
    """
    from repro.apps.base import get_app
    from repro.modes import Mode
    from repro.ompt.metrics import MetricsTool
    from repro.runtime import pure_runtime

    failures: list[str] = []
    lines: list[str] = []
    records: list[dict] = []
    for name in ("qsort", "bfs"):
        spec = get_app(name)
        reference = spec.sequential(**spec.inputs(profile))
        inputs = spec.inputs(profile)  # fresh: qsort sorts in place
        variant = spec.variant(Mode.PURE)
        tool = MetricsTool()
        pure_runtime.attach_tool(tool)
        try:
            begin = time.perf_counter()
            result = variant(threads=threads, **inputs)
            elapsed = time.perf_counter() - begin
        finally:
            pure_runtime.detach_tool(tool)
        data = tool.registry.as_dict()

        def counter_total(metric: str, data=data) -> float:
            family = data.get(metric)
            if family is None:
                return 0
            return sum(s["value"] for s in family["samples"])

        created = counter_total("omp_tasks_created_total")
        executed = counter_total("omp_tasks_executed_total")
        steals = counter_total("omp_task_steals_total")
        local = counter_total("omp_task_local_hits_total")
        incomplete = len(tool._tasks)
        line = (f"{name}: {elapsed:.3f}s at {threads} threads | tasks "
                f"created={created:.0f} executed={executed:.0f} "
                f"local={local:.0f} steals={steals:.0f} "
                f"incomplete={incomplete}")
        lines.append(line)
        print(f"[reproduce] task-bench {line}")
        records.append({
            "kernel": f"task-bench/{name}",
            "wall_s": elapsed,
            "threads": threads,
            "mode": "pure",
            "tasks_created": int(created),
            "tasks_executed": int(executed),
            "local_hits": int(local),
            "steals": int(steals),
        })
        if not spec.verify(result, reference):
            failures.append(f"task-bench {name}: wrong result")
        if created != executed:
            failures.append(
                f"task-bench {name}: task-count mismatch "
                f"(created={created:.0f}, executed={executed:.0f})")
        if local + steals != executed:
            failures.append(
                f"task-bench {name}: steal attribution mismatch "
                f"(local={local:.0f} + steals={steals:.0f} != "
                f"executed={executed:.0f})")
        if incomplete:
            failures.append(
                f"task-bench {name}: {incomplete} tasks never completed")
    (out_dir / "task_bench.txt").write_text("\n".join(lines) + "\n",
                                            encoding="utf-8")
    return failures, records


def measure_cold_path() -> dict:
    """The cold-path layer of the ledger: what a script and a serving
    fleet pay before they compute anything.

    ``transform_ms`` is the sum over the nine apps x four modes of one
    fresh ``transform`` each, best of 5 passes; ``fleet_ready_s`` is a
    two-worker ``ServeServer`` from construction until every worker has
    reported ready, best of 3 starts.
    """
    from repro.apps import get_app, list_apps
    from repro.decorator import transform
    from repro.modes import Mode
    from repro.serve import ServeServer

    sources = [(get_app(app).source(mode), mode)
               for app in list_apps() for mode in Mode]
    passes = []
    for _ in range(5):
        begin = time.perf_counter()
        for source, mode in sources:
            transform(source, mode)
        passes.append(time.perf_counter() - begin)
    starts = []
    for _ in range(3):
        begin = time.perf_counter()
        server = ServeServer(workers=2, tenants={"default": 2})
        try:
            server.start()
            deadline = begin + 60.0
            while server.fleet.idle_workers() < 2:
                if time.perf_counter() > deadline:
                    raise TimeoutError("fleet not ready within 60 s")
                time.sleep(0.002)
            starts.append(time.perf_counter() - begin)
        finally:
            server.stop()
    return {"transform_ms": 1e3 * min(passes),
            "fleet_ready_s": min(starts)}


def write_bench_json(out_dir: pathlib.Path, records: list[dict],
                     cold_path: dict) -> None:
    """Write the machine-readable smoke summary ``BENCH_smoke.json``.

    CI uploads this as an artifact and ``benchmarks/check_overhead.py``
    compares two of them to gate diagnostics overhead at <2%.
    ``cold_path`` (see :func:`measure_cold_path`) lands as top-level
    fields, outside the per-kernel walls and their total.
    """
    import json
    import os
    import platform

    from repro.runtime.gilstate import current_backend

    payload = {
        "schema": "omp4py-bench-smoke/1",
        "python": platform.python_version(),
        "platform": platform.platform(),
        # Wall times under gil vs nogil backends are not comparable
        # (projection vs true parallelism), so the delta tool refuses
        # cross-backend comparisons.
        "backend": current_backend().value,
        # Overhead comparisons only make sense between runs with the
        # same diagnostics arming, so record the knobs in the file.
        "diagnostics": {
            "OMP4PY_FLIGHT": os.environ.get("OMP4PY_FLIGHT"),
            "OMP4PY_WATCHDOG": os.environ.get("OMP4PY_WATCHDOG"),
            "OMP4PY_TRACE": os.environ.get("OMP4PY_TRACE"),
            "OMP4PY_METRICS": os.environ.get("OMP4PY_METRICS"),
            "OMP4PY_METRICS_PORT": os.environ.get(
                "OMP4PY_METRICS_PORT"),
            "OMP4PY_PROFILE": os.environ.get("OMP4PY_PROFILE"),
            "OMP4PY_PROFILE_HZ": os.environ.get("OMP4PY_PROFILE_HZ"),
        },
        "total_wall_s": sum(r["wall_s"] for r in records),
        "kernels": records,
        **cold_path,
    }
    path = out_dir / "BENCH_smoke.json"
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"[reproduce] wrote {path}")


def run_smoke(out_dir: pathlib.Path) -> None:
    """CI smoke mode: one tiny app per figure, assert each completes.

    Uses the ``test`` profile, two thread counts, and a single app per
    sweep so the whole pass stays in CI-budget territory while still
    driving every figure's harness end to end.  Writes a per-kernel
    timing summary to ``BENCH_smoke.json`` for the CI overhead gate.
    """
    tiny = ["--profile", "test", "--threads", "1,2", "--repeats", "1"]
    plan = [
        ("table1", ["table1"]),
        ("fig5", ["fig5", *tiny, "--apps", "pi"]),
        ("fig6", ["fig6", *tiny, "--apps", "wordcount"]),
        ("fig7", ["fig7", *tiny, "--apps", "wordcount", "--chunk", "4"]),
        ("fig8", ["fig8", "--profile", "test", "--nodes", "1,2",
                  "--threads", "2", "--repeats", "1"]),
        ("headline", ["headline", *tiny, "--apps", "pi"]),
    ]
    failures = []
    records: list[dict] = []
    for name, argv in plan:
        try:
            elapsed = run_command(out_dir, name, argv)
        except Exception as error:  # noqa: BLE001 - smoke verdict
            failures.append(f"{name}: {type(error).__name__}: {error}")
            continue
        records.append({"kernel": name, "wall_s": elapsed,
                        "threads": "1,2", "mode": "harness"})
        produced = out_dir / f"{name}.txt"
        if not produced.exists() or not produced.read_text(
                encoding="utf-8").strip():
            failures.append(f"{name}: produced no output")
    try:
        task_failures, task_records = run_task_bench(out_dir)
        failures.extend(task_failures)
        records.extend(task_records)
    except Exception as error:  # noqa: BLE001 - smoke verdict
        failures.append(f"task-bench: {type(error).__name__}: {error}")
    try:
        import bench_region_overhead
        region_failures, region_records = \
            bench_region_overhead.smoke_records()
        failures.extend(region_failures)
        records.extend(region_records)
    except Exception as error:  # noqa: BLE001 - smoke verdict
        failures.append(
            f"region-overhead: {type(error).__name__}: {error}")
    try:
        import bench_projection_validation
        proj_failures, proj_records = \
            bench_projection_validation.smoke_records()
        failures.extend(proj_failures)
        records.extend(proj_records)
    except Exception as error:  # noqa: BLE001 - smoke verdict
        failures.append(
            f"projection-validate: {type(error).__name__}: {error}")
    try:
        import bench_plan
        plan_failures, plan_records = bench_plan.smoke_records()
        failures.extend(plan_failures)
        records.extend(plan_records)
    except Exception as error:  # noqa: BLE001 - smoke verdict
        failures.append(f"plan: {type(error).__name__}: {error}")
    try:
        import bench_serving
        serve_failures, serve_records = bench_serving.smoke_records()
        failures.extend(serve_failures)
        records.extend(serve_records)
    except Exception as error:  # noqa: BLE001 - smoke verdict
        failures.append(f"serving: {type(error).__name__}: {error}")
    cold_path = {}
    try:
        cold_path = measure_cold_path()
        print(f"[reproduce] cold path: transform_ms="
              f"{cold_path['transform_ms']:.1f} fleet_ready_s="
              f"{cold_path['fleet_ready_s']:.3f}")
    except Exception as error:  # noqa: BLE001 - smoke verdict
        failures.append(f"cold-path: {type(error).__name__}: {error}")
    write_bench_json(out_dir, records, cold_path)
    try:
        # Ledger ride-along: append this run to BENCH_history.jsonl
        # (seeded from the committed ledger on a fresh workspace) and
        # print the cross-run trend.  Never fails the smoke verdict.
        import perf_history
        repo_root = pathlib.Path(__file__).resolve().parent.parent
        entry = perf_history.record_smoke(
            out_dir / "BENCH_smoke.json",
            out_dir / "BENCH_history.jsonl",
            seed_path=repo_root / "results" / "BENCH_history.jsonl")
        print(f"[reproduce] perf ledger: recorded {entry['sha'][:12]} "
              f"({entry['backend']}) in {out_dir}/BENCH_history.jsonl")
        print(perf_history.format_trend(
            perf_history.load_history(out_dir / "BENCH_history.jsonl")))
    except Exception as error:  # noqa: BLE001 - ledger is best-effort
        print(f"[reproduce] perf ledger skipped: "
              f"{type(error).__name__}: {error}")
    if failures:
        print("[reproduce] SMOKE FAILURES:")
        for failure in failures:
            print(f"  - {failure}")
        raise SystemExit(1)
    print(f"[reproduce] smoke OK: {len(plan)} figure harnesses, the task "
          f"microbenchmark, the region-overhead gate, the "
          f"projection-validation gate, the inspector–executor "
          f"plan gate, and the serving bench completed "
          f"(outputs in {out_dir}/)")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--profile", default="default",
                        choices=("test", "default", "paper"))
    parser.add_argument("--threads", default="1,2,4")
    parser.add_argument("--nodes", default="1,2,4,8")
    parser.add_argument("--repeats", default="1")
    parser.add_argument("--out", default="results")
    parser.add_argument("--apps", default=None,
                        help="restrict fig5 to a comma-separated app "
                             "subset (smoke runs)")
    parser.add_argument("--skip-check", action="store_true",
                        help="skip the shape-claim verdicts (their "
                             "bands assume the default profile)")
    parser.add_argument("--smoke", action="store_true",
                        help="CI smoke run: one tiny app per figure, "
                             "fail if any harness breaks")
    parser.add_argument("--task-bench", action="store_true",
                        help="run only the qsort/bfs task-scheduler "
                             "microbenchmark (steal counts, task-count "
                             "conservation)")
    args = parser.parse_args()

    out_dir = pathlib.Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.smoke:
        run_smoke(out_dir)
        return
    if args.task_bench:
        threads = int(args.threads.split(",")[-1])
        failures, _records = run_task_bench(out_dir, threads=threads,
                                            profile=args.profile)
        if failures:
            print("[reproduce] TASK-BENCH FAILURES:")
            for failure in failures:
                print(f"  - {failure}")
            raise SystemExit(1)
        print(f"[reproduce] task bench OK -> {out_dir / 'task_bench.txt'}")
        return
    common = ["--profile", args.profile, "--threads", args.threads,
              "--repeats", args.repeats]

    # The paper's chunk of 300 assumes its 300k-node / 2M-line inputs;
    # scale it with the profile so the chunk:iteration ratio matches.
    chunk = {"test": "4", "default": "8", "paper": "300"}[args.profile]

    run_command(out_dir, "table1", ["table1"])
    fig5_args = ["fig5", *common]
    if args.apps:
        fig5_args += ["--apps", args.apps]
    run_command(out_dir, "fig5", fig5_args)
    run_command(out_dir, "fig6", ["fig6", *common])
    run_command(out_dir, "fig7", ["fig7", *common, "--chunk", chunk])
    run_command(out_dir, "fig8", ["fig8", "--profile", args.profile,
                                  "--nodes", args.nodes, "--threads",
                                  args.threads.split(",")[-1],
                                  "--repeats", args.repeats])
    headline_args = ["headline", *common]
    if args.apps:
        headline_args += ["--apps", args.apps]
    run_command(out_dir, "headline", headline_args)
    if not args.skip_check:
        try:
            run_command(out_dir, "shapecheck",
                        ["check", "--profile", args.profile,
                         "--repeats", args.repeats])
        except SystemExit:
            print("[reproduce] WARNING: some shape claims failed "
                  "(see shapecheck.txt)")
    print(f"[reproduce] all outputs in {out_dir}/")


if __name__ == "__main__":
    main()
