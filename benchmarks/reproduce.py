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
                argv: list[str]) -> None:
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


def run_task_bench(out_dir: pathlib.Path, threads: int = 4,
                   profile: str = "test") -> list[str]:
    """Task-scheduler microbenchmark: qsort and bfs under the metrics
    tool.

    The paper's two task-parallel apps drive the work-stealing deques
    hardest, so this records their wall time plus the scheduler's
    steal/local-hit attribution, and returns a failure for any
    task-count violation: a wrong result, tasks created but never
    executed (or vice versa), executions not attributed as exactly one
    local hit or steal, or tasks that never completed.
    """
    from repro.apps.base import get_app
    from repro.modes import Mode
    from repro.ompt.metrics import MetricsTool
    from repro.runtime import pure_runtime

    failures: list[str] = []
    lines: list[str] = []
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
        incomplete = tool.pending_tasks()
        line = (f"{name}: {elapsed:.3f}s at {threads} threads | tasks "
                f"created={created:.0f} executed={executed:.0f} "
                f"local={local:.0f} steals={steals:.0f} "
                f"incomplete={incomplete}")
        lines.append(line)
        print(f"[reproduce] task-bench {line}")
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
    return failures


def run_smoke(out_dir: pathlib.Path) -> None:
    """CI smoke mode: one tiny app per figure, assert each completes.

    Uses the ``test`` profile, two thread counts, and a single app per
    sweep so the whole pass stays in CI-budget territory while still
    driving every figure's harness end to end.  Pass/fail only: speed
    numbers come from ``benchmarks/e2e``.
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
    for name, argv in plan:
        try:
            run_command(out_dir, name, argv)
        except Exception as error:  # noqa: BLE001 - smoke verdict
            failures.append(f"{name}: {type(error).__name__}: {error}")
            continue
        produced = out_dir / f"{name}.txt"
        if not produced.exists() or not produced.read_text(
                encoding="utf-8").strip():
            failures.append(f"{name}: produced no output")
    try:
        failures.extend(run_task_bench(out_dir))
    except Exception as error:  # noqa: BLE001 - smoke verdict
        failures.append(f"task-bench: {type(error).__name__}: {error}")
    try:
        import bench_projection_validation
        failures.extend(bench_projection_validation.smoke_failures())
    except Exception as error:  # noqa: BLE001 - smoke verdict
        failures.append(
            f"projection-validate: {type(error).__name__}: {error}")
    try:
        import bench_plan
        failures.extend(bench_plan.smoke_failures())
    except Exception as error:  # noqa: BLE001 - smoke verdict
        failures.append(f"plan: {type(error).__name__}: {error}")
    try:
        import bench_serving
        failures.extend(bench_serving.smoke_failures())
    except Exception as error:  # noqa: BLE001 - smoke verdict
        failures.append(f"serving: {type(error).__name__}: {error}")
    if failures:
        print("[reproduce] SMOKE FAILURES:")
        for failure in failures:
            print(f"  - {failure}")
        raise SystemExit(1)
    print(f"[reproduce] smoke OK: {len(plan)} figure harnesses, the task "
          f"microbenchmark, the projection-validation gate, the "
          f"inspector–executor plan gate, and the serving bench "
          f"completed (outputs in {out_dir}/)")


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
        failures = run_task_bench(out_dir, threads=threads,
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
