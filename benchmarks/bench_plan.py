"""Inspector–executor plans vs critical sections on the irregular apps.

Measures the planned (``repro.plan``) kernels of bfs and wordcount
against their critical-section baselines, plus md's pair-block plan as
an informational record.  Every kernel is verified against the app's
sequential reference before its time counts, and each side is the
**minimum over repeats** (the intrinsic cost with scheduler noise
removed, symmetrically for both variants).

The gate is the combined wall-time ratio over bfs + wordcount::

    (bfs_critical + wordcount_critical)
        / (bfs_planned + wordcount_planned)  >=  --min-ratio

bfs carries the convoy the plan fixes (one ``critical`` per feasible
move, tens of thousands of acquisitions per search); wordcount's
baseline merge is a single acquisition per thread, so its planned
variant is roughly neutral and the combined ratio is honest about
that.  With ``--check`` the gate takes the best combined ratio over up
to three attempts (stopping at the first pass), a guard against a
loaded runner.

Usage::

    python benchmarks/bench_plan.py [--threads 4] [--repeats 3]
        [--check] [--min-ratio 1.5] [--out results]
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent
                       / "src"))

from repro import transform  # noqa: E402
from repro.modes import Mode  # noqa: E402
from repro.plan import clear_plan_cache, plan_cache_stats  # noqa: E402
from repro.runtime import pure_runtime  # noqa: E402

#: Benchmark sizes: big enough that per-level plan overhead amortizes,
#: small enough for the CI smoke budget.
BFS_N = 121
WORDCOUNT_LINES = 3000
MD_N = 32
MD_STEPS = 3


def _best(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        begin = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - begin)
    return best


def bench_bfs(threads: int, repeats: int) -> dict:
    from repro.apps import bfs

    grid = bfs.make_maze(BFS_N)
    expected = bfs.sequential(grid, BFS_N)
    critical = transform(bfs.kernel_frontier, Mode.PURE)
    for kernel in (lambda: critical(grid=grid, n=BFS_N,
                                    threads=threads),
                   lambda: bfs.kernel_planned(grid, BFS_N, threads)):
        if kernel() != expected:
            raise AssertionError("bfs kernel disagrees with the "
                                 "sequential reference")
    critical_s = _best(lambda: critical(grid=grid, n=BFS_N,
                                        threads=threads), repeats)
    planned_s = _best(lambda: bfs.kernel_planned(grid, BFS_N, threads),
                      repeats)
    return {"app": "bfs", "n": BFS_N, "critical_s": critical_s,
            "planned_s": planned_s,
            "ratio": critical_s / planned_s if planned_s else
            float("inf")}


def bench_wordcount(threads: int, repeats: int) -> dict:
    from repro.apps import wordcount

    corpus = wordcount.make_corpus(WORDCOUNT_LINES)
    count = len(corpus)
    expected = wordcount.sequential(corpus, count)
    critical = transform(wordcount.kernel, Mode.PURE)
    for kernel in (lambda: critical(corpus=corpus, count=count,
                                    threads=threads),
                   lambda: wordcount.kernel_planned(corpus, count,
                                                    threads)):
        if kernel() != expected:
            raise AssertionError("wordcount kernel disagrees with the "
                                 "sequential reference")
    critical_s = _best(lambda: critical(corpus=corpus, count=count,
                                        threads=threads), repeats)
    planned_s = _best(lambda: wordcount.kernel_planned(corpus, count,
                                                       threads),
                      repeats)
    return {"app": "wordcount", "lines": WORDCOUNT_LINES,
            "critical_s": critical_s, "planned_s": planned_s,
            "ratio": critical_s / planned_s if planned_s else
            float("inf")}


def bench_md(threads: int, repeats: int) -> dict:
    """Informational: md's timestep loop is the plan-cache workout
    (build once, hit every later force evaluation)."""
    from repro.apps import md

    reference = md.sequential(**md.make_input(MD_N, steps=MD_STEPS))

    def run(kernel) -> float:
        inputs = md.make_input(MD_N, steps=MD_STEPS)
        result = kernel(threads=threads, **inputs)
        if abs(result[0] - reference[0]) > 1e-6 \
                or abs(result[1] - reference[1]) > 1e-6:
            raise AssertionError("md kernel disagrees with the "
                                 "sequential reference")
        return 0.0

    run(md.kernel_pairs_critical)
    run(md.kernel_planned)
    critical_s = _best(
        lambda: md.kernel_pairs_critical(
            threads=threads, **md.make_input(MD_N, steps=MD_STEPS)),
        repeats)
    clear_plan_cache()
    planned_s = _best(
        lambda: md.kernel_planned(
            threads=threads, **md.make_input(MD_N, steps=MD_STEPS)),
        repeats)
    stats = plan_cache_stats()
    return {"app": "md", "n": MD_N, "steps": MD_STEPS,
            "critical_s": critical_s, "planned_s": planned_s,
            "ratio": critical_s / planned_s if planned_s else
            float("inf"),
            "plan_builds": stats["builds"],
            "plan_cache_hits": stats["hits"]}


def run_bench(threads: int = 4, repeats: int = 3) -> dict:
    bfs = bench_bfs(threads, repeats)
    wordcount = bench_wordcount(threads, repeats)
    md = bench_md(threads, repeats)
    gated_critical = bfs["critical_s"] + wordcount["critical_s"]
    gated_planned = bfs["planned_s"] + wordcount["planned_s"]
    return {
        "threads": threads,
        "repeats": repeats,
        "apps": [bfs, wordcount, md],
        "combined_critical_s": gated_critical,
        "combined_planned_s": gated_planned,
        "combined_ratio": gated_critical / gated_planned
        if gated_planned else float("inf"),
    }


def best_of(attempts: int, min_ratio: float, *, threads: int,
            repeats: int) -> dict:
    """Best combined ratio over up to ``attempts`` measurements,
    stopping at the first that clears ``min_ratio``."""
    best = run_bench(threads=threads, repeats=repeats)
    for _ in range(attempts - 1):
        if best["combined_ratio"] >= min_ratio:
            break
        again = run_bench(threads=threads, repeats=repeats)
        if again["combined_ratio"] > best["combined_ratio"]:
            best = again
    return best


def smoke_failures(threads: int = 4, repeats: int = 3) -> list[str]:
    """Entry point for ``reproduce.py --smoke``: the 1.5x
    combined-ratio verdict."""
    result = best_of(3, 1.5, threads=threads, repeats=repeats)
    line = (f"plan: combined bfs+wordcount "
            f"{result['combined_ratio']:.2f}x over critical baseline "
            f"at {threads} threads")
    print(f"[reproduce] {line}")
    failures: list[str] = []
    # An armed tracer taxes every barrier/critical event and skews
    # both sides, so armed runs print the measurement but skip the
    # verdict.
    if pure_runtime.tracer.enabled:
        print("[reproduce] plan: ratio gate skipped (tracer armed)")
    elif result["combined_ratio"] < 1.5:
        failures.append(
            f"plan: planned bfs+wordcount only "
            f"{result['combined_ratio']:.2f}x over the critical "
            f"baseline (need >= 1.5x)")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--threads", type=int, default=4)
    parser.add_argument("--repeats", type=int, default=3,
                        help="measurements per variant (minimum wins)")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 unless the combined bfs+wordcount "
                        "ratio >= --min-ratio")
    parser.add_argument("--min-ratio", type=float, default=1.5)
    parser.add_argument("--out", default=None, metavar="DIR",
                        help="also write bench_plan.json")
    args = parser.parse_args(argv)

    attempts = 3 if args.check else 1
    result = best_of(attempts, args.min_ratio, threads=args.threads,
                     repeats=args.repeats)

    print(f"[plan] threads={args.threads} repeats={args.repeats}")
    for app in result["apps"]:
        extra = ""
        if "plan_cache_hits" in app:
            extra = (f" (plan built {app['plan_builds']}x, "
                     f"{app['plan_cache_hits']} cache hits)")
        print(f"  {app['app']:>9}: critical "
              f"{app['critical_s'] * 1e3:8.1f} ms | planned "
              f"{app['planned_s'] * 1e3:8.1f} ms | "
              f"{app['ratio']:5.2f}x{extra}")
    print(f"  combined bfs+wordcount: "
          f"{result['combined_ratio']:.2f}x")

    if args.out:
        out_dir = pathlib.Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / "bench_plan.json"
        path.write_text(json.dumps(result, indent=2) + "\n",
                        encoding="utf-8")
        print(f"[plan] wrote {path}")

    if args.check and result["combined_ratio"] < args.min_ratio:
        print(f"[plan] FAIL: planned bfs+wordcount must be at least "
              f"{args.min_ratio}x faster than the critical baseline, "
              f"measured {result['combined_ratio']:.2f}x")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
