"""Two interleaved sets of runs of one workload, judged by the bounds.

    python3 benchmarks/e2e/compare.py --workload numeric [--runs 5]
        [--a ROOT] [--b ROOT] [--seed 1] [--seconds 20] [--trace]

Runs ``run.py`` 2 x ``--runs`` times, the two sets interleaved (A, B, B,
A, A, B, ... so neither always runs first), every run with another
seed, and prints for each end-to-end metric both sets' median and
quartiles, each set's spread (interquartile range over median), the
relative difference of the medians, in how many of the pairs (i-th run
of A, i-th run of B) B read better, and the bound from
``BENCHMARK.json``.  With ``--trace`` the runs are traced ones and the
table lists the per-layer metrics, which carry no bound (the timings
demoted there are what a performance claim compares).  Exits non-zero
when

* a spread exceeds the metric's bound (``setup_s`` excepted), or
* B's median is worse than A's by more than the bound — in an A/A
  check (``--a`` and ``--b`` the same checkout, the default) a
  difference in either direction counts, since neither side is "the
  change", or
* any run fails or reports a failed operation.

With two different checkouts this is the parent-versus-change tool:
``--a`` the parent, ``--b`` the change; the benchmark files of *this*
checkout drive both (a change that claims a gain may not edit them).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def load_spec(root: pathlib.Path = ROOT) -> dict:
    with open(root / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def summarise(values: list[float]) -> dict:
    low, median, high = statistics.quantiles(values, n=4)
    return {"median": median, "q1": low, "q3": high,
            "spread": (high - low) / median if median else 0.0}


def judge(metrics: list, a: dict, b: dict, same_code: bool) -> tuple:
    """Rows and failures for two sets of samples (name -> values) of
    the listed metrics; one without a ``bound`` is only reported."""
    rows, failures = [], []
    for metric in metrics:
        name, bound = metric["name"], metric.get("bound")
        left, right = summarise(a[name]), summarise(b[name])
        change = (right["median"] - left["median"]) / left["median"] \
            if left["median"] else 0.0
        sign = 1 if metric["better"] == "lower" else -1
        worse = sign * change
        wins = sum(sign * (after - before) < 0
                   for before, after in zip(a[name], b[name]))
        rows.append((name, metric["unit"], left, right, change, wins,
                     bound))
        if bound is None:
            continue
        for label, side in (("A", left), ("B", right)):
            if name != "setup_s" and side["spread"] > bound:
                failures.append(
                    f"{name}: spread of set {label} "
                    f"{side['spread']:.1%} exceeds the bound {bound:.0%}")
        if (abs(change) if same_code else worse) > bound:
            failures.append(
                f"{name}: medians differ by {change:+.1%}, bound "
                f"{bound:.0%}")
    return rows, failures


def render(rows) -> str:
    lines = [f"{'metric':32s} {'unit':5s} {'A median':>10s} "
             f"{'A q1..q3':>21s} {'B median':>10s} {'B q1..q3':>21s} "
             f"{'spread A/B':>13s} {'diff':>7s} {'B wins':>6s} "
             f"{'bound':>6s}"]
    for name, unit, left, right, change, wins, bound in rows:
        lines.append(
            f"{name:32s} {unit:5s} {left['median']:10.4g} "
            f"{left['q1']:10.4g}..{left['q3']:<9.4g} "
            f"{right['median']:10.4g} "
            f"{right['q1']:10.4g}..{right['q3']:<9.4g} "
            f"{left['spread']:6.1%}/{right['spread']:<6.1%} "
            f"{change:+7.1%} {wins:6d} "
            + (f"{bound:6.0%}" if bound is not None else f"{'-':>6s}"))
    return "\n".join(lines)


def run_once(root: pathlib.Path, workload: str, seed: int,
             seconds: float, quick: bool, traced: bool) -> dict:
    """One ``run.py`` run against ``root``; returns its result object.

    The benchmark files are always this checkout's; ``root`` only
    decides which ``src/`` they measure.
    """
    command = [sys.executable, str(HERE / "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(int(traced)),
               "--src", str(root / "src")]
    if quick:
        command.append("--quick")
    done = subprocess.run(command, capture_output=True, text=True,
                          timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"run failed ({done.returncode}): "
                           f"{done.stderr.strip()[-400:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=5,
                        help="runs per set (at least 2)")
    parser.add_argument("--a", type=pathlib.Path, default=ROOT)
    parser.add_argument("--b", type=pathlib.Path, default=ROOT)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--trace", action="store_true",
                        help="traced runs: compare the per-layer "
                             "metrics (no bounds)")
    args = parser.parse_args(argv)
    spec = load_spec()
    seconds = args.seconds or spec["run_seconds"]
    roots = {"A": args.a.resolve(), "B": args.b.resolve()}
    metrics = spec["per_layer" if args.trace else "end_to_end"]
    samples = {label: {m["name"]: [] for m in metrics}
               for label in roots}
    failed_ops = 0
    for index in range(2 * args.runs):
        # A, B, B, A, A, B, ...: neither side always runs first.
        label = "AB"[(index + index // 2) % 2]
        result = run_once(roots[label], args.workload, args.seed + index,
                          seconds, args.quick, args.trace)
        failed_ops += result["failed"]
        for name, values in samples[label].items():
            values.append(result["metrics"][name]["value"])
        print(f"[compare] run {index + 1}/{2 * args.runs} ({label}, "
              f"seed {args.seed + index}) done", flush=True)
    rows, failures = judge(metrics, samples["A"], samples["B"],
                           same_code=roots["A"] == roots["B"])
    if failed_ops:
        failures.append(f"{failed_ops} failed operations")
    print(render(rows))
    for failure in failures:
        print(f"[compare] FAIL {failure}")
    print(f"[compare] {args.workload}: "
          f"{'disagree' if failures else 'agree'} within the bounds")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
