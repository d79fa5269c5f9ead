"""Compact BENCH_smoke.json delta for the CI job summary.

``check_overhead.py`` *gates* (two same-runner runs, <2%);  this script
*informs*: it compares a fresh smoke run against the committed baseline
(``results/BENCH_smoke.json``) and prints a GitHub-flavoured markdown
table of per-kernel wall-time deltas, so a PR's perf drift is visible
in ``$GITHUB_STEP_SUMMARY`` instead of only failing silently on the
gate thresholds.  Always exits 0 — cross-machine wall times are noisy,
and the authoritative gates live elsewhere.

With ``--history`` it also renders the cross-run trend from the
``BENCH_history.jsonl`` ledger (see ``benchmarks/perf_history.py``),
so the summary shows both "vs the committed baseline" and "vs the
best/previous recorded runs".

Usage::

    python benchmarks/smoke_delta.py results/BENCH_smoke.json \
        results-smoke/BENCH_smoke.json \
        --history results-smoke/BENCH_history.jsonl \
        >> "$GITHUB_STEP_SUMMARY"
"""

from __future__ import annotations

import argparse
import json
import pathlib

import perf_history

#: Deltas smaller than this are noise on shared runners; mark ~.
NOISE_FLOOR = 0.10


def _load(path: pathlib.Path) -> dict | None:
    if not path.exists():
        return None
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None


def _kernels(payload: dict) -> dict[str, float]:
    return {record["kernel"]: record["wall_s"]
            for record in payload.get("kernels", [])
            if record.get("wall_s") is not None}


def format_delta(baseline: dict | None, current: dict | None,
                 baseline_path: str, current_path: str) -> str:
    lines = ["### Bench smoke vs committed baseline", ""]
    if current is None:
        lines.append(f"_No current smoke results at `{current_path}` — "
                     f"the smoke run likely failed before writing "
                     f"them._")
        return "\n".join(lines) + "\n"
    if baseline is None:
        lines.append(f"_No committed baseline at `{baseline_path}`; "
                     f"nothing to compare against._")
        return "\n".join(lines) + "\n"
    base_backend = baseline.get("backend", "gil")
    cur_backend = current.get("backend", "gil")
    if base_backend != cur_backend:
        lines.append(
            f"_Backend mismatch (baseline `{base_backend}`, current "
            f"`{cur_backend}`): wall times are not comparable "
            f"(projection vs true parallelism); skipping the table._")
        return "\n".join(lines) + "\n"
    base = _kernels(baseline)
    cur = _kernels(current)
    lines += [
        f"Baseline: `{baseline.get('python', '?')}` on "
        f"`{baseline.get('platform', '?')}` — current: "
        f"`{current.get('python', '?')}` (backend `{cur_backend}`). "
        f"Cross-machine numbers; informational only.",
        "",
        "| kernel | baseline [s] | current [s] | delta |",
        "|---|---|---|---|",
    ]
    for kernel in sorted(set(base) | set(cur)):
        b, c = base.get(kernel), cur.get(kernel)
        if b is None:
            lines.append(f"| {kernel} | — | {c:.3f} | _new_ |")
        elif c is None:
            lines.append(f"| {kernel} | {b:.3f} | — | _gone_ |")
        else:
            ratio = (c - b) / b if b else 0.0
            flag = ("🔺" if ratio > NOISE_FLOOR
                    else "🟢" if ratio < -NOISE_FLOOR else "~")
            lines.append(f"| {kernel} | {b:.3f} | {c:.3f} | "
                         f"{ratio * 100:+.1f}% {flag} |")
    cold = []
    for field in perf_history.COLD_PATH_FIELDS:
        b, c = baseline.get(field), current.get(field)
        if c is None:
            continue
        if not b:
            cold.append(f"| {field} | — | {c:.3f} | _new_ |")
        else:
            cold.append(f"| {field} | {b:.3f} | {c:.3f} | "
                        f"{(c - b) / b * 100:+.1f}% |")
    if cold:
        lines += ["", "| cold path | baseline | current | delta |",
                  "|---|---|---|---|", *cold]
    total_b = baseline.get("total_wall_s")
    total_c = current.get("total_wall_s")
    if total_b and total_c:
        ratio = (total_c - total_b) / total_b
        lines += ["", f"**Total**: {total_b:.3f}s → {total_c:.3f}s "
                      f"({ratio * 100:+.1f}%)"]
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("baseline", help="committed BENCH_smoke.json")
    parser.add_argument("current", help="freshly produced BENCH_smoke.json")
    parser.add_argument("--history", default=None,
                        help="BENCH_history.jsonl ledger to trend "
                             "(appended below the baseline table)")
    args = parser.parse_args(argv)
    baseline_path = pathlib.Path(args.baseline)
    current_path = pathlib.Path(args.current)
    print(format_delta(_load(baseline_path), _load(current_path),
                       args.baseline, args.current))
    if args.history:
        print(perf_history.format_trend(
            perf_history.load_history(args.history)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
