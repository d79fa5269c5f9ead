"""Cross-run perf-regression ledger over the smoke benchmarks.

``reproduce.py --smoke`` measures once; this module remembers.  Every
smoke run appends one JSONL entry (commit SHA, backend, per-kernel
wall seconds) to ``results/BENCH_history.jsonl``, and the trend
renderer compares the latest run against the best and previous entries
*of the same backend* — so a slow creep that no single-run gate would
catch is visible in the CI job summary.

The ledger is informational: wall times from different machines are
noisy, and the authoritative same-runner gate stays
``check_overhead.py``.  Entries are append-only; corrupt lines are
skipped on read so a truncated artifact can never break CI.

Usage::

    python benchmarks/perf_history.py record \
        --smoke results-smoke/BENCH_smoke.json \
        --history results-smoke/BENCH_history.jsonl
    python benchmarks/perf_history.py trend \
        --history results-smoke/BENCH_history.jsonl
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import subprocess
import time

SCHEMA = "omp4py-bench-history/1"

#: Regressions beyond this ratio vs the previous entry get flagged in
#: the trend table (same noise floor as smoke_delta).
NOISE_FLOOR = 0.10

#: The cold-path layer (``reproduce.measure_cold_path``): top-level
#: smoke fields copied into the ledger row, not per-kernel walls.
COLD_PATH_FIELDS = ("transform_ms", "fleet_ready_s")


def resolve_sha() -> str:
    """The commit under test: CI env first, then git, then unknown."""
    sha = os.environ.get("GITHUB_SHA")
    if sha:
        return sha
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=10,
            cwd=os.path.dirname(os.path.abspath(__file__)))
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def entry_from_smoke(payload: dict, *, sha: str | None = None,
                     time_unix: float | None = None) -> dict:
    """One ledger entry from a ``BENCH_smoke.json`` payload."""
    entry = {
        "schema": SCHEMA,
        "sha": sha if sha is not None else resolve_sha(),
        "time_unix": time_unix if time_unix is not None else time.time(),
        "backend": payload.get("backend", "gil"),
        "python": payload.get("python"),
        "total_wall_s": payload.get("total_wall_s"),
        "kernels": {record["kernel"]: record["wall_s"]
                    for record in payload.get("kernels", [])
                    if record.get("wall_s") is not None},
    }
    for field in COLD_PATH_FIELDS:  # absent in smoke files before PR 14
        if payload.get(field) is not None:
            entry[field] = payload[field]
    return entry


def append_entry(path, entry: dict) -> None:
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(entry) + "\n")


def load_history(path) -> list[dict]:
    """All well-formed ledger entries, in file (chronological) order."""
    path = pathlib.Path(path)
    if not path.exists():
        return []
    entries = []
    for line in path.read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        try:
            entry = json.loads(line)
        except ValueError:
            continue
        if isinstance(entry, dict) and entry.get("schema") == SCHEMA:
            entries.append(entry)
    return entries


def record_smoke(smoke_path, history_path, seed_path=None) -> dict:
    """Append the smoke summary at ``smoke_path`` to the ledger.

    When ``history_path`` does not exist yet and ``seed_path`` (the
    committed ledger) does, the seed is copied first so a fresh CI
    workspace still has history to trend against.
    """
    history_path = pathlib.Path(history_path)
    if not history_path.exists() and seed_path is not None:
        seed = pathlib.Path(seed_path)
        if seed.exists():
            history_path.parent.mkdir(parents=True, exist_ok=True)
            history_path.write_text(seed.read_text(encoding="utf-8"),
                                    encoding="utf-8")
    payload = json.loads(
        pathlib.Path(smoke_path).read_text(encoding="utf-8"))
    entry = entry_from_smoke(payload)
    append_entry(history_path, entry)
    return entry


def format_trend(history: list[dict], backend: str | None = None) -> str:
    """Markdown best/last/delta table over the ledger."""
    lines = ["### Perf ledger (BENCH_history.jsonl)", ""]
    if not history:
        lines.append("_Empty ledger — nothing recorded yet._")
        return "\n".join(lines) + "\n"
    if backend is None:
        backend = history[-1].get("backend", "gil")
    same = [entry for entry in history
            if entry.get("backend", "gil") == backend]
    if not same:
        lines.append(f"_No entries for backend `{backend}`._")
        return "\n".join(lines) + "\n"
    last = same[-1]
    previous = same[-2] if len(same) > 1 else None
    lines += [
        f"{len(same)} run(s) on backend `{backend}`; latest "
        f"`{str(last.get('sha', '?'))[:12]}`. Cross-machine numbers; "
        f"informational only.",
        "",
        "| kernel | best [s] | prev [s] | last [s] | vs prev |",
        "|---|---|---|---|---|",
    ]
    kernels = sorted({name for entry in same
                      for name in entry.get("kernels", {})})
    for kernel in kernels:
        walls = [entry["kernels"][kernel] for entry in same
                 if kernel in entry.get("kernels", {})]
        best = min(walls)
        current = last.get("kernels", {}).get(kernel)
        prior = (previous or {}).get("kernels", {}).get(kernel)
        best_text = f"{best:.3f}"
        prev_text = f"{prior:.3f}" if prior is not None else "—"
        if current is None:
            lines.append(f"| {kernel} | {best_text} | {prev_text} "
                         f"| — | _gone_ |")
            continue
        if prior:
            ratio = (current - prior) / prior
            flag = ("🔺" if ratio > NOISE_FLOOR
                    else "🟢" if ratio < -NOISE_FLOOR else "~")
            delta = f"{ratio * 100:+.1f}% {flag}"
        else:
            delta = "_new_"
        lines.append(f"| {kernel} | {best_text} | {prev_text} | "
                     f"{current:.3f} | {delta} |")
    totals = [entry.get("total_wall_s") for entry in same
              if entry.get("total_wall_s")]
    if totals and last.get("total_wall_s"):
        lines += ["", f"**Total**: best {min(totals):.3f}s, last "
                      f"{last['total_wall_s']:.3f}s"]
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    record = sub.add_parser("record",
                            help="append a smoke summary to the ledger")
    record.add_argument("--smoke", required=True,
                        help="BENCH_smoke.json to record")
    record.add_argument("--history", required=True,
                        help="BENCH_history.jsonl ledger path")
    record.add_argument("--seed", default=None,
                        help="committed ledger to copy when --history "
                             "does not exist yet")

    trend = sub.add_parser("trend", help="print the markdown trend")
    trend.add_argument("--history", required=True)
    trend.add_argument("--backend", default=None,
                       help="restrict to one backend (default: the "
                            "latest entry's)")

    args = parser.parse_args(argv)
    if args.command == "record":
        entry = record_smoke(args.smoke, args.history,
                             seed_path=args.seed)
        print(f"[perf-history] recorded {entry['sha'][:12]} "
              f"({entry['backend']}, total "
              f"{entry['total_wall_s']:.3f}s) -> {args.history}")
        return 0
    print(format_trend(load_history(args.history),
                       backend=args.backend))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
