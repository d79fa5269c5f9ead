"""Projection-validation benchmark: the repro.analysis.validate gate.

Thin driver over :mod:`repro.analysis.validate` in the same shape as
the other ``benchmarks/`` scripts: a CLI with ``--check`` for CI, a
JSON artifact, and ``smoke_failures()`` for ``reproduce.py --smoke`` so
every smoke run prints the projected-vs-measured error table.

On a free-threaded interpreter (or under ``OMP4PY_BACKEND=nogil``)
this is the paper's central comparison: the projection model's output
against truly-parallel measured wall time.  Under a GIL it degrades to
the backend-independent identity checks (see the validate module).

Usage::

    python benchmarks/bench_projection_validation.py [--threads 4]
        [--profile test] [--repeats 3] [--bound 0.25] [--check]
        [--out results] [--summary PATH]
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent
                       / "src"))

from repro.analysis import validate  # noqa: E402


def smoke_failures(threads: int = 2, profile: str = "test",
                   repeats: int = 2) -> list[str]:
    """Entry point for ``reproduce.py --smoke``: a failure for every
    validation row beyond the bound."""
    rows = validate.run_validation(threads=threads, profile=profile,
                                   repeats=repeats)
    failures: list[str] = []
    for row in rows:
        print(f"[reproduce] projection-validate {row.line()}")
        if not row.passed:
            failures.append(
                f"projection-validate {row.app}@{row.threads}thr "
                f"({row.kind}): error {row.error * 100:.1f}% exceeds "
                f"the {row.bound * 100:.0f}% bound")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--apps", default=",".join(validate.SMOKE_APPS))
    parser.add_argument("--threads", type=int, default=4)
    parser.add_argument("--profile", default="test",
                        choices=("test", "default", "paper"))
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--bound", type=float,
                        default=validate.DEFAULT_BOUND)
    parser.add_argument("--check", action="store_true",
                        help="exit 1 when any row exceeds the bound")
    parser.add_argument("--out", default=None, metavar="DIR",
                        help="write bench_projection_validation.json")
    parser.add_argument("--summary", default=None, metavar="PATH",
                        help="write a markdown table (CI step summary)")
    args = parser.parse_args(argv)

    argv_inner = ["--apps", args.apps, "--threads", str(args.threads),
                  "--profile", args.profile,
                  "--repeats", str(args.repeats),
                  "--bound", str(args.bound)]
    if args.check:
        argv_inner.append("--check")
    if args.summary:
        argv_inner += ["--summary", args.summary]
    if args.out:
        out_dir = pathlib.Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        json_path = out_dir / "bench_projection_validation.json"
        argv_inner += ["--json", str(json_path)]
        code = validate.main(argv_inner)
        # Echo the artifact location in the bench idiom.
        if json_path.exists():
            payload = json.loads(json_path.read_text(encoding="utf-8"))
            print(f"[projection-validate] backend={payload['backend']} "
                  f"max_error={payload['max_error'] * 100:.1f}% -> "
                  f"{json_path}")
        return code
    return validate.main(argv_inner)


if __name__ == "__main__":
    raise SystemExit(main())
