"""``python -m repro`` — package banner and quick self-check."""

import sys

import repro


def main() -> None:
    print(f"repro {repro.__version__} — OMP4Py reproduction (CGO 2026)")
    print("  runtimes : runtime + cruntime (one engine, two instances)")
    print(f"  modes    : {', '.join(m.value for m in repro.ALL_MODES)}")
    print(f"  procs    : {repro.omp_get_num_procs()}")
    print()
    print("Quick self-check (pi, 200k intervals, 2 threads):")
    from repro.apps import get_app
    spec = get_app("pi")
    for mode in repro.ALL_MODES:
        value = spec.run(mode, threads=2, profile="test")
        print(f"  {mode.value:<11} -> {value!r}")
    print()
    print("Next steps:")
    print("  python -m repro.analysis.report table1|fig5|fig6|fig7|"
          "fig8|headline|check")
    print("  python -m repro.lint src/repro/apps examples   "
          "# static race detector")
    print("  python examples/main.py <mode> <test> <threads> [profile]")
    print("  pytest tests/ && pytest benchmarks/ --benchmark-only")


if __name__ == "__main__":
    sys.exit(main())
