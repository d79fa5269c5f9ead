"""Shape tests: the qualitative claims of the paper's evaluation hold
in the projected measurements (who wins, and roughly by how much).

Every compared number is the best of at least three single-shot
measurements, the compared points alternating within a round.  This
host has slow phases that outlast three rounds (a single shot failed
about one run in five), so while a comparison does not hold yet the
rounds go on, spaced out, up to a bound: noise passes in the first calm
window, a real regression fails every round.
"""

import time

import pytest

from repro.analysis.runner import run_point, run_pyomp_point, sweep
from repro.analysis.timing import measure
from repro.apps import get_app
from repro.cruntime.native import find_compiler
from repro.decorator import transform
from repro.modes import Mode

#: CompiledDT outruns Pure through its C kernels only; without a
#: compiler its typed loops run as Compiled code.
_needs_compiler = pytest.mark.skipif(
    find_compiler()[0] is None,
    reason="no C compiler: CompiledDT runs as Compiled")


def _best_of_rounds(points: dict, holds, *, key=lambda value: value,
                    rounds: int = 3, extra_rounds: int = 6) -> dict:
    """Best (lowest ``key``) measurement per point; asserts ``holds``.

    ``points`` maps a name to a callable measuring it once.
    """
    best: dict = {}
    for index in range(rounds + extra_rounds):
        for name, measure_once in points.items():
            measured = measure_once()
            best[name] = min(best.get(name, measured), measured, key=key)
        if index + 1 >= rounds:
            if holds(best):
                return best
            time.sleep(0.25)
    assert holds(best), best
    return best


class TestModeOrdering:
    """Paper Section IV-A / artifact appendix: the expected performance
    ordering is CompiledDT fastest, Pure slowest."""

    @_needs_compiler
    def test_compileddt_beats_pure_on_pi(self):
        spec = get_app("pi")
        # Paper: up to three orders of magnitude; insist on >= 5x even
        # at this compact problem size.
        _best_of_rounds(
            {mode: lambda mode=mode: run_point(spec, mode, 2,
                                               "default").wall
             for mode in (Mode.PURE, Mode.COMPILED_DT)},
            lambda wall: wall[Mode.COMPILED_DT] * 5 < wall[Mode.PURE])

    def test_pyomp_close_to_compileddt_on_pi(self):
        spec = get_app("pi")
        reference = spec.sequential(**spec.inputs("default"))
        baseline = run_pyomp_point(spec, 2, "default",
                                   reference=reference)
        assert baseline.error is None and baseline.verified
        # Paper: within ~5%; allow a generous factor-2 band for noise.
        _best_of_rounds(
            {"dt": lambda: run_point(spec, Mode.COMPILED_DT, 2,
                                     "default").wall,
             "pyomp": lambda: run_pyomp_point(spec, 2, "default").wall},
            lambda wall: wall["pyomp"] < wall["dt"] * 2
            and wall["dt"] < wall["pyomp"] * 2)

    def test_nonnumerical_modes_are_similar(self):
        """Fig. 6's shape: no mode wins big on wordcount."""
        spec = get_app("wordcount")
        _best_of_rounds(
            {mode: lambda mode=mode: run_point(spec, mode, 2,
                                               "default").wall
             for mode in (Mode.PURE, Mode.COMPILED_DT)},
            lambda wall: 0.4 < wall[Mode.PURE] / wall[Mode.COMPILED_DT]
            < 2.5)


class TestProjectionScaling:
    """The projected (no-GIL) times must scale with threads, which is
    what Fig. 5's curves show."""

    @pytest.mark.parametrize("app", ["pi", "jacobi"])
    def test_projected_time_drops_with_threads(self, app):
        spec = get_app(app)
        _best_of_rounds(
            {threads: lambda threads=threads: run_point(
                spec, Mode.HYBRID, threads, "default").projected
             for threads in (1, 4)},
            lambda projected: projected[4] < projected[1] * 0.45)

    def test_wall_time_does_not_scale_under_gil(self):
        """Sanity check of the projection's premise on this hardware:
        measured wall time shows no speedup (documenting exactly why
        the projection column exists)."""
        spec = get_app("pi")
        points = {p.threads: p for p in sweep(
            spec, [1, 4], profile="default", modes=[Mode.PURE],
            include_pyomp=False, verify=False)}
        import os
        if (os.cpu_count() or 1) == 1:
            assert points[4].wall > points[1].wall * 0.7


class TestLoadBalanceShapes:
    """Fig. 7's core claim: dynamic scheduling beats static under load
    imbalance (here: a triangular workload)."""

    def test_dynamic_has_shorter_critical_path_than_static(self):
        # A large triangle: with 4 threads, unchunked static gives the
        # last thread ~44% of the work, while dynamic,8 balances to
        # ~25% + handout overhead.  Needs enough work (~100ms) for
        # per-thread CPU attribution to dominate GIL-quantum noise.
        fn = transform(_triangular, Mode.HYBRID)
        # Identical total work, but dynamic spreads the triangle across
        # the team.
        _best_of_rounds(
            {kind: lambda kind=kind: measure(fn, 2200, kind, 4)
             for kind in ("static", "dynamic")},
            lambda best: best["static"].serialized_cpu == pytest.approx(
                best["dynamic"].serialized_cpu, rel=0.35)
            and best["dynamic"].critical_cpu
            < best["static"].critical_cpu * 0.8,
            key=lambda measured: measured.critical_cpu)


def _triangular(n, kind, threads):
    from repro import omp
    total = 0
    if kind == "static":
        with omp("parallel for schedule(static) num_threads(threads) "
                 "reduction(+:total)"):
            for i in range(n):
                for j in range(i):
                    total += j
    else:
        with omp("parallel for schedule(dynamic, 8) "
                 "num_threads(threads) reduction(+:total)"):
            for i in range(n):
                for j in range(i):
                    total += j
    return total
