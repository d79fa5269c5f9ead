"""Property tests: vectorized kernels compute exactly what the
interpreted loops compute, over randomized expressions and data."""

import ast

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.compiler.vectorize import KERNEL_HANDLE, VectorizePass
from repro.transform.context import TransformContext


def build_and_run(source: str, name: str, *args):
    """Return (interpreted result, vectorized result)."""
    plain: dict = {}
    exec(compile(source, "<plain>", "exec"), plain)
    interpreted = plain[name](*[_copy(a) for a in args])

    tree = ast.parse(source)
    ctx = TransformContext("__omp0__", set(), set())
    vectorizer = VectorizePass(ctx)
    node = vectorizer.run(tree.body[0])
    module = ast.Module(body=[node], type_ignores=[])
    ast.fix_missing_locations(module)
    from repro.cruntime import kernels
    namespace = {KERNEL_HANDLE: kernels, "math": __import__("math")}
    exec(compile(module, "<vec>", "exec"), namespace)
    vectorized = namespace[name](*[_copy(a) for a in args])
    outcomes = [o for _l, o in vectorizer.report]
    return interpreted, vectorized, outcomes


def _copy(value):
    if isinstance(value, np.ndarray):
        return value.copy()
    if isinstance(value, list):
        return list(value)
    return value


@st.composite
def polynomial_bodies(draw):
    """Random straight-line numeric loop bodies over i and a scalar."""
    coefficient = draw(st.floats(-4, 4, allow_nan=False))
    offset = draw(st.floats(-4, 4, allow_nan=False))
    power = draw(st.integers(1, 3))
    divisor = draw(st.floats(0.5, 4, allow_nan=False))
    expr = (f"({coefficient!r} * i ** {power} + {offset!r}) "
            f"/ {divisor!r}")
    if draw(st.booleans()):
        expr = f"abs({expr})"
    if draw(st.booleans()):
        expr = f"({expr}) if i % 2 == 0 else -({expr})"
    return expr


class TestExpressionEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(expr=polynomial_bodies(), n=st.integers(0, 60))
    def test_sum_reduction_equivalence(self, expr, n):
        source = (
            "def f(n):\n"
            "    total: float = 0.0\n"
            "    for i in range(n):\n"
            f"        total += {expr}\n"
            "    return total\n")
        interpreted, vectorized, outcomes = build_and_run(source, "f", n)
        assert "vectorized" in outcomes
        assert vectorized == pytest.approx(interpreted, rel=1e-9,
                                           abs=1e-9)

    @settings(max_examples=30, deadline=None)
    @given(data=st.lists(st.floats(-100, 100, allow_nan=False),
                         min_size=1, max_size=50),
           scale=st.floats(-3, 3, allow_nan=False))
    def test_elementwise_store_equivalence(self, data, scale):
        source = (
            "def f(out, a, s: float, n):\n"
            "    for i in range(n):\n"
            "        out[i] = a[i] * s + i\n"
            "    return out\n")
        arr = np.array(data)
        interpreted, vectorized, outcomes = build_and_run(
            source, "f", np.zeros(len(data)), arr, scale, len(data))
        assert "vectorized" in outcomes
        np.testing.assert_allclose(vectorized, interpreted)

    @settings(max_examples=30, deadline=None)
    @given(data=st.lists(st.floats(-50, 50, allow_nan=False),
                         min_size=2, max_size=40))
    def test_min_max_equivalence(self, data):
        source = (
            "def f(a, n):\n"
            "    low: float = 1e30\n"
            "    high: float = -1e30\n"
            "    for i in range(n):\n"
            "        low = min(low, a[i])\n"
            "        high = max(high, a[i])\n"
            "    return low, high\n")
        arr = np.array(data)
        interpreted, vectorized, outcomes = build_and_run(
            source, "f", arr, len(data))
        assert "vectorized" in outcomes
        assert vectorized == interpreted

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(0, 40), start=st.integers(-20, 20),
           step=st.integers(1, 5))
    def test_strided_ranges(self, n, start, step):
        source = (
            "def f(start, stop, step):\n"
            "    total: int = 0\n"
            "    for i in range(start, stop, step):\n"
            "        total += i * i - i\n"
            "    return total\n")
        interpreted, vectorized, outcomes = build_and_run(
            source, "f", start, start + n, step)
        assert "vectorized" in outcomes
        assert vectorized == interpreted

    @settings(max_examples=25, deadline=None)
    @given(data=st.lists(st.floats(0.1, 100, allow_nan=False),
                         min_size=1, max_size=30))
    def test_math_sqrt_log_equivalence(self, data):
        source = (
            "import math\n"
            "def f(a, n):\n"
            "    total: float = 0.0\n"
            "    for i in range(n):\n"
            "        total += math.sqrt(a[i]) + math.log(a[i])\n"
            "    return total\n")
        plain: dict = {}
        exec(compile(source, "<plain>", "exec"), plain)
        arr = np.array(data)
        interpreted = plain["f"](arr, len(data))

        tree = ast.parse(source)
        ctx = TransformContext("__omp0__", set(), set())
        vectorizer = VectorizePass(ctx)
        node = vectorizer.run(tree.body[1])
        module = ast.Module(body=[node], type_ignores=[])
        ast.fix_missing_locations(module)
        from repro.cruntime import kernels
        namespace = {KERNEL_HANDLE: kernels}
        exec(compile(module, "<vec>", "exec"), namespace)
        assert namespace["f"](arr, len(data)) == pytest.approx(
            interpreted, rel=1e-12)
