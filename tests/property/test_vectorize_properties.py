"""Property tests: lowered kernels compute exactly what the interpreted
loops compute, over randomized expressions and data — on the C tier
and on the NumPy tier (:mod:`tests.tiers`)."""

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from tests.tiers import lower_each


def build_and_run(source: str, name: str, *args, index: int = 0):
    """Yield (tier, interpreted result, lowered result, outcomes) for
    every lowering tier this machine has."""
    *lowerings, reference = lower_each(source, index)
    interpreted = reference(name, *[_copy(a) for a in args])
    for lowered in lowerings:
        assert lowered.took_a_loop(), (lowered.tier, lowered.report)
        yield interpreted, lowered(name, *[_copy(a) for a in args])


def _copy(value):
    if isinstance(value, np.ndarray):
        return value.copy()
    if isinstance(value, list):
        return list(value)
    return value


@st.composite
def polynomial_bodies(draw):
    """Random straight-line numeric loop bodies over i and three typed
    scalars, with the scalars' values.  The values are arguments, not
    literals, so that the twelve shapes are twelve C kernels however
    many examples run."""
    values = (draw(st.floats(-4, 4, allow_nan=False)),
              draw(st.floats(-4, 4, allow_nan=False)),
              draw(st.floats(0.5, 4, allow_nan=False)))
    power = draw(st.integers(1, 3))
    expr = f"(c * i ** {power} + o) / d"
    if draw(st.booleans()):
        expr = f"abs({expr})"
    if draw(st.booleans()):
        expr = f"({expr}) if i % 2 == 0 else -({expr})"
    return expr, values


class TestExpressionEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(body=polynomial_bodies(), n=st.integers(0, 60))
    def test_sum_reduction_equivalence(self, body, n):
        expr, values = body
        source = (
            "def f(n, c: float, o: float, d: float):\n"
            "    total: float = 0.0\n"
            "    for i in range(n):\n"
            f"        total += {expr}\n"
            "    return total\n")
        for interpreted, lowered in build_and_run(source, "f", n, *values):
            assert lowered == pytest.approx(interpreted, rel=1e-9,
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
        for interpreted, lowered in build_and_run(
                source, "f", np.zeros(len(data)), arr, scale, len(data)):
            np.testing.assert_allclose(lowered, interpreted)

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
        for interpreted, lowered in build_and_run(
                source, "f", arr, len(data)):
            assert lowered == interpreted

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
        for interpreted, lowered in build_and_run(
                source, "f", start, start + n, step):
            assert lowered == interpreted

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
        for interpreted, lowered in build_and_run(
                source, "f", np.array(data), len(data), index=1):
            assert lowered == pytest.approx(interpreted, rel=1e-12)
