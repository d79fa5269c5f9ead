"""Tests of the typed NumPy-kernel lowering (CompiledDT)."""

import ast

import numpy as np
import pytest

from repro import Mode, transform
from repro.compiler.vectorize import VectorizePass
from repro.transform.context import TransformContext


def vectorize_source(source: str):
    """Run only the vectorizer over plain source; return (pass, code)."""
    tree = ast.parse(source)
    ctx = TransformContext("__omp0__", set(), set())
    vectorizer = VectorizePass(ctx)
    node = vectorizer.run(tree.body[0])
    module = ast.Module(body=[node], type_ignores=[])
    ast.fix_missing_locations(module)
    return vectorizer, module


def execute(module, name, *args):
    from repro.cruntime import kernels
    from repro.compiler.vectorize import KERNEL_HANDLE
    namespace = {KERNEL_HANDLE: kernels, "math": __import__("math")}
    exec(compile(module, "<vec>", "exec"), namespace)
    return namespace[name](*args)


class TestVectorizesSimpleLoops:
    def test_sum_reduction(self):
        vectorizer, module = vectorize_source(
            "def f(n):\n"
            "    total: float = 0.0\n"
            "    for i in range(n):\n"
            "        total += i * 2.0\n"
            "    return total\n")
        assert any(outcome == "vectorized"
                   for _line, outcome in vectorizer.report)
        assert execute(module, "f", 100) == sum(i * 2.0 for i in range(100))

    def test_pi_kernel_matches_interpreted(self):
        source = (
            "def f(n):\n"
            "    w: float = 1.0 / n\n"
            "    total: float = 0.0\n"
            "    for i in range(n):\n"
            "        local = (i + 0.5) * w\n"
            "        total += 4.0 / (1.0 + local * local)\n"
            "    return total * w\n")
        _vec, module = vectorize_source(source)
        plain: dict = {}
        exec(source, plain)
        assert execute(module, "f", 1000) == pytest.approx(
            plain["f"](1000), rel=1e-12)

    def test_subtraction_reduction(self):
        source = (
            "def f(n):\n"
            "    total: float = 100.0\n"
            "    for i in range(n):\n"
            "        total -= 0.5\n"
            "    return total\n")
        _vec, module = vectorize_source(source)
        assert execute(module, "f", 10) == pytest.approx(95.0)

    def test_product_reduction(self):
        source = (
            "def f(n):\n"
            "    total: float = 1.0\n"
            "    for i in range(1, n):\n"
            "        total *= 1.0 + 1.0 / i\n"
            "    return total\n")
        _vec, module = vectorize_source(source)
        plain: dict = {}
        exec(source, plain)
        assert execute(module, "f", 20) == pytest.approx(plain["f"](20))

    def test_min_max_pattern(self):
        source = (
            "def f(n):\n"
            "    low: float = 1e9\n"
            "    high: float = -1e9\n"
            "    for i in range(n):\n"
            "        v = (i * 7919) % 1000 + 0.5\n"
            "        low = min(low, v)\n"
            "        high = max(high, v)\n"
            "    return low, high\n")
        vectorizer, module = vectorize_source(source)
        plain: dict = {}
        exec(source, plain)
        assert execute(module, "f", 500) == plain["f"](500)

    def test_empty_range(self):
        source = (
            "def f(n):\n"
            "    total: float = 3.0\n"
            "    for i in range(n):\n"
            "        total += 1.0\n"
            "    return total\n")
        _vec, module = vectorize_source(source)
        assert execute(module, "f", 0) == 3.0

    def test_step_range(self):
        source = (
            "def f(n):\n"
            "    total: int = 0\n"
            "    for i in range(0, n, 3):\n"
            "        total += i\n"
            "    return total\n")
        _vec, module = vectorize_source(source)
        assert execute(module, "f", 100) == sum(range(0, 100, 3))

    def test_math_functions(self):
        source = (
            "import math\n"
            "def f(n):\n"
            "    total: float = 0.0\n"
            "    for i in range(1, n):\n"
            "        total += math.sqrt(i) + math.sin(i) * math.cos(i)\n"
            "    return total\n")
        tree = ast.parse(source)
        ctx = TransformContext("__omp0__", set(), set())
        node = VectorizePass(ctx).run(tree.body[1])
        module = ast.Module(body=[node], type_ignores=[])
        ast.fix_missing_locations(module)
        plain: dict = {}
        exec(source, plain)
        assert execute(module, "f", 50) == pytest.approx(plain["f"](50))

    def test_conditional_expression_becomes_where(self):
        source = (
            "def f(n):\n"
            "    total: float = 0.0\n"
            "    for i in range(n):\n"
            "        total += 1.0 if i % 2 == 0 else -1.0\n"
            "    return total\n")
        _vec, module = vectorize_source(source)
        plain: dict = {}
        exec(source, plain)
        assert execute(module, "f", 11) == plain["f"](11)

    def test_array_store_elementwise(self):
        source = (
            "def f(out, n):\n"
            "    w: float = 2.0\n"
            "    for i in range(n):\n"
            "        out[i] = i * w\n"
            "    return out\n")
        _vec, module = vectorize_source(source)
        result = execute(module, "f", np.zeros(10), 10)
        assert list(result) == [i * 2.0 for i in range(10)]

    def test_array_gather_load(self):
        source = (
            "def f(a, b, n):\n"
            "    total: float = 0.0\n"
            "    for i in range(n):\n"
            "        total += a[i] * b[n - 1 - i]\n"
            "    return total\n")
        _vec, module = vectorize_source(source)
        a = np.arange(10.0)
        b = np.arange(10.0) * 3
        expected = sum(a[i] * b[9 - i] for i in range(10))
        assert execute(module, "f", a, b, 10) == pytest.approx(expected)

    def test_elementwise_update_same_index_allowed(self):
        source = (
            "def f(a, n):\n"
            "    c: float = 3.0\n"
            "    for i in range(n):\n"
            "        a[i] = a[i] * c\n"
            "    return a\n")
        vectorizer, module = vectorize_source(source)
        assert any(o == "vectorized" for _l, o in vectorizer.report)
        result = execute(module, "f", np.ones(5), 5)
        assert list(result) == [3.0] * 5


class TestRejections:
    def reject_reason(self, source):
        vectorizer, _module = vectorize_source(source)
        reasons = [o for _l, o in vectorizer.report if o != "vectorized"]
        assert reasons, "expected a fallback"
        return reasons[0]

    def test_untyped_scalar_rejected(self):
        reason = self.reject_reason(
            "def f(n, w):\n"
            "    total: float = 0.0\n"
            "    for i in range(n):\n"
            "        total += i * w\n"
            "    return total\n")
        assert "untyped" in reason

    def test_loop_carried_recurrence_rejected(self):
        reason = self.reject_reason(
            "def f(n):\n"
            "    x: float = 1.0\n"
            "    q: float = 0.5\n"
            "    for i in range(n):\n"
            "        x = x * q\n"
            "    return x\n")
        assert "loop-carried" in reason

    def test_shifted_store_load_overlap_rejected(self):
        reason = self.reject_reason(
            "def f(a, n):\n"
            "    c: float = 1.0\n"
            "    for i in range(1, n):\n"
            "        a[i] = a[i - 1] * c\n"
            "    return a\n")
        assert "aliases" in reason or "one-to-one" in reason \
            or "loop-carried" in reason

    def test_statement_with_side_effects_rejected(self):
        reason = self.reject_reason(
            "def f(n):\n"
            "    total: float = 0.0\n"
            "    for i in range(n):\n"
            "        print(i)\n"
            "        total += i\n"
            "    return total\n")
        assert "unsupported statement" in reason

    def test_unknown_call_rejected(self):
        reason = self.reject_reason(
            "def f(n):\n"
            "    total: float = 0.0\n"
            "    for i in range(n):\n"
            "        total += hash(i)\n"
            "    return total\n")
        assert "not a recognised" in reason

    def test_store_index_not_injective_rejected(self):
        reason = self.reject_reason(
            "def f(a, n):\n"
            "    c: float = 1.0\n"
            "    for i in range(n):\n"
            "        a[i % 3] = i * c\n"
            "    return a\n")
        assert "one-to-one" in reason

    def test_nested_loop_not_vectorized_but_inner_is(self):
        source = (
            "def f(a, n):\n"
            "    total: float = 0.0\n"
            "    for i in range(n):\n"
            "        row = 0.0\n"
            "        for j in range(n):\n"
            "            row += a[i][j]\n"
            "        total += row\n"
            "    return total\n")
        vectorizer, module = vectorize_source(source)
        outcomes = [o for _l, o in vectorizer.report]
        assert "vectorized" in outcomes  # the inner loop
        matrix = [[float(i * 10 + j) for j in range(4)] for i in range(4)]
        expected = sum(sum(row) for row in matrix)
        assert execute(module, "f", matrix, 4) == pytest.approx(expected)


class TestModeIntegration:
    def test_compileddt_results_match_other_modes(self):
        fn_dt = transform(_pi_typed, Mode.COMPILED_DT)
        fn_py = transform(_pi_typed, Mode.HYBRID)
        assert fn_dt(20000) == pytest.approx(fn_py(20000), rel=1e-12)

    def test_compiled_mode_skips_vectorizer(self):
        fn = transform(_pi_typed, Mode.COMPILED)
        source = fn.__omp_source__
        assert "__omp_k__" not in source

    def test_compileddt_emits_kernel(self):
        fn = transform(_pi_typed, Mode.COMPILED_DT)
        assert "__omp_k__" in fn.__omp_source__


def _pi_typed(n):
    from repro import omp
    w: float = 1.0 / n
    total: float = 0.0
    with omp("parallel for reduction(+:total) num_threads(2)"):
        for i in range(n):
            x = (i + 0.5) * w
            total += 4.0 / (1.0 + x * x)
    return total * w
