"""Additional lowering coverage: parameter annotations, inferred
types, scatter in a worksharing loop, bitwise reductions, casts, and
diagnostics.  Value tests run on every tier of :mod:`tests.tiers`."""

import ast

import numpy as np
import pytest

from repro import Mode, transform
from repro.compiler.vectorize import VectorizePass, _collect_annotations
from repro.cruntime.native import find_compiler
from repro.transform.context import TransformContext

from tests.tiers import lower_each


def run_pass(source: str, index: int = 0):
    """The pass without a target over plain source: (pass, namespace)."""
    tree = ast.parse(source)
    ctx = TransformContext("__omp0__", set(), set())
    vectorizer = VectorizePass(ctx)
    node = vectorizer.run(tree.body[index])
    module = ast.Module(body=[node], type_ignores=[])
    ast.fix_missing_locations(module)
    namespace = {"math": __import__("math")}
    exec(compile(module, "<vec>", "exec"), namespace)
    return vectorizer, namespace


class TestParameterAnnotations:
    def test_signature_types_feed_inference(self):
        for lowered in lower_each(
                "def f(s: float, n: int):\n"
                "    total: float = 0.0\n"
                "    for i in range(n):\n"
                "        total += i * s\n"
                "    return total\n"):
            assert lowered.took_a_loop()
            assert lowered("f", 0.5, 10) == sum(i * 0.5 for i in range(10))


class TestInferredTypes:
    """A name assigned only literals is typed by the join of what flows
    into it, not by its first literal."""

    FLOATS = (
        "def f(x, n):\n"
        "    total = 0\n"
        "    for i in range(n):\n"
        "        total += x[i] * 0.5\n"
        "    return total\n")
    INTS = (
        "def f(x, n):\n"
        "    count = 0\n"
        "    for i in range(n):\n"
        "        count += 1 if x[i] > 1.0 else 0\n"
        "    return count\n")

    def labels(self, source):
        return _collect_annotations(ast.parse(source).body[0])

    def test_int_literal_accumulating_floats_is_a_float(self):
        # Typed ``int``, ``total`` would be a C long: a truncation of
        # every term.
        assert self.labels(self.FLOATS)["total"] == "float"
        x = np.array([0.5, 1.5, 2.5, 3.25])
        for lowered in lower_each(self.FLOATS):
            assert lowered.took_a_loop()
            result = lowered("f", x, 4)
            assert result == pytest.approx(3.875)
            assert isinstance(result, float)

    def test_int_literal_accumulating_ints_stays_integral(self):
        assert self.labels(self.INTS)["count"] == "int"
        x = np.array([0.5, 1.5, 2.5, 3.25])
        for lowered in lower_each(self.INTS):
            assert lowered.took_a_loop()
            result = lowered("f", x, 4)
            assert result == 3
            assert isinstance(result, (int, np.integer))

    def test_the_join_reaches_a_fixed_point(self):
        labels = self.labels(
            "def f(n):\n"
            "    a = 0\n"
            "    b = 0\n"
            "    c = 0\n"
            "    for i in range(n):\n"
            "        c += i // 2\n"
            "        b += a\n"      # float only once ``a`` is known to be
            "        a += i / 2\n"
            "    return a, b, c\n")
        assert (labels["a"], labels["b"], labels["c"]) \
            == ("float", "float", "int")

    def test_int_and_float_literals_join_to_float(self):
        assert self.labels(
            "def f(n):\n"
            "    x = 0\n"
            "    x = 0.5\n"
            "    return x\n")["x"] == "float"


class TestBitwiseReductions:
    @pytest.mark.parametrize("op,pyop", [("|", "or_"), ("&", "and_"),
                                         ("^", "xor")])
    def test_bitwise(self, op, pyop):
        import operator
        fold = getattr(operator, pyop)
        expected = 0 if op != "&" else 0xffff
        for i in range(20):
            expected = fold(expected, i * 3 + 1)
        for lowered in lower_each(
                "def f(n):\n"
                f"    acc: int = {0 if op != '&' else 0xffff}\n"
                "    for i in range(n):\n"
                f"        acc {op}= i * 3 + 1\n"
                "    return acc\n"):
            assert lowered.took_a_loop()
            assert lowered("f", 20) == expected


class TestCasts:
    def test_int_cast_truncates(self):
        for lowered in lower_each(
                "def f(n):\n"
                "    acc: int = 0\n"
                "    for i in range(n):\n"
                "        acc += int(i * 0.7) - int(i * -0.7)\n"
                "    return acc\n"):
            assert lowered.took_a_loop()
            assert lowered("f", 15) == sum(
                int(i * 0.7) - int(i * -0.7) for i in range(15))

    def test_float_cast(self):
        for lowered in lower_each(
                "def f(n):\n"
                "    acc: float = 0.0\n"
                "    for i in range(n):\n"
                "        acc += float(i) / 2\n"
                "    return acc\n"):
            assert lowered("f", 9) == sum(i / 2 for i in range(9))


class TestScatterUnderWsContract:
    def test_permutation_store_in_chunk_loop(self):
        """A permuted scatter has a C form in a sequential loop and in a
        worksharing chunk loop alike: the kernel stores in the loop's
        own order."""
        vectorizer, _ns = run_pass(
            "def f(out, n):\n"
            "    c: int = 1\n"
            "    for i in range(n):\n"
            "        out[(i * 7) % n] = i * c\n"
            "    return out\n")
        assert vectorizer.report == [(3, "pending")]

        fn = transform(_scatter_ws, Mode.COMPILED_DT)
        assert len(fn.__omp_native__) == (1 if find_compiler()[0] else 0)
        n = 16
        out = fn(np.zeros(n), n, 2)
        expected = np.zeros(n)
        for i in range(n):
            expected[(i * 7) % n] = float(i)
        np.testing.assert_allclose(out, expected)


def _scatter_ws(out, n: int, threads):
    c: float = 1.0
    with omp("parallel for num_threads(threads)"):  # noqa: F821
        for i in range(n):
            out[(i * 7) % n] = i * c
    return out


class TestDiagnostics:
    def test_report_lists_line_numbers(self):
        vectorizer, _ns = run_pass(
            "def f(n):\n"
            "    total: float = 0.0\n"
            "    for i in range(n):\n"
            "        total += hash(i)\n"
            "    return total\n")
        assert vectorizer.report
        line, outcome = vectorizer.report[0]
        assert line == 3
        assert outcome.startswith("not native: ")

    def test_debug_prints(self, capsys):
        tree = ast.parse(
            "def f(n):\n"
            "    total: float = 0.0\n"
            "    for i in range(n):\n"
            "        total += hash(i)\n"
            "    return total\n")
        ctx = TransformContext("__omp0__", set(), set())
        VectorizePass(ctx, debug=True).run(tree.body[0])
        assert "[omp4py:native] line 3: call target is not a recognised" \
            in capsys.readouterr().out
