"""Tests of the typed loop lowering (CompiledDT).

Every value test runs its loop on the tiers of :mod:`tests.tiers` — C
kernels, the interpreted source — and has to agree across them; the
rejection tests are about what has no C form, which the pass reports
and leaves interpreted.
"""

import ast

import numpy as np
import pytest

from repro import Mode, transform
from repro.compiler.vectorize import VectorizePass
from repro.cruntime.native import find_compiler
from repro.transform.context import TransformContext

from tests.tiers import compiler_or_skip, lower, lower_each


def vectorize_source(source: str):
    """Run the pass without a target over plain source: it lowers
    nothing and reports per loop.  Returns (pass, code)."""
    tree = ast.parse(source)
    ctx = TransformContext("__omp0__", set(), set())
    vectorizer = VectorizePass(ctx)
    node = vectorizer.run(tree.body[0])
    module = ast.Module(body=[node], type_ignores=[])
    ast.fix_missing_locations(module)
    return vectorizer, module


def interpreted(source: str, name: str, *args):
    plain: dict = {}
    exec(source, plain)
    return plain[name](*args)


class TestVectorizesSimpleLoops:
    """Each test runs its loop on every tier and checks them alike."""

    def test_sum_reduction(self):
        for lowered in lower_each(
                "def f(n):\n"
                "    total: float = 0.0\n"
                "    for i in range(n):\n"
                "        total += i * 2.0\n"
                "    return total\n"):
            assert lowered.took_a_loop()
            assert lowered("f", 100) == sum(i * 2.0 for i in range(100))

    def test_pi_kernel_matches_interpreted(self):
        source = (
            "def f(n):\n"
            "    w: float = 1.0 / n\n"
            "    total: float = 0.0\n"
            "    for i in range(n):\n"
            "        local = (i + 0.5) * w\n"
            "        total += 4.0 / (1.0 + local * local)\n"
            "    return total * w\n")
        for lowered in lower_each(source):
            assert lowered("f", 1000) == pytest.approx(
                interpreted(source, "f", 1000), rel=1e-12)

    def test_subtraction_reduction(self):
        for lowered in lower_each(
                "def f(n):\n"
                "    total: float = 100.0\n"
                "    for i in range(n):\n"
                "        total -= 0.5\n"
                "    return total\n"):
            assert lowered("f", 10) == pytest.approx(95.0)

    def test_product_reduction(self):
        source = (
            "def f(n):\n"
            "    total: float = 1.0\n"
            "    for i in range(1, n):\n"
            "        total *= 1.0 + 1.0 / i\n"
            "    return total\n")
        for lowered in lower_each(source):
            assert lowered("f", 20) == pytest.approx(
                interpreted(source, "f", 20))

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
        for lowered in lower_each(source):
            assert lowered("f", 500) == interpreted(source, "f", 500)

    def test_empty_range(self):
        for lowered in lower_each(
                "def f(n):\n"
                "    total: float = 3.0\n"
                "    for i in range(n):\n"
                "        total += 1.0\n"
                "    return total\n"):
            assert lowered("f", 0) == 3.0

    def test_step_range(self):
        for lowered in lower_each(
                "def f(lo, hi, step):\n"
                "    total: int = 0\n"
                "    for i in range(lo, hi, step):\n"
                "        total += i\n"
                "    return total\n"):
            for bounds in ((0, 100, 3), (100, 0, -7), (5, 5, 2),
                           (3, -4, 1)):
                result = lowered("f", *bounds)
                assert result == sum(range(*bounds))
                assert isinstance(result, (int, np.integer))

    def test_math_functions(self):
        source = (
            "import math\n"
            "def f(n):\n"
            "    total: float = 0.0\n"
            "    for i in range(1, n):\n"
            "        total += math.sqrt(i) + math.sin(i) * math.cos(i)\n"
            "    return total\n")
        for lowered in lower_each(source, index=1):
            assert lowered("f", 50) == pytest.approx(
                interpreted(source, "f", 50))

    def test_conditional_expression_becomes_where(self):
        source = (
            "def f(n):\n"
            "    total: float = 0.0\n"
            "    for i in range(n):\n"
            "        total += 1.0 if i % 2 == 0 else -1.0\n"
            "    return total\n")
        for lowered in lower_each(source):
            assert lowered("f", 11) == interpreted(source, "f", 11)

    def test_array_store_elementwise(self):
        for lowered in lower_each(
                "def f(out, n):\n"
                "    w: float = 2.0\n"
                "    for i in range(n):\n"
                "        out[i] = i * w\n"
                "    return out\n"):
            result = lowered("f", np.zeros(10), 10)
            assert list(result) == [i * 2.0 for i in range(10)]

    def test_array_gather_load(self):
        a = np.arange(10.0)
        b = np.arange(10.0) * 3
        expected = sum(a[i] * b[9 - i] for i in range(10))
        for lowered in lower_each(
                "def f(a, b, n):\n"
                "    total: float = 0.0\n"
                "    for i in range(n):\n"
                "        total += a[i] * b[n - 1 - i]\n"
                "    return total\n"):
            assert lowered("f", a, b, 10) == pytest.approx(expected)

    def test_elementwise_update_same_index_allowed(self):
        for lowered in lower_each(
                "def f(a, n):\n"
                "    c: float = 3.0\n"
                "    for i in range(n):\n"
                "        a[i] = a[i] * c\n"
                "    return a\n"):
            assert lowered.took_a_loop()
            assert list(lowered("f", np.ones(5), 5)) == [3.0] * 5

    def test_nested_loops(self):
        matrix = np.array([[float(i * 10 + j) for j in range(4)]
                           for i in range(4)])
        for lowered in lower_each(
                "def f(a, n):\n"
                "    total: float = 0.0\n"
                "    for i in range(n):\n"
                "        row = 0.0\n"
                "        for j in range(n):\n"
                "            row += a[i][j]\n"
                "        total += row\n"
                "    return total\n"):
            assert lowered.took_a_loop()  # the nest is one C function
            assert lowered("f", matrix, 4) == pytest.approx(matrix.sum())
            # A list of rows is not what the kernel was typed for: the
            # guard branch (the loop as written) has it.
            assert lowered("f", matrix.tolist(), 4) == pytest.approx(
                matrix.sum())


class TestRejections:
    """What has no C form is reported and left as written."""

    def reject_reason(self, source):
        vectorizer, module = vectorize_source(source)
        reasons = [o for _l, o in vectorizer.report
                   if o.startswith("not native: ")]
        assert reasons, "expected a rejection"
        assert vectorizer.pending == 0
        assert ast.unparse(module) == ast.unparse(ast.parse(source))
        return reasons[0]

    def test_untyped_scalar_rejected(self):
        reason = self.reject_reason(
            "def f(n, w):\n"
            "    total: float = 0.0\n"
            "    for i in range(n):\n"
            "        total += i * w\n"
            "    return total\n")
        assert "untyped" in reason

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

    def test_a_nest_is_one_site(self):
        """Without a target the pass only counts the loops that have a C
        form; a nest is one, inner loops included."""
        vectorizer, _module = vectorize_source(
            "def f(a, n):\n"
            "    total: float = 0.0\n"
            "    for i in range(n):\n"
            "        row = 0.0\n"
            "        for j in range(n):\n"
            "            row += a[i][j]\n"
            "        total += row\n"
            "    return total\n")
        assert vectorizer.report == [(3, "pending")]
        assert vectorizer.pending == 1


class TestWhatNumPyRejectsRunsInC:
    """The C back end runs the sequential loop, so what a vectoriser
    must refuse for fear of reordering it — recurrences, shifted and
    colliding stores — compiles, and computes what the interpreter
    does."""

    def check(self, source, *args):
        compiler_or_skip()
        native = lower(source, "native")
        assert native.outcomes[0] == "native"
        expected = interpreted(source, "f", *[_copy(a) for a in args])
        result = native("f", *[_copy(a) for a in args])
        np.testing.assert_array_equal(result, expected)

    def test_recurrence(self):
        self.check(
            "def f(n):\n"
            "    x: float = 1.0\n"
            "    q: float = 0.5\n"
            "    for i in range(n):\n"
            "        x = x * q\n"
            "    return x\n", 9)

    def test_shifted_store(self):
        self.check(
            "def f(a, n):\n"
            "    c: float = 0.5\n"
            "    for i in range(1, n):\n"
            "        a[i] = a[i - 1] * c + a[i]\n"
            "    return a\n", np.arange(1.0, 9.0), 8)

    def test_colliding_store(self):
        self.check(
            "def f(a, n):\n"
            "    c: float = 1.0\n"
            "    for i in range(n):\n"
            "        a[i % 3] = i * c\n"
            "    return a\n", np.zeros(3), 10)


def _copy(value):
    return value.copy() if isinstance(value, (np.ndarray, list)) else value


class TestModeIntegration:
    def test_compileddt_results_match_other_modes(self):
        fn_dt = transform(_pi_typed, Mode.COMPILED_DT)
        fn_py = transform(_pi_typed, Mode.HYBRID)
        assert fn_dt(20000) == pytest.approx(fn_py(20000), rel=1e-12)

    def test_compiled_mode_skips_vectorizer(self):
        fn = transform(_pi_typed, Mode.COMPILED)
        assert fn.__omp_native__ == ()
        assert "__omp_n" not in fn.__omp_source__

    def test_compileddt_emits_kernel(self):
        fn = transform(_pi_typed, Mode.COMPILED_DT)
        if find_compiler()[0]:
            assert len(fn.__omp_native__) == 1
            assert "__omp_n" in fn.__omp_source__
        else:
            assert fn.__omp_native__ == ()

    @pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
    def test_lastprivate_comes_back_from_the_loop(self, mode):
        fn = transform(_last_doubled, mode)
        assert fn(np.arange(10.0), 10) == 18.0
        if mode is Mode.COMPILED_DT and find_compiler()[0]:
            assert len(fn.__omp_native__) == 1


class TestEveryTierAgreesWithTheInterpreter:
    """Each tier returns what the loop as written returns (the order of
    out-of-range stores is ``test_native.py``'s)."""

    def agree(self, source, *args):
        *lowerings, reference = lower_each(source)
        expected = reference("f", *[_copy(a) for a in args])
        for lowered in lowerings:
            result = lowered("f", *[_copy(a) for a in args])
            assert type(result) is type(expected), lowered.tier
            np.testing.assert_array_equal(result, expected)
        return expected

    def test_a_list_store_target(self):
        # Not what a kernel was typed for: the guard branch stores.
        expected = self.agree(
            "def f(out, x, n):\n"
            "    for i in range(n):\n"
            "        out[i] = x[i] * 2.0\n"
            "    return out\n", [0.0] * 5, np.arange(5.0), 5)
        assert expected == [0.0, 2.0, 4.0, 6.0, 8.0]

    def raise_alike(self, error, source, *args):
        """Every tier raises ``error`` and leaves the arrays holding
        what the loop as written stored before it raised."""
        source = "import math\n" + source
        *lowerings, reference = lower_each(source, index=1)
        expected = [_copy(a) for a in args]
        with pytest.raises(error):
            reference("f", *expected)
        for lowered in lowerings:
            assert lowered.outcomes == ["native"]
            stored = [_copy(a) for a in args]
            with pytest.raises(error):
                lowered("f", *stored)
            for got, want in zip(stored, expected):
                np.testing.assert_array_equal(got, want)

    def test_a_python_float_zero_divisor_raises(self):
        self.raise_alike(
            ZeroDivisionError,
            "def f(out, s: float, n: int):\n"
            "    for i in range(n):\n"
            "        out[i] = 1.0 if i < 2 else i / s\n"
            "    return out\n", np.zeros(4), 0.0, 4)

    def test_a_math_domain_error_raises(self):
        self.raise_alike(
            ValueError,
            "def f(out, s: float, n: int):\n"
            "    for i in range(n):\n"
            "        out[i] = math.sqrt(s + 2.0 - i)\n"
            "    return out\n", np.zeros(4), -1.0, 4)

    def test_a_numpy_zero_divisor_is_ieee(self):
        with np.errstate(divide="ignore", invalid="ignore"):
            expected = self.agree(
                "def f(out, x, n: int):\n"
                "    for i in range(n):\n"
                "        out[i] = i / x[i]\n"
                "    return out\n", np.zeros(3), np.array([0.0, 0.0, 2.0]),
                3)
        assert np.isnan(expected[0]) and list(expected[1:]) == [np.inf, 1.0]

    def test_an_integer_to_a_negative_power(self):
        expected = self.agree(
            "def f(a, n):\n"
            "    for i in range(1, n):\n"
            "        a[i] = i ** -1\n"
            "    return a\n", np.zeros(5), 5)
        assert list(expected) == [0.0, 1.0, 0.5, 1 / 3, 0.25]

def _last_doubled(x, n: int):
    from repro import omp
    last: float = 0.0
    with omp("parallel for lastprivate(last) num_threads(2)"):
        for i in range(n):
            last = x[i] * 2.0
    return last


def _pi_typed(n):
    from repro import omp
    w: float = 1.0 / n
    total: float = 0.0
    with omp("parallel for reduction(+:total) num_threads(2)"):
        for i in range(n):
            x = (i + 0.5) * w
            total += 4.0 / (1.0 + x * x)
    return total * w
