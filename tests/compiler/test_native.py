"""The native CompiledDT tier: where C is not Python, and the chunks.

A kernel has to stay *right* where C and Python part ways — subscripts
out of range and negative, floor division and modulo of negative and
zero operands, operands the C text was not typed for — and it has to
run the *whole* chunk, one call per ``for_next``, under every schedule
and team size.  Value comparisons across tiers live in
``test_vectorize*.py``; this module is about the tier itself and skips
where there is no C compiler.
"""

from __future__ import annotations

import math
import os
import threading
import time

import numpy as np
import pytest

from repro import Mode, transform
from repro.apps import get_app, list_apps
from repro.compiler.cbackend import NativeTarget, Unsupported
from repro.cruntime import cruntime, native

from tests.tiers import (compiler_or_skip, counting, lower, lower_each)

pytestmark = pytest.mark.usefixtures("needs_compiler")


@pytest.fixture
def needs_compiler():
    compiler_or_skip()


def handle_of(variant) -> tuple[str, tuple]:
    """``(name, kernels)`` of the native handle in a variant's globals."""
    (name,) = [name for name in variant.__globals__
               if name.startswith("__omp_n") and name in
               variant.__omp_source__]
    return name, variant.__globals__[name]


def count_calls(variant, monkeypatch) -> list:
    """Tally the variant's kernel calls: ``[[ran, declined], ...]``."""
    name, kernels = handle_of(variant)
    tallies = [[0, 0] for _ in kernels]
    monkeypatch.setitem(
        variant.__globals__, name,
        tuple(counting(kernel, tally)
              for kernel, tally in zip(kernels, tallies)))
    return tallies


class TestSubscripts:
    LOAD = (
        "def f(x, lo, hi):\n"
        "    total: float = 0.0\n"
        "    for i in range(lo, hi):\n"
        "        total += x[i]\n"
        "    return total\n")
    STORE = (
        "def f(x, lo, hi):\n"
        "    for i in range(lo, hi):\n"
        "        x[i, i - 1] = i * 1.0\n"
        "    return x\n")

    def test_negative_indices_wrap(self):
        x = np.arange(6.0)
        for lowered in lower_each(self.LOAD):
            assert lowered("f", x, -6, 0) == 15.0
            assert lowered("f", x, -2, 2) == 4.0 + 5.0 + 0.0 + 1.0

    @pytest.mark.parametrize("bounds", [(3, 7), (-7, -5)])
    def test_out_of_range_load_raises_index_error(self, bounds):
        for lowered in lower_each(self.LOAD):
            with pytest.raises(IndexError):
                lowered("f", np.arange(6.0), *bounds)

    def test_the_kernel_names_the_index_the_axis_and_the_size(self):
        with pytest.raises(IndexError, match="index 6 is out of bounds "
                                             "for axis 0 with size 6"):
            lower(self.LOAD, "native")("f", np.arange(6.0), 3, 7)

    def test_out_of_range_store_raises_and_keeps_what_was_stored(self):
        results = []
        for lowered in lower_each(self.STORE):
            x = np.zeros((4, 3))
            with pytest.raises(IndexError):
                lowered("f", x, 1, 6)  # x[4, 3]: both axes out of range
            results.append(x)
        # Row 0 wraps to column -1, rows 1..3 are stored before row 4
        # fails — in the sequential order, on every tier.
        *lowered_xs, interpreted_x = results
        for x in lowered_xs:
            np.testing.assert_array_equal(x, interpreted_x)
        assert interpreted_x[3, 2] == 3.0

    def test_an_empty_array_is_never_dereferenced(self):
        lowered = lower(self.LOAD, "native")
        assert lowered("f", np.zeros(0), 0, 0) == 0.0
        with pytest.raises(IndexError):
            lowered("f", np.zeros(0), 0, 1)


class TestIntegerDivision:
    SOURCE = (
        "def f(q, r, a: int, b: int, n: int):\n"
        "    for i in range(n):\n"
        "        q[i] = (a - i) // b\n"
        "        r[i] = (a - i) % b\n"
        "    return q, r\n")

    @pytest.mark.parametrize("b", [3, -3, 1, -1, 7, -7])
    def test_floor_semantics_with_negative_operands(self, b):
        for lowered in lower_each(self.SOURCE):
            q, r = lowered("f", np.zeros(12), np.zeros(12), 5, b, 12)
            assert list(q) == [(5 - i) // b for i in range(12)]
            assert list(r) == [(5 - i) % b for i in range(12)]

    def test_zero_divisor_raises_instead_of_trapping(self):
        for lowered in lower_each(self.SOURCE):
            with pytest.raises(ZeroDivisionError):
                lowered("f", np.zeros(4), np.zeros(4), 5, 0, 4)

    def test_the_most_negative_dividend(self):
        lowered = lower(
            "def f(out, a: int, b: int):\n"
            "    for i in range(1):\n"
            "        out[i] = a // b\n"
            "        out[i + 1] = a % b\n"
            "    return out\n", "native")
        out = lowered("f", np.zeros(2, dtype=np.int64), -2 ** 63 + 1, -1)
        assert list(out) == [2 ** 63 - 1, 0]

    def test_float_floor_division_and_modulo(self):
        source = (
            "def f(q, r, a: float, b: float, n: int):\n"
            "    for i in range(n):\n"
            "        q[i] = (a - i) // b\n"
            "        r[i] = (a - i) % b\n"
            "    return q, r\n")
        for b in (1.5, -1.5):
            for lowered in lower_each(source):
                q, r = lowered("f", np.zeros(9), np.zeros(9), 4.25, b, 9)
                assert list(q) == [(4.25 - i) // b for i in range(9)]
                assert list(r) == [(4.25 - i) % b for i in range(9)]

    def test_numpy_integers_divide_by_zero_as_numpy_does(self):
        source = (
            "def f(q, b, n: int):\n"
            "    for i in range(n):\n"
            "        k: int = b[i]\n"
            "        q[i] = i // k + i % k\n"
            "    return q\n")
        with np.errstate(divide="ignore"):
            for lowered in lower_each(source):
                q = lowered("f", np.ones(3), np.array([0, 2, 0]), 3)
                assert list(q) == [0.0, 1.0, 0.0]

    def test_a_zero_range_step_is_a_value_error(self):
        source = (
            "def f(x, n: int, step: int):\n"
            "    total: float = 0.0\n"
            "    for i in range(n):\n"
            "        for j in range(0, n, step):\n"
            "            total += x[j]\n"
            "    return total\n")
        for lowered in lower_each(source):
            with pytest.raises(ValueError):
                lowered("f", np.ones(4), 4, 0)
        assert lower(source, "native")("f", np.ones(4), 4, -1) == 0.0


class TestGuardBranch:
    """Operands the C text was not typed for run the loop the kernel
    stands for, as written — and nothing of the kernel."""

    SOURCE = (
        "def f(out, x, s: float, n: int):\n"
        "    for i in range(n):\n"
        "        out[i] = x[i] * s + i\n"
        "    return out\n")

    def run(self, out, x, s=2.0, n=None):
        lowered = lower(self.SOURCE, "native")
        (tally,) = lowered.count()
        n = len(x) if n is None else n
        expected = [x[i] * s + i for i in range(int(n))]
        result = lowered("f", out, x, s, n)
        assert list(result) == pytest.approx(expected)
        return tally

    def test_float64_arrays_run_native(self):
        assert self.run(np.zeros(5), np.arange(5.0)) == [1, 0]

    def test_a_list_takes_the_guard_branch(self):
        assert self.run(np.zeros(5), [0.0, 1.0, 2.0, 3.0, 4.0]) == [0, 1]

    def test_another_dtype_takes_the_guard_branch(self):
        assert self.run(np.zeros(5), np.arange(5, dtype=np.float32)) \
            == [0, 1]
        assert self.run(np.zeros(5, dtype=np.int64), np.arange(5.0)) \
            == [0, 1]
        assert self.run(np.zeros(5), np.arange(5.0).astype(">f8")) == [0, 1]

    def test_a_read_only_store_target_takes_the_guard_branch(self):
        out = np.zeros(5)
        out.flags.writeable = False
        with pytest.raises(ValueError, match="read-only"):
            self.run(out, np.arange(5.0))

    def test_a_read_only_load_operand_runs_native(self):
        x = np.arange(5.0)
        x.flags.writeable = False
        assert self.run(np.zeros(5), x) == [1, 0]

    def test_a_float_in_an_int_name_takes_the_guard_branch(self):
        # ``n: int`` holding 4.0: a C ``int64_t`` parameter would be a
        # lie; the loop as written raises, as it does without a kernel.
        lowered = lower(self.SOURCE, "native")
        (tally,) = lowered.count()
        with pytest.raises(TypeError):
            lowered("f", np.zeros(4), np.arange(4.0), 2.0, 4.0)
        assert tally == [0, 1]

    def test_something_else_in_a_float_name_takes_the_guard_branch(self):
        lowered = lower(self.SOURCE, "native")
        (tally,) = lowered.count()
        with pytest.raises(TypeError):
            lowered("f", np.zeros(4), np.arange(4.0), "2.0", 4)
        assert tally == [0, 1]

    def test_an_integer_beyond_int64_takes_the_guard_branch(self):
        lowered = lower(
            "def f(big: int, n: int):\n"
            "    total: int = 0\n"
            "    for i in range(n):\n"
            "        total += big % 7\n"
            "    return total\n", "native")
        (tally,) = lowered.count()
        assert lowered("f", 2 ** 70 + 3, 5) == 5 * ((2 ** 70 + 3) % 7)
        assert tally == [0, 1]
        assert lowered("f", 2 ** 40 + 3, 5) == 5 * ((2 ** 40 + 3) % 7)
        assert tally == [1, 1]

    def test_a_strided_view_runs_native_through_its_strides(self):
        # Not contiguous, but C-addressable: base pointer plus strides.
        grid = np.arange(40.0).reshape(5, 8)
        assert self.run(np.zeros(10)[::2], grid[:, 3]) == [1, 0]
        assert self.run(np.zeros(5), np.arange(5.0)[::-1]) == [1, 0]

    def test_a_misaligned_view_takes_the_guard_branch(self):
        raw = np.zeros(8 * 5 + 1, dtype=np.uint8)
        x = raw[1:].view(np.float64)
        assert not x.flags.aligned
        assert self.run(np.zeros(5), x) == [0, 1]

    def test_numpy_scalars_are_the_numbers_they_hold(self):
        assert self.run(np.zeros(5), np.arange(5.0), s=np.float64(2.0),
                        n=np.int64(5)) == [1, 0]


class TestValuesReadAfterTheLoop:
    """What the loop leaves in a name that later code reads comes back
    from the kernel — and an iteration that does not run leaves it as
    it was."""

    def check(self, source, *cases):
        lowered = lower(source, "native")
        assert lowered.outcomes == ["native"]
        (tally,) = lowered.count()
        reference = lower(source, "interpreted")
        for args in cases:
            assert lowered("f", *args) == reference("f", *args), args
        return tally

    def test_a_value_assigned_by_every_iteration(self):
        tally = self.check(
            "def f(x, n: int):\n"
            "    last: float = -1.0\n"
            "    for i in range(n):\n"
            "        last = x[i] * 2.0\n"
            "    return last\n", (np.arange(5.0), 5), (np.arange(5.0), 0))
        assert tally == [1, 1]  # the empty range ran the loop as written

    def test_the_loop_variable(self):
        self.check(
            "def f(x, n: int):\n"
            "    i = -1\n"
            "    total: float = 0.0\n"
            "    for i in range(n):\n"
            "        total += x[i]\n"
            "    return i, total\n", (np.arange(5.0), 5), (np.arange(5.0), 0))

    def test_a_value_an_inner_loop_may_not_assign(self):
        self.check(
            "def f(x, n: int, m: int):\n"
            "    y: float = -1.0\n"
            "    for i in range(n):\n"
            "        for j in range(m):\n"
            "            y = x[j] + i\n"
            "    return y\n", (np.arange(5.0), 3, 4), (np.arange(5.0), 3, 0))

    def test_an_inner_loop_variable_read_after_the_nest(self):
        # The nest has no C form (an inner loop may leave ``j`` as it
        # was), the inner loop alone has: ``j`` is its own variable.
        source = (
            "def f(x, n: int, m: int):\n"
            "    j = -1\n"
            "    total: float = 0.0\n"
            "    for i in range(n):\n"
            "        for j in range(m):\n"
            "            total += x[j]\n"
            "    return j, total\n")
        lowered = lower(source, "native")
        assert lowered.outcomes == [
            "not native: loop variable 'j' read after the loop", "native"]
        reference = lower(source, "interpreted")
        for args in ((np.arange(5.0), 3, 4), (np.arange(5.0), 3, 0)):
            assert lowered("f", *args) == reference("f", *args)

    def test_only_what_is_read_after_the_loop_comes_back(self):
        target, _why = NativeTarget.probe(os.environ["OMP4PY_CACHE"])
        import ast
        loop = ast.parse(
            "for i in range(n):\n"
            "    t = x[i] * 2.0\n"
            "    last = t + 1.0\n").body[0]
        site = target.compile_site(loop, {"n": "int"}, {"last", "x"})
        assert site.carried == ["last"]
        assert isinstance(site.operands[0], ast.Constant)


class TestMathRaisesWhereCPythonDoes:
    @pytest.mark.parametrize("call,x,error", [
        ("math.log(x)", 0.0, ValueError),
        ("math.asin(x)", 2.0, ValueError),
        ("math.exp(x)", 1000.0, OverflowError),
        ("math.pow(x, -1.0)", 0.0, ValueError),
        ("math.pow(x, 2.0)", 1e200, OverflowError),
        ("math.fmod(1.0, x)", 0.0, ValueError),
        ("math.floor(x)", math.inf, OverflowError),
        ("math.ceil(x)", math.nan, ValueError),
        ("math.exp(x)", -math.inf, None),
        ("math.sqrt(x)", math.nan, None),
        ("math.hypot(x, x)", 1.5e308, None),
        ("math.atan2(x, x)", 0.0, None),
    ])
    def test_only_where_the_interpreter_raises(self, call, x, error):
        source = ("import math\n"
                  "def f(out, x: float):\n"
                  "    for i in range(1):\n"
                  f"        out[i] = {call}\n"
                  "    return out\n")
        for lowered in lower_each(source, index=1):
            assert lowered.took_a_loop()
            if error is None:
                assert lowered("f", np.zeros(1), x) == pytest.approx(
                    [eval(call, {"math": math, "x": x})], nan_ok=True)
            else:
                with pytest.raises(error):
                    lowered("f", np.zeros(1), x)


class TestWhatHasNoCForm:
    def reason(self, source) -> str:
        import ast
        target, _why = NativeTarget.probe(os.environ["OMP4PY_CACHE"])
        loop = ast.parse(source).body[0].body[-2]
        assert isinstance(loop, ast.For)
        with pytest.raises(Unsupported) as caught:
            target.compile_site(loop, {"n": "int", "s": "float",
                                       "z": "complex", "i": "int"})
        return caught.value.reason

    @pytest.mark.parametrize("body,why", [
        ("if i > 2:\n            s = 1.0", "unsupported statement If"),
        ("s += w", "untyped scalar 'w'"),
        ("s += z", "complex scalar 'z'"),
        ("s += x[i:i + 2]", "slice"),
        ("s += x[s]", "non-integer subscript"),
        ("s += hash(i)", "not a recognised numeric function"),
        ("s += i << n", "shift by a non-constant count"),
        ("s += i ** n", "constant exponent"),
        ("s += x[i] + x[i][0]", "different ranks"),
        ("i = 3", "assignment to a loop variable"),
        ("n[i] = 1.0", "subscript of the scalar 'n'"),
        ("s = s / 2.0 + x[i]", "may be a NumPy scalar or a Python number"),
    ])
    def test_reasons(self, body, why):
        assert why in self.reason(
            "def f(x, n, s, z, w):\n"
            "    for i in range(n):\n"
            f"        {body}\n"
            "    return s\n")


class TestChunks:
    """The whole chunk is one call: nested loops included."""

    @pytest.mark.parametrize("app_name,sites", [
        ("pi", 1), ("jacobi", 2), ("lu", 2), ("md", 4), ("fft", 1)])
    def test_every_typed_site_of_the_numeric_apps_is_native(
            self, app_name, sites):
        variant = get_app(app_name).variant(Mode.COMPILED_DT)
        assert len(variant.__omp_native__) == sites
        _name, kernels = handle_of(variant)
        assert len(kernels) == sites

    @pytest.mark.parametrize("app_name", ["qsort", "bfs", "clustering",
                                          "wordcount"])
    def test_the_untyped_apps_have_none(self, app_name):
        variant = get_app(app_name).variant(Mode.COMPILED_DT)
        assert variant.__omp_native__ == ()
        assert "__omp_n" not in variant.__omp_source__

    @pytest.mark.parametrize("app_name,worksharing", [
        # jacobi's second site is the plain copy loop inside ``single``.
        ("jacobi", [0]), ("lu", [0, 1]), ("md", [0, 1, 2, 3])])
    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_one_kernel_call_per_chunk(self, app_name, worksharing,
                                       threads, monkeypatch):
        spec = get_app(app_name)
        variant = spec.variant(Mode.COMPILED_DT)
        tallies = count_calls(variant, monkeypatch)
        chunks = []
        for_next = cruntime.for_next

        def counted(bounds):
            more = for_next(bounds)
            if more:
                chunks.append(1)  # list.append: atomic under the GIL
            return more

        monkeypatch.setattr(cruntime, "for_next", counted)
        result = variant(threads=threads, **spec.inputs("test", dt=True))
        assert spec.verify(result, spec.sequential(**spec.inputs("test")))
        assert all(declined == 0 for _ran, declined in tallies)
        assert sum(tallies[site][0] for site in worksharing) == len(chunks)
        assert len(chunks) > 0

    def test_the_generated_code_has_no_loop_left_around_a_kernel(self):
        # lu's row update and md's force loop used to keep an
        # interpreted ``for`` around a vectorised row.
        for app_name in ("lu", "md", "jacobi"):
            source = get_app(app_name).variant(
                Mode.COMPILED_DT).__omp_source__
            lines = source.splitlines()
            for number, line in enumerate(lines):
                if "__omp_n" in line and "](" in line:
                    indent = len(line) - len(line.lstrip())
                    enclosing = [
                        other for other in lines[:number]
                        if len(other) - len(other.lstrip()) < indent]
                    assert enclosing[-1].lstrip().startswith(
                        ("while ", "with ", "if ", "def ")), enclosing[-1]


@pytest.mark.parametrize("schedule", ["static", "dynamic", "guided"])
@pytest.mark.parametrize("threads", [1, 2, 3, 8])
@pytest.mark.parametrize("app_name", list_apps())
def test_every_app_verifies_under_every_schedule(app_name, threads,
                                                 schedule, monkeypatch):
    """All nine apps x CompiledDT: chunks of every shape the three
    dispatchers hand out go through the kernels."""
    spec = get_app(app_name)
    variant = spec.variant(Mode.COMPILED_DT)
    for_init = cruntime.for_init

    def scheduled(bounds, kind="static", chunk=None, **rest):
        if schedule != "static":
            # Small chunks, but not 66 000 of them for pi's loop.
            chunk = max(3, len(range(*bounds[2].triplets[0])) // 48)
        return for_init(bounds, kind=schedule, chunk=chunk, **rest)

    monkeypatch.setattr(cruntime, "for_init", scheduled)
    result = variant(threads=threads, **spec.inputs("test", dt=True))
    assert spec.verify(result, spec.sequential(**spec.inputs("test")))


def _who_ran_what(ids, n: int, threads: int):
    with omp("parallel num_threads(threads)"):  # noqa: F821
        me: int = omp_get_thread_num()  # noqa: F821
        with omp("for schedule(static, 1)"):  # noqa: F821
            for i in range(n):
                ids[i] = me
    return ids


@pytest.mark.parametrize("threads", [1, 2, 3, 8])
def test_smoke_every_member_of_the_team_runs_kernels(threads, monkeypatch):
    """gambit's ``get_thread_ids`` check (SNIPPETS.md 1-2): static
    schedule, chunk size 1, n >= team size — a native kernel stores the
    member's thread number per iteration and every member must appear,
    on the iterations the static schedule gives it."""
    globals()["omp"] = None  # names the transformer replaces
    variant = transform(_who_ran_what, Mode.COMPILED_DT)
    assert len(variant.__omp_native__) == 1
    (tally,) = count_calls(variant, monkeypatch)
    n = 4 * threads + 1
    ids = variant(np.full(n, -1.0), n, threads)
    assert list(ids) == [i % threads for i in range(n)]
    assert tally == [n, 0]


def _overlap(work) -> float:
    """Wall of two threads running ``work`` at once over the sum of
    their busy times: 0.5 is perfect overlap, 1.0 is none."""
    busy = []

    def member():
        begin = time.perf_counter()
        work()
        busy.append(time.perf_counter() - begin)

    team = [threading.Thread(target=member) for _ in range(2)]
    begin = time.perf_counter()
    for thread in team:
        thread.start()
    for thread in team:
        thread.join(timeout=60)
    wall = time.perf_counter() - begin
    assert len(busy) == 2
    return wall / sum(busy)


@pytest.mark.slow
@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                    reason="overlap needs two CPUs")
def test_two_members_overlap_inside_long_chunks():
    """The call releases the GIL: two members inside long native chunks
    finish in clearly less wall than the sum of their busy times.

    The shared host has spells with one CPU's worth to give, so every
    attempt also times a reference that is known to release the GIL
    (``hashlib`` over a large buffer); only attempts in which the
    reference overlapped count, and none in eight skips.
    """
    import hashlib
    lowered = lower(
        "def f(n: int, w: float):\n"
        "    total: float = 0.0\n"
        "    for i in range(n):\n"
        "        x = (i + 0.5) * w\n"
        "        total += 4.0 / (1.0 + x * x)\n"
        "    return total\n", "native")
    n = 4_000_000
    lowered("f", 1000, 1e-3)  # the first call keeps the GIL, to pace
    buffer = bytes(24_000_000)
    counted = []
    for _attempt in range(8):
        reference = _overlap(lambda: hashlib.sha256(buffer).digest())
        ours = _overlap(lambda: lowered("f", n, 1.0 / n))
        if reference < 0.7:
            counted.append(ours)
            if ours < 0.8:
                return
    if not counted:
        pytest.skip("the host never ran two threads at once")
    raise AssertionError(f"no overlap in {counted}")


class TestLoader:
    def test_nothing_is_opened_before_the_first_call(self, tmp_path):
        kernels = native.bind(str(tmp_path / "absent.so"),
                              [("omp4py_site_0", "", (), "")])
        assert kernels[0](0, 1, 1) is None  # and no exception

    @pytest.mark.parametrize("content", [b"", b"not an object",
                                         b"\x7fELF" + b"\0" * 60])
    def test_an_unloadable_object_declines_every_call_and_is_removed(
            self, tmp_path, content):
        path = tmp_path / "broken.so"
        path.write_bytes(content)
        (kernel,) = native.bind(str(path),
                                [("omp4py_site_0", "", (), "d")])
        assert kernel(0, 4, 1, 0.0) is None
        assert kernel(0, 4, 1, 0.0) is None
        assert not path.exists()  # the next miss rebuilds it

    def test_probe_reasons(self, monkeypatch, tmp_path):
        monkeypatch.setenv("CC", "/nonexistent")
        assert native.find_compiler() \
            == (None, "CC='/nonexistent' not found")
        assert native.describe() == "none (CC='/nonexistent' not found)"
        monkeypatch.delenv("CC")
        monkeypatch.setenv("PATH", str(tmp_path))
        assert native.find_compiler() \
            == (None, "no C compiler (gcc, cc) on PATH")
        monkeypatch.undo()
        argv, reason = native.find_compiler()
        assert argv and reason == ""
        assert native.describe().startswith(argv[0] + " (")
        assert NativeTarget.probe(None)[0] is None
        blocked = tmp_path / "file"
        blocked.write_text("in the way")
        target, reason = NativeTarget.probe(str(blocked / "below"))
        assert target is None and "not writable" in reason

    def test_cc_may_carry_options(self, monkeypatch):
        argv, _reason = native.find_compiler()
        monkeypatch.setenv("CC", f"{argv[0]} -g0")
        assert native.find_compiler() == ([argv[0], "-g0"], "")
        lowered = lower(TestSubscripts.LOAD, "native")
        assert lowered("f", np.arange(4.0), 0, 4) == 6.0
