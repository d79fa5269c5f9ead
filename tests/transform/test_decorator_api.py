"""Tests of the @omp decorator surface, its options, and repro.pure."""

import marshal
import os

import pytest

from repro import Mode, omp, transform
from repro.decorator import _load_entry
from repro.errors import OmpError, OmpTransformError


def simple_sum(n):
    from repro import omp
    total = 0
    with omp("parallel for reduction(+:total) num_threads(2)"):
        for i in range(n):
            total += i
    return total


def typed_sum(n):
    from repro import omp
    total: float = 0.0
    with omp("parallel for reduction(+:total) num_threads(2)"):
        for i in range(n):
            total += i * 1.0
    return total


class TestDecoratorForms:
    def test_bare_decorator(self):
        decorated = omp(simple_sum)
        assert decorated(100) == sum(range(100))
        assert decorated.__omp_mode__ is Mode.HYBRID

    def test_decorator_with_mode(self):
        decorated = omp(mode="pure")(simple_sum)
        assert decorated.__omp_mode__ is Mode.PURE
        assert decorated(50) == sum(range(50))

    def test_compile_true_selects_typed_pipeline(self):
        decorated = omp(compile=True)(typed_sum)
        assert decorated.__omp_mode__ is Mode.COMPILED_DT
        assert decorated(100) == float(sum(range(100)))

    def test_directive_marker_is_noop(self):
        marker = omp("parallel for")
        with marker:
            pass
        assert marker.directive == "parallel for"

    def test_marker_rejects_options(self):
        with pytest.raises(OmpError):
            omp("parallel", dump=True)

    def test_unknown_option_rejected(self):
        with pytest.raises(OmpError, match="unknown"):
            omp(frobnicate=True)(simple_sum)

    def test_non_callable_rejected(self):
        with pytest.raises(OmpError):
            omp(42)


class TestDecoratorOptions:
    def test_dump_prints_generated_source(self, capsys):
        transform(simple_sum, Mode.HYBRID, dump=True)
        err = capsys.readouterr().err
        assert "parallel_run" in err
        assert "generated code" in err

    def test_generated_source_attached(self):
        decorated = transform(simple_sum, Mode.HYBRID)
        assert "for_bounds" in decorated.__omp_source__
        assert "reduction_init" in decorated.__omp_source__

    def test_cache_writes_generated_file(self, tmp_path):
        cache_dir = str(tmp_path / "omp_cache")
        transform(simple_sum, Mode.HYBRID, cache=cache_dir)
        files = os.listdir(cache_dir)
        assert len(files) == 1
        content = (tmp_path / "omp_cache" / files[0]).read_bytes()
        assert b"parallel_run" in content  # the generated source

    def test_cache_force_rewrites(self, tmp_path):
        cache_dir = str(tmp_path / "omp_cache")
        transform(simple_sum, Mode.HYBRID, cache=cache_dir)
        path = os.path.join(cache_dir, os.listdir(cache_dir)[0])
        before = os.stat(path)
        forced = transform(simple_sum, Mode.HYBRID, cache=cache_dir,
                           force=True)
        assert forced.__omp_cached__ is False
        assert os.listdir(cache_dir) == [os.path.basename(path)]
        # Replaced, not written over: a new file under the old name.
        assert os.stat(path).st_ino != before.st_ino

    def test_cache_without_force_keeps_existing(self, tmp_path):
        cache_dir = str(tmp_path / "omp_cache")
        transform(simple_sum, Mode.HYBRID, cache=cache_dir)
        path = os.path.join(cache_dir, os.listdir(cache_dir)[0])
        before = os.stat(path)
        transform(simple_sum, Mode.HYBRID, cache=cache_dir)
        after = os.stat(path)
        assert (after.st_ino, after.st_mtime_ns) \
            == (before.st_ino, before.st_mtime_ns)

    @pytest.mark.parametrize("damage", [
        lambda data: data[:len(data) // 2],
        lambda data: b"",
        lambda data: b"not an entry at all\n" * 8,
        # Another interpreter's bytecode under the right name.
        lambda data: b"\x00\x00\r\n" + data[4:],
        # Well-formed marshal of the wrong shape.
        lambda data: data[:4] + marshal.dumps(("code", False)),
        lambda data: data[:4] + marshal.dumps(("code", False, "src")),
    ], ids=["truncated", "empty", "text", "wrong-python",
            "wrong-arity", "wrong-types"])
    def test_bad_entry_is_retransformed_and_overwritten(self, tmp_path,
                                                        damage):
        cache_dir = tmp_path / "omp_cache"
        transform(simple_sum, Mode.HYBRID, cache=str(cache_dir))
        (entry,) = cache_dir.iterdir()
        good = entry.read_bytes()
        entry.write_bytes(damage(good))
        again = transform(simple_sum, Mode.HYBRID, cache=str(cache_dir))
        assert again.__omp_cached__ is False
        assert again(100) == 4950
        assert _load_entry(str(entry)) is not None
        assert [path.name for path in cache_dir.iterdir()] == [entry.name]
        assert transform(simple_sum, Mode.HYBRID,
                         cache=str(cache_dir)).__omp_cached__ is True

    def test_cache_hit_skips_retransform(self, tmp_path, monkeypatch):
        cache_dir = str(tmp_path / "omp_cache")
        first = transform(simple_sum, Mode.HYBRID, cache=cache_dir)
        monkeypatch.setattr("repro.decorator._generate", None)
        second = transform(simple_sum, Mode.HYBRID, cache=cache_dir)
        assert getattr(first, "__omp_cached__", False) is False
        assert second.__omp_cached__ is True
        assert second(100) == first(100) == 4950

    def test_cache_keys_include_mode(self, tmp_path):
        cache_dir = str(tmp_path / "omp_cache")
        transform(simple_sum, Mode.HYBRID, cache=cache_dir)
        transform(simple_sum, Mode.PURE, cache=cache_dir)
        assert len(os.listdir(cache_dir)) == 2

    def test_cached_compileddt_rebinds_kernels(self, tmp_path):
        cache_dir = str(tmp_path / "omp_cache")
        transform(typed_sum, Mode.COMPILED_DT, cache=cache_dir)
        loaded = transform(typed_sum, Mode.COMPILED_DT, cache=cache_dir)
        assert loaded.__omp_cached__ is True
        assert loaded(100) == float(sum(range(100)))


class TestEnvironmentDefaults:
    def test_omp4py_mode_env(self, monkeypatch):
        monkeypatch.setenv("OMP4PY_MODE", "pure")
        decorated = omp(simple_sum)
        assert decorated.__omp_mode__ is Mode.PURE


class TestPureModule:
    def test_pure_decorator_defaults_to_pure_mode(self):
        from repro import pure
        decorated = pure.omp(simple_sum)
        assert decorated.__omp_mode__ is Mode.PURE
        assert decorated(30) == sum(range(30))

    def test_pure_marker_still_works(self):
        from repro import pure
        with pure.omp("parallel"):
            pass

    def test_pure_api_functions_bound_to_pure_runtime(self):
        from repro import pure
        from repro.runtime import pure_runtime
        old = pure_runtime.get_max_threads()
        try:
            pure.omp_set_num_threads(9)
            assert pure.omp_get_max_threads() == 9
            assert pure_runtime.get_max_threads() == 9
        finally:
            pure_runtime.set_num_threads(old)


class TestUseRuntime:
    def test_switch_module_level_api(self):
        from repro import api
        from repro.runtime import pure_runtime
        try:
            api.use_runtime("pure")
            assert api.active_runtime() is pure_runtime
        finally:
            api.use_runtime("hybrid")

    def test_accepts_runtime_instance(self):
        from repro import api
        from repro.cruntime import cruntime
        api.use_runtime(cruntime)
        assert api.active_runtime() is cruntime


def rebinds_len(words):
    total = 0
    for word in words:
        total += len(word)
        globals()["len"] = lambda _: 100
    return total


def documented_sum(n):
    "Sum of the integers below n."
    from repro import omp
    total = 0
    with omp("parallel for reduction(+:total) num_threads(2)"):
        for i in range(n):
            total += i
    return total


def divides_by_zero(x):
    return x / 0


def counts_digits(n):
    count = 0

    def bump(k):
        nonlocal count
        for i in range(k):
            count += len(str(i))
    bump(n)
    return count


class TestEveryModeRunsTheCodeAsWritten:
    """No mode rewrites the user's own statements: *Compiled* runs
    *Hybrid*'s generated code, so it keeps Python's semantics too."""

    @pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
    def test_a_builtin_rebound_mid_call_is_seen(self, mode):
        # The first word counts 2; the rebound len counts 100 each.
        assert transform(rebinds_len, mode)(["ab", "cd", "ef"]) == 202

    def test_compiled_keeps_the_docstring(self):
        fn = transform(documented_sum, Mode.COMPILED)
        assert fn.__doc__ == "Sum of the integers below n."
        assert fn(10) == 45

    def test_compiled_divides_by_zero_when_called(self):
        fn = transform(divides_by_zero, Mode.COMPILED)
        with pytest.raises(ZeroDivisionError):
            fn(1.0)

    def test_compiled_keeps_a_nested_nonlocal(self):
        assert transform(counts_digits, Mode.COMPILED)(12) == 14


class TestMultipleVariantsCoexist:
    def test_variants_do_not_interfere(self):
        pure_variant = transform(simple_sum, Mode.PURE)
        hybrid_variant = transform(simple_sum, Mode.HYBRID)
        dt_variant = transform(typed_sum, Mode.COMPILED_DT)
        assert pure_variant(100) == hybrid_variant(100) == 4950
        assert dt_variant(100) == 4950.0
        assert pure_variant.__omp_mode__ is not hybrid_variant.__omp_mode__


class TestTransformErrors:
    def test_lambda_rejected(self):
        with pytest.raises(OmpTransformError):
            transform(lambda n: n, Mode.HYBRID)

    def test_builtin_rejected(self):
        with pytest.raises(OmpTransformError):
            transform(len, Mode.HYBRID)


class TestCompileEnvDefault:
    def test_omp4py_compile_env(self, monkeypatch):
        monkeypatch.setenv("OMP4PY_COMPILE", "true")
        decorated = omp(typed_sum)
        assert decorated.__omp_mode__ is Mode.COMPILED_DT

    def test_explicit_mode_beats_compile_flag(self):
        decorated = omp(mode="pure", compile=True)(typed_sum)
        assert decorated.__omp_mode__ is Mode.PURE
