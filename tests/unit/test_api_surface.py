"""The public API surface: exports, display_env, and metadata."""

import pytest

import repro
from repro.transform.api_map import OMP_API_METHODS


class TestExports:
    def test_all_api_functions_exported(self):
        for name in OMP_API_METHODS:
            assert hasattr(repro, name), f"missing export {name}"

    def test_dunder_all_is_resolvable(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_core_names(self):
        assert callable(repro.omp)
        assert callable(repro.transform)
        assert repro.Mode.HYBRID.value == "hybrid"
        assert len(repro.ALL_MODES) == 4
        assert isinstance(repro.__version__, str)

    def test_error_hierarchy(self):
        assert issubclass(repro.OmpSyntaxError, repro.OmpError)
        assert issubclass(repro.OmpSyntaxError, SyntaxError)
        assert issubclass(repro.OmpRuntimeError, RuntimeError)
        assert issubclass(repro.OmpTransformError, repro.OmpError)

    def test_pure_module_mirrors_api(self):
        from repro import pure
        for name in OMP_API_METHODS:
            assert hasattr(pure, name), f"pure missing {name}"


class TestDisplayEnv:
    def test_format(self, capsys):
        repro.omp_display_env()
        err = capsys.readouterr().err
        assert err.startswith("OPENMP DISPLAY ENVIRONMENT BEGIN")
        assert err.rstrip().endswith("OPENMP DISPLAY ENVIRONMENT END")
        assert "OMP_NUM_THREADS" in err
        assert "OMP_SCHEDULE = 'STATIC'" in err

    def test_verbose_adds_runtime_info(self, capsys):
        repro.omp_display_env(verbose=True)
        err = capsys.readouterr().err
        assert "[omp4py] runtime" in err
        assert "[omp4py] num_procs" in err

    def test_reflects_icv_changes(self, capsys):
        from repro.cruntime import cruntime
        cruntime.set_schedule("dynamic", 5)
        try:
            repro.omp_display_env()
            assert "OMP_SCHEDULE = 'DYNAMIC,5'" in capsys.readouterr().err
        finally:
            cruntime.set_schedule("static")


class TestVersionedMetadata:
    def test_transformed_functions_carry_metadata(self):
        fn = repro.transform(_subject, repro.Mode.PURE)
        assert fn.__omp_mode__ is repro.Mode.PURE
        assert "parallel_run" in fn.__omp_source__
        assert fn.__name__ == "_subject"
        assert fn.__doc__ == "Docstrings survive transformation."


def _subject(n):
    """Docstrings survive transformation."""
    from repro import omp
    with omp("parallel num_threads(2)"):
        pass
    return n
