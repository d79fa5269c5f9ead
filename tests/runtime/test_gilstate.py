"""Tests of the execution-backend detection (repro.runtime.gilstate)."""

import pytest

from repro import env
from repro.errors import OmpError
from repro.runtime import gilstate
from repro.runtime.gilstate import Backend, detect_backend


@pytest.fixture
def gil_interpreter(monkeypatch):
    """Pretend the interpreter runs with the GIL enabled."""
    monkeypatch.setattr(gilstate, "gil_enabled_now", lambda: True)
    monkeypatch.setattr(gilstate, "build_is_free_threaded",
                        lambda: False)


@pytest.fixture
def nogil_interpreter(monkeypatch):
    """Pretend the interpreter runs free-threaded."""
    monkeypatch.setattr(gilstate, "gil_enabled_now", lambda: False)
    monkeypatch.setattr(gilstate, "build_is_free_threaded",
                        lambda: True)


class TestDetection:
    def test_auto_on_gil_interpreter(self, gil_interpreter):
        assert detect_backend("auto") is Backend.GIL

    def test_auto_on_nogil_interpreter(self, nogil_interpreter):
        assert detect_backend("auto") is Backend.NOGIL

    def test_auto_without_runtime_probe_uses_build_flag(self, monkeypatch):
        # Pre-3.13 interpreters have no sys._is_gil_enabled: the build
        # flag decides.
        monkeypatch.setattr(gilstate, "gil_enabled_now", lambda: None)
        monkeypatch.setattr(gilstate, "build_is_free_threaded",
                            lambda: True)
        assert detect_backend("auto") is Backend.NOGIL
        monkeypatch.setattr(gilstate, "build_is_free_threaded",
                            lambda: False)
        assert detect_backend("auto") is Backend.GIL

    def test_runtime_probe_wins_over_build_flag(self, monkeypatch):
        # A free-threaded build whose GIL was re-enabled (PYTHON_GIL=1
        # or an incompatible extension) must report gil.
        monkeypatch.setattr(gilstate, "gil_enabled_now", lambda: True)
        monkeypatch.setattr(gilstate, "build_is_free_threaded",
                            lambda: True)
        assert detect_backend("auto") is Backend.GIL

    def test_this_interpreter_detects_something(self):
        assert detect_backend("auto") in (Backend.GIL, Backend.NOGIL)


class TestOverride:
    def test_force_gil_always_allowed(self, nogil_interpreter):
        assert detect_backend("gil") is Backend.GIL

    def test_force_nogil_on_nogil(self, nogil_interpreter):
        assert detect_backend("nogil") is Backend.NOGIL

    def test_force_nogil_on_gil_interpreter_errors(self, gil_interpreter):
        with pytest.raises(OmpError, match="GIL enabled"):
            detect_backend("nogil")

    def test_env_knob_feeds_default_spec(self, monkeypatch,
                                         gil_interpreter):
        monkeypatch.setenv("OMP4PY_BACKEND", "gil")
        assert detect_backend() is Backend.GIL

    def test_env_knob_invalid_value(self, monkeypatch):
        monkeypatch.setenv("OMP4PY_BACKEND", "subinterpreters")
        with pytest.raises(OmpError, match="OMP4PY_BACKEND"):
            env.backend_spec()

    def test_env_knob_unset_is_auto(self, monkeypatch):
        monkeypatch.delenv("OMP4PY_BACKEND", raising=False)
        assert env.backend_spec() == "auto"

    def test_refresh_recaches(self, monkeypatch, nogil_interpreter):
        monkeypatch.setattr(gilstate, "_current", None)
        assert gilstate.current_backend() is Backend.NOGIL
        assert gilstate._current is Backend.NOGIL
        refreshed = gilstate.refresh_backend("gil")
        assert refreshed is Backend.GIL
        assert gilstate.current_backend() is Backend.GIL


class TestBackendProperties:
    def test_measures_parallelism(self):
        assert Backend.NOGIL.measures_parallelism
        assert not Backend.GIL.measures_parallelism

    def test_runtime_carries_backend(self):
        from repro.runtime import pure_runtime
        assert pure_runtime.backend in (Backend.GIL, Backend.NOGIL)

    def test_pool_snapshot_reports_backend(self):
        from repro.runtime import pure_runtime
        pure_runtime.parallel_run(lambda: None, num_threads=2)
        assert pure_runtime.pool().snapshot()["backend"] \
            == pure_runtime.backend.value

    def test_display_env_includes_backend(self, capsys):
        from repro.runtime import pure_runtime
        pure_runtime.display_env(verbose=True)
        err = capsys.readouterr().err
        assert "[omp4py] backend" in err


class TestAvailableCpus:
    def test_positive(self):
        assert env.available_cpus() >= 1
        assert gilstate.available_cpus() == env.available_cpus()

    def test_prefers_process_cpu_count(self, monkeypatch):
        import os
        monkeypatch.setattr(os, "process_cpu_count", lambda: 3,
                            raising=False)
        assert env.available_cpus() == 3

    def test_num_procs_uses_available_cpus(self, monkeypatch):
        import os
        from repro.runtime import pure_runtime
        monkeypatch.setattr(os, "process_cpu_count", lambda: 5,
                            raising=False)
        assert pure_runtime.get_num_procs() == 5

    def test_default_num_threads_uses_available_cpus(self, monkeypatch):
        import os
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        monkeypatch.setattr(os, "process_cpu_count", lambda: 7,
                            raising=False)
        assert env.default_num_threads() == 7


class TestMeasurementBackend:
    def test_measurement_records_backend(self, omp_compile):
        from repro.analysis.timing import measure
        fn = omp_compile(
            "def spin(n, threads):\n"
            "    total = 0\n"
            "    with omp('parallel for reduction(+:total) "
            "num_threads(threads)'):\n"
            "        for i in range(n):\n"
            "            total += i\n"
            "    return total\n", "spin")
        measurement = measure(fn, 5000, 2)
        from repro.runtime.gilstate import current_backend
        assert measurement.backend == current_backend().value
        assert measurement.model_projected is not None

    def test_gil_backend_reports_model_as_projected(self, omp_compile,
                                                    monkeypatch):
        fn = omp_compile(
            "def spin2(n, threads):\n"
            "    total = 0\n"
            "    with omp('parallel for reduction(+:total) "
            "num_threads(threads)'):\n"
            "        for i in range(n):\n"
            "            total += i\n"
            "    return total\n", "spin2")
        m = measure_with_forced_backend(fn, Backend.GIL, monkeypatch)
        assert m.projected == m.model_projected

    def test_nogil_backend_reports_wall_as_projected(self, omp_compile,
                                                     monkeypatch):
        fn = omp_compile(
            "def spin3(n, threads):\n"
            "    total = 0\n"
            "    with omp('parallel for reduction(+:total) "
            "num_threads(threads)'):\n"
            "        for i in range(n):\n"
            "            total += i\n"
            "    return total\n", "spin3")
        m = measure_with_forced_backend(fn, Backend.NOGIL, monkeypatch)
        assert m.projected == m.wall
        assert m.backend == "nogil"
        # The model stays available for the validation cross-check.
        assert m.model_projected is not None
        assert m.model_projected <= m.wall * 1.01

    @pytest.mark.nogil
    def test_true_parallel_speedup(self, omp_compile):
        # Only meaningful with real parallelism: measured wall at 4
        # threads must beat 1 thread (auto-skipped on gil backends by
        # tests/conftest.py).
        from repro.analysis.timing import measure
        fn = omp_compile(
            "def spin4(n, threads):\n"
            "    total = 0\n"
            "    with omp('parallel for reduction(+:total) "
            "num_threads(threads)'):\n"
            "        for i in range(n):\n"
            "            total += i * i\n"
            "    return total\n", "spin4")
        one = measure(fn, 400000, 1, repeats=3)
        four = measure(fn, 400000, 4, repeats=3)
        assert four.wall < one.wall * 0.9


def measure_with_forced_backend(fn, backend, monkeypatch):
    """Measure with the bound runtime's backend forced (instance-level,
    so the process-wide cache stays untouched)."""
    from repro.analysis.timing import measure
    from repro.decorator import runtime_for
    runtime = runtime_for(fn.__omp_mode__)
    monkeypatch.setattr(runtime, "backend", backend)
    return measure(fn, 5000, 2)
