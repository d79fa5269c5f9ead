"""Tests of environment-variable handling and execution modes."""

import pytest

from repro import env
from repro.errors import OmpError
from repro.modes import ALL_MODES, Mode, default_mode


class TestEnvParsing:
    def test_default_num_threads_from_env(self, monkeypatch):
        monkeypatch.setenv("OMP_NUM_THREADS", "6")
        assert env.default_num_threads() == 6

    def test_num_threads_nesting_list_takes_first(self, monkeypatch):
        monkeypatch.setenv("OMP_NUM_THREADS", "4,2,1")
        assert env.default_num_threads() == 4

    def test_num_threads_invalid(self, monkeypatch):
        monkeypatch.setenv("OMP_NUM_THREADS", "zero")
        with pytest.raises(OmpError):
            env.default_num_threads()

    def test_num_threads_nonpositive(self, monkeypatch):
        monkeypatch.setenv("OMP_NUM_THREADS", "0")
        with pytest.raises(OmpError):
            env.default_num_threads()

    def test_num_threads_defaults_to_cpu_count(self, monkeypatch):
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        assert env.default_num_threads() >= 1

    def test_schedule_from_env(self, monkeypatch):
        monkeypatch.setenv("OMP_SCHEDULE", "dynamic,8")
        assert env.default_schedule() == ("dynamic", 8)

    def test_schedule_without_chunk(self, monkeypatch):
        monkeypatch.setenv("OMP_SCHEDULE", "guided")
        assert env.default_schedule() == ("guided", None)

    def test_schedule_rejects_runtime(self):
        with pytest.raises(OmpError):
            env.parse_schedule("runtime")

    def test_schedule_rejects_bad_chunk(self):
        with pytest.raises(OmpError):
            env.parse_schedule("static,-3")

    @pytest.mark.parametrize("raw,expected", [
        ("1", True), ("true", True), ("TRUE", True), ("on", True),
        ("0", False), ("false", False), ("off", False), ("no", False),
    ])
    def test_boolean_variables(self, monkeypatch, raw, expected):
        monkeypatch.setenv("OMP_NESTED", raw)
        assert env.default_nested() is expected

    def test_boolean_invalid(self, monkeypatch):
        monkeypatch.setenv("OMP_DYNAMIC", "perhaps")
        with pytest.raises(OmpError):
            env.default_dynamic()

    def test_thread_limit(self, monkeypatch):
        monkeypatch.setenv("OMP_THREAD_LIMIT", "16")
        assert env.default_thread_limit() == 16

    def test_max_active_levels(self, monkeypatch):
        monkeypatch.setenv("OMP_MAX_ACTIVE_LEVELS", "3")
        assert env.default_max_active_levels() == 3

    def test_decorator_default_bool(self, monkeypatch):
        monkeypatch.setenv("OMP4PY_DUMP", "true")
        assert env.decorator_default("dump", False) is True

    def test_decorator_default_string(self, monkeypatch):
        monkeypatch.setenv("OMP4PY_CACHE", "/tmp/cachedir")
        assert env.decorator_default("cache", None) == "/tmp/cachedir"

    def test_decorator_default_fallback(self, monkeypatch):
        monkeypatch.delenv("OMP4PY_DEBUG", raising=False)
        assert env.decorator_default("debug", False) is False


class TestModeParsing:
    @pytest.mark.parametrize("value,expected", [
        ("pure", Mode.PURE),
        ("Hybrid", Mode.HYBRID),
        ("compiled", Mode.COMPILED),
        ("compileddt", Mode.COMPILED_DT),
        ("compiled_dt", Mode.COMPILED_DT),
        ("COMPILED-DT", Mode.COMPILED_DT),
        ("dt", Mode.COMPILED_DT),
        (0, Mode.PURE),
        (1, Mode.HYBRID),
        (2, Mode.COMPILED),
        (3, Mode.COMPILED_DT),
        (Mode.PURE, Mode.PURE),
    ])
    def test_parse(self, value, expected):
        assert Mode.parse(value) is expected

    def test_parse_unknown_string(self):
        with pytest.raises(OmpError):
            Mode.parse("turbo")

    def test_parse_unknown_number(self):
        with pytest.raises(OmpError):
            Mode.parse(7)

    def test_pyomp_number_rejected(self):
        with pytest.raises(OmpError):
            Mode.parse(-1)

    def test_all_modes_order_matches_paper(self):
        assert [m.value for m in ALL_MODES] == [
            "pure", "hybrid", "compiled", "compileddt"]

    def test_default_mode_is_hybrid(self, monkeypatch):
        monkeypatch.delenv("OMP4PY_MODE", raising=False)
        assert default_mode() is Mode.HYBRID

    def test_default_mode_from_env(self, monkeypatch):
        monkeypatch.setenv("OMP4PY_MODE", "pure")
        assert default_mode() is Mode.PURE
