"""Tests of the affinity subsystem: OMP_PLACES parsing, the proc-bind
placement math, and the binder's graceful degradation."""

import pytest

from repro import env
from repro.affinity import binder, binder_from_env, places
from repro.affinity.binder import Binder, place_for_member
from repro.affinity.places import format_places, parse_places
from repro.errors import OmpError

CPUS = (0, 1, 2, 3)


# -- OMP_PLACES parsing -----------------------------------------------------


class TestExplicitPlaces:
    def test_simple_sets(self):
        assert parse_places("{0,1},{2,3}", cpus=CPUS) == ((0, 1), (2, 3))

    def test_singletons(self):
        assert parse_places("{0},{2}", cpus=CPUS) == ((0,), (2,))

    def test_interval(self):
        assert parse_places("{0:4}", cpus=CPUS) == ((0, 1, 2, 3),)

    def test_interval_with_stride(self):
        assert parse_places("{0:2:2},{1:2:2}", cpus=CPUS) \
            == ((0, 2), (1, 3))

    def test_mixed_resources_and_whitespace(self):
        assert parse_places(" {0, 2:2} , {1} ", cpus=CPUS) \
            == ((0, 2, 3), (1,))

    def test_duplicates_collapse(self):
        assert parse_places("{0,0,1}", cpus=CPUS) == ((0, 1),)

    @pytest.mark.parametrize("spec", [
        "",            # empty
        "banana",      # unknown abstract name
        "{}",          # empty place
        "{0:0}",       # zero-length interval
        "{0:2:0}",     # zero stride
        "{1,2",        # unbalanced braces
        "0,1",         # bare numbers without braces
        "{-1}",        # negative CPU
        "{0:3:-1}",    # stride walks below CPU 0
        "{a,b}",       # non-numeric
        "{0}:2",       # place-level len suffix (unsupported)
    ])
    def test_invalid_specs_raise_omp_error(self, spec):
        with pytest.raises(OmpError):
            parse_places(spec, cpus=CPUS)


class TestAbstractPlaces:
    def test_threads_one_place_per_cpu(self):
        assert parse_places("threads", cpus=CPUS) \
            == ((0,), (1,), (2,), (3,))

    def test_cores_alias(self):
        assert parse_places("cores", cpus=CPUS) \
            == ((0,), (1,), (2,), (3,))

    def test_count_truncates(self):
        assert parse_places("threads(2)", cpus=CPUS) == ((0,), (1,))

    def test_sockets_groups_all_cpus(self):
        grouped = parse_places("sockets", cpus=CPUS)
        assert sorted(cpu for place in grouped for cpu in place) \
            == list(CPUS)

    def test_case_insensitive(self):
        assert parse_places("THREADS", cpus=CPUS) \
            == parse_places("threads", cpus=CPUS)

    def test_zero_count_rejected(self):
        with pytest.raises(OmpError):
            parse_places("threads(0)", cpus=CPUS)


class TestFormatPlaces:
    def test_round_trip(self):
        spec = "{0,1},{2,3}"
        assert format_places(parse_places(spec, cpus=CPUS)) == spec

    def test_empty(self):
        assert format_places(()) == ""


# -- proc-bind placement math -----------------------------------------------


class TestPlaceForMember:
    def test_primary_collapses_to_place_zero(self):
        assert [place_for_member(t, 4, 4, "primary")
                for t in range(4)] == [0, 0, 0, 0]

    def test_close_assigns_consecutively_and_wraps(self):
        assert [place_for_member(t, 4, 2, "close")
                for t in range(4)] == [0, 1, 0, 1]

    def test_spread_spaces_members_out(self):
        assert [place_for_member(t, 2, 4, "spread")
                for t in range(2)] == [0, 2]

    def test_spread_degrades_to_close_when_team_outgrows_places(self):
        assert [place_for_member(t, 4, 2, "spread")
                for t in range(4)] == [0, 1, 0, 1]

    def test_no_places_means_unbound(self):
        assert place_for_member(0, 2, 0, "close") == -1


# -- the binder -------------------------------------------------------------


class TestBinder:
    def test_disabled_without_places(self):
        bound = Binder((), "close")
        assert not bound.enabled
        assert bound.bind_current(0, 2) is None
        assert bound.place_num() == -1

    def test_disabled_when_bind_false(self):
        bound = Binder(((0,), (1,)), "false")
        assert not bound.enabled

    def test_bookkeeping_without_sched_setaffinity(self, monkeypatch):
        """Platforms without sched_setaffinity keep the place
        accounting (omp_get_place_num answers) but skip the syscall."""
        monkeypatch.setattr(binder, "HAVE_SCHED_AFFINITY", False)
        bound = Binder(((0,), (1,)), "close")
        assert bound.enabled
        assert bound.bind_current(1, 2) == 1
        assert bound.place_num() == 1

    def test_failed_syscall_degrades_to_unbound(self, monkeypatch):
        monkeypatch.setattr(binder, "HAVE_SCHED_AFFINITY", True)

        def refuse(pid, cpus):
            raise OSError("EPERM")

        monkeypatch.setattr(binder.os, "sched_setaffinity", refuse,
                            raising=False)
        bound = Binder(((0,), (1,)), "close")
        assert bound.bind_current(1, 2) is None
        assert bound.place_num() == -1

    def test_rebind_same_place_is_cached(self, monkeypatch):
        monkeypatch.setattr(binder, "HAVE_SCHED_AFFINITY", False)
        bound = Binder(((0,),), "primary")
        assert bound.bind_current(0, 2) == 0
        assert bound.bind_current(0, 2) == 0  # cache hit, same answer


# -- env plumbing -----------------------------------------------------------


class TestEnvKnobs:
    def test_binder_from_env_defaults_off(self, monkeypatch):
        monkeypatch.delenv("OMP_PLACES", raising=False)
        monkeypatch.delenv("OMP_PROC_BIND", raising=False)
        bound = binder_from_env()
        assert bound.places == ()
        assert bound.proc_bind == "false"
        assert not bound.enabled

    def test_places_implies_binding(self, monkeypatch):
        monkeypatch.setenv("OMP_PLACES", "{0}")
        monkeypatch.delenv("OMP_PROC_BIND", raising=False)
        bound = binder_from_env()
        assert bound.places == ((0,),)
        assert bound.proc_bind == "close"
        assert bound.enabled

    def test_master_normalizes_to_primary(self, monkeypatch):
        monkeypatch.setenv("OMP_PROC_BIND", "master")
        assert env.default_proc_bind() == "primary"

    def test_true_normalizes_to_close(self, monkeypatch):
        monkeypatch.setenv("OMP_PROC_BIND", "true")
        assert env.default_proc_bind() == "close"

    def test_invalid_proc_bind_raises(self, monkeypatch):
        monkeypatch.setenv("OMP_PROC_BIND", "diagonal")
        with pytest.raises(OmpError):
            env.default_proc_bind()

    def test_wait_policy_values(self, monkeypatch):
        monkeypatch.delenv("OMP_WAIT_POLICY", raising=False)
        assert env.default_wait_policy() == "passive"
        monkeypatch.setenv("OMP_WAIT_POLICY", "ACTIVE")
        assert env.default_wait_policy() == "active"
        monkeypatch.setenv("OMP_WAIT_POLICY", "busy")
        with pytest.raises(OmpError):
            env.default_wait_policy()

    def test_pool_idle_timeout_knob(self, monkeypatch):
        monkeypatch.delenv("OMP4PY_POOL_IDLE_TIMEOUT", raising=False)
        assert env.pool_idle_timeout() == 30.0
        monkeypatch.setenv("OMP4PY_POOL_IDLE_TIMEOUT", "0.5")
        assert env.pool_idle_timeout() == 0.5
        monkeypatch.setenv("OMP4PY_POOL_IDLE_TIMEOUT", "-1")
        with pytest.raises(OmpError):
            env.pool_idle_timeout()

    def test_available_cpus_nonempty_sorted(self):
        cpus = places.available_cpus()
        assert cpus and list(cpus) == sorted(cpus)


# -- runtime API surface ----------------------------------------------------


class TestRuntimeApi:
    def test_api_functions_exported(self):
        from repro.api import omp_get_num_places, omp_get_place_num
        assert isinstance(omp_get_num_places(), int)
        assert isinstance(omp_get_place_num(), int)

    def test_runtime_reports_binder_state(self):
        from repro.runtime import pure_runtime as rt

        prior = rt._binder
        rt._binder = Binder(((0,), (1,)), "spread")
        try:
            assert rt.get_num_places() == 2
            assert rt.get_proc_bind() == "spread"
        finally:
            rt._binder = prior
        assert rt.get_wait_policy() in ("active", "passive")
