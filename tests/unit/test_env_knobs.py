"""The ``OMP4PY_*`` names are listed once (``env.KNOBS``): every name
``env.py`` reads is in the list, a diagnostic report echoes from it
(and prints no other ``OMP4PY_*`` name), README's environment table
has a row for each, and each is exercised by a test."""

import os
import pathlib
import re

import pytest

import repro
from repro import env, omp
from repro.diagnostics.envreport import icv_snapshot
from repro.errors import OmpLintError
from repro.runtime import pure_runtime

ROOT = pathlib.Path(repro.__file__).parents[2]
SRC = pathlib.Path(repro.__file__).parent


def _names_read() -> set[str]:
    """Names spelled out in ``env.py``, plus the decorator-argument
    defaults, which are built as ``"OMP4PY_" + name.upper()`` from
    every ``decorator_default("name", ...)`` call in the package."""
    source = pathlib.Path(env.__file__).read_text(encoding="utf-8")
    listing = source[source.index("KNOBS = ("):source.index("_TRUE_STRINGS")]
    names = set(re.findall(r"OMP4PY_[A-Z]+(?:_[A-Z]+)*",
                           source.replace(listing, "")))
    for path in SRC.rglob("*.py"):
        names.update("OMP4PY_" + name.upper() for name in re.findall(
            r"decorator_default\(\s*\"(\w+)\"",
            path.read_text(encoding="utf-8")))
    return names


def test_every_name_read_is_listed_once():
    assert len(set(env.KNOBS)) == len(env.KNOBS)
    assert _names_read() == set(env.KNOBS)


def test_readme_environment_table_has_a_row_per_knob():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    rows = set(re.findall(r"^\s*\| `(OMP4PY_[A-Z_]+)` \|", readme,
                          flags=re.MULTILINE))
    assert rows == set(env.KNOBS)


def test_verbose_snapshot_echoes_how_the_process_was_armed(monkeypatch):
    armed = {"OMP4PY_PROFILE": "1", "OMP4PY_PROFILE_HZ": "50",
             "OMP4PY_METRICS_PORT": "0", "OMP4PY_WATCHDOG_EXIT": "1"}
    for name in env.KNOBS:
        monkeypatch.delenv(name, raising=False)
    for name, value in armed.items():
        monkeypatch.setenv(name, value)
    pure_runtime.parallel_run(lambda: None, num_threads=2)  # a pool line
    snapshot = icv_snapshot(pure_runtime, verbose=True)
    for name, value in armed.items():
        assert snapshot[name] == value
    assert "OMP4PY_TRACE" not in snapshot  # unset knobs are not echoed
    # What the runtime reports about itself is not spelled like a knob.
    assert "[omp4py] pool" in snapshot
    assert {key for key in snapshot if key.startswith("OMP4PY_")} \
        == set(armed)


def test_every_knob_is_mentioned_by_a_test():
    tests = "\n".join(path.read_text(encoding="utf-8")
                      for path in (ROOT / "tests").rglob("*.py"))
    assert [name for name in env.KNOBS if name not in tests] == []


def _clean_sum(n):
    from repro import omp
    total = 0
    with omp("parallel for reduction(+:total) num_threads(2)"):
        for i in range(n):
            total += i
    return total


def _racy_sum(n):
    from repro import omp
    total = 0
    with omp("parallel for num_threads(2)"):
        for i in range(n):
            total += i
    return total


def _force_rewrites_the_cache_file(monkeypatch, tmp_path):
    from repro import transform
    cache_dir = str(tmp_path)
    omp(_clean_sum, cache=cache_dir)
    path = os.path.join(cache_dir, os.listdir(cache_dir)[0])
    written = os.stat(path).st_ino
    # A hit without the knob, for the decorator and for a plain
    # ``transform`` call alike.
    assert omp(_clean_sum, cache=cache_dir).__omp_cached__ is False
    assert os.stat(path).st_ino != written
    assert transform(_clean_sum, cache=cache_dir).__omp_cached__ is False
    monkeypatch.delenv("OMP4PY_FORCE")
    assert omp(_clean_sum, cache=cache_dir).__omp_cached__ is True


def _racy_kernel_is_refused(monkeypatch, tmp_path):
    assert omp(_clean_sum)(10) == 45
    with pytest.raises(OmpLintError):
        omp(_racy_sum)


class _Constructed(Exception):
    """Carries the arguments ``cli.main`` built its server from."""


def _serve_cli_gets(**expected):
    def effect(monkeypatch, tmp_path):
        from repro.serve import cli

        def refuse(**arguments):
            raise _Constructed(arguments)

        monkeypatch.setattr("repro.serve.server.ServeServer", refuse)
        with pytest.raises(_Constructed) as constructed:
            cli.main([])
        arguments = constructed.value.args[0]
        assert {name: arguments[name] for name in expected} == expected
    return effect


def _serve_cli_rejects(monkeypatch, tmp_path):
    from repro.serve import cli
    assert cli.main([]) == 2  # before any server exists


@pytest.mark.parametrize("name, value, effect", [
    ("OMP4PY_FORCE", "1", _force_rewrites_the_cache_file),
    ("OMP4PY_LINT", "strict", _racy_kernel_is_refused),
    ("OMP4PY_SERVE_PORT", "0", _serve_cli_gets(port=0)),
    ("OMP4PY_SERVE_PORT", "8123", _serve_cli_gets(port=8123)),
    ("OMP4PY_SERVE_WORKERS", "3", _serve_cli_gets(workers=3)),
    ("OMP4PY_SERVE_QUEUE", "0", _serve_cli_gets(queue_capacity=0)),
    ("OMP4PY_SERVE_PORT", "http", _serve_cli_rejects),
    ("OMP4PY_SERVE_PORT", "65536", _serve_cli_rejects),
    ("OMP4PY_SERVE_WORKERS", "0", _serve_cli_rejects),
    ("OMP4PY_SERVE_QUEUE", "-1", _serve_cli_rejects),
])
def test_knob_has_its_documented_effect(name, value, effect, monkeypatch,
                                        tmp_path):
    monkeypatch.setenv(name, value)
    effect(monkeypatch, tmp_path)
