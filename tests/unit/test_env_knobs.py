"""The ``OMP4PY_*`` names are listed once (``env.KNOBS``): every name
``env.py`` reads is in the list, a diagnostic report echoes from it,
and README's environment table has a row for each."""

import pathlib
import re

import repro
from repro import env
from repro.diagnostics.envreport import icv_snapshot
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
    snapshot = icv_snapshot(pure_runtime, verbose=True)
    for name, value in armed.items():
        assert snapshot[name] == value
    assert "OMP4PY_TRACE" not in snapshot  # unset knobs are not echoed
