"""The default-on ``@omp`` code cache: its key, its store, its location.

A hit has to be the miss it replaces in everything but time, an entry
may only be served to the transformation it was written by, and no
state of the cache directory — absent, read-only, damaged, contended —
may surface as anything but a slower ``transform``.
"""

from __future__ import annotations

import importlib.util
import json
import os
import pathlib
import shutil
import subprocess
import sys
import traceback
import warnings

import pytest

import repro
from repro import Mode, transform
from repro.apps import get_app, list_apps
from repro.cruntime import cruntime
from repro.decorator import _load_entry
from repro.runtime import pure_runtime

from tests.transform.test_golden import variant_digest

SRC = pathlib.Path(repro.__file__).parents[1]

_KERNEL = '''
from repro import *

def kernel(n):
    total = 0
    with omp("parallel for reduction(+:total) num_threads(2)"):
        for i in range(n):
            total += i
    return total

def typed(n):
    total: float = 0.0
    with omp("parallel for reduction(+:total) num_threads(2)"):
        for i in range(n):
            total += i * 1.0
    return total
'''


def _module(directory: pathlib.Path, name: str, source: str = _KERNEL):
    """Import ``source`` as module ``name`` from a file of its own."""
    directory.mkdir(exist_ok=True)
    path = directory / f"{name}.py"
    path.write_text(source, encoding="utf-8")
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _entries(cache: pathlib.Path) -> list[str]:
    return sorted(path.name for path in cache.iterdir())


@pytest.fixture
def cache(tmp_path):
    return tmp_path / "cache"


class TestKey:
    """Changing any one thing the generated code depends on misses."""

    def _hit(self, cache, target, mode=Mode.HYBRID, **kwargs) -> bool:
        return transform(target, mode, cache=str(cache),
                         **kwargs).__omp_cached__

    def test_same_everything_hits(self, tmp_path, cache):
        module = _module(tmp_path, "same_a")
        assert not self._hit(cache, module.kernel)
        assert self._hit(cache, module.kernel)
        assert len(_entries(cache)) == 1

    def test_module(self, tmp_path, cache):
        # The module is in the code's filename: the same text in
        # another module is another transformation.
        first = _module(tmp_path, "twin_a")
        second = _module(tmp_path, "twin_b")
        assert not self._hit(cache, first.kernel)
        assert not self._hit(cache, second.kernel)
        variant = transform(second.kernel, Mode.HYBRID, cache=str(cache))
        assert variant.__omp_cached__
        assert variant.__code__.co_filename == "<omp4py:twin_b.kernel>"

    def test_qualname(self, tmp_path, cache, monkeypatch):
        module = _module(tmp_path, "renamed")
        assert not self._hit(cache, module.kernel)
        monkeypatch.setattr(module.kernel, "__qualname__", "Other.kernel")
        assert not self._hit(cache, module.kernel)

    def test_source_text(self, tmp_path, cache):
        module = _module(tmp_path, "edited")
        assert not self._hit(cache, module.kernel)
        edited = _module(tmp_path, "edited",
                         _KERNEL.replace("total += i", "total += 2 * i"))
        variant = transform(edited.kernel, Mode.HYBRID, cache=str(cache))
        assert not variant.__omp_cached__
        assert variant(10) == 90

    def test_first_line(self, tmp_path, cache):
        # Two definitions of one name in one file differ in nothing
        # but where they start.
        twice = _KERNEL + "\nfirst = kernel\n" + _KERNEL.replace(
            "total += i", "total -= i")
        module = _module(tmp_path, "twice", twice)
        assert transform(module.first, cache=str(cache))(10) == 45
        assert transform(module.kernel, cache=str(cache))(10) == -45
        assert transform(module.first, cache=str(cache))(10) == 45

    def test_module_globals(self, tmp_path, cache):
        # A name the block assigns is declared ``global`` only when the
        # module defines it, and a star import can bring it in without
        # the file's text changing.
        source = ("from repro import *\nfrom {} import *\n\n"
                  "def kernel():\n"
                  "    with omp('parallel num_threads(1)'):\n"
                  "        shared_name = 7\n"
                  "    return shared_name\n")
        sys.modules["exports"] = _module(tmp_path, "exports",
                                         "shared_name = 1\n")
        try:
            module = _module(tmp_path, "importer", source.format("exports"))
            assert not self._hit(cache, module.kernel)
            sys.modules["exports"] = _module(tmp_path, "exports",
                                             "other_name = 1\n")
            module = _module(tmp_path, "importer", source.format("exports"))
            assert not self._hit(cache, module.kernel)
        finally:
            del sys.modules["exports"]

    def test_mode(self, tmp_path, cache):
        module = _module(tmp_path, "moded")
        assert not self._hit(cache, module.kernel, Mode.HYBRID)
        assert not self._hit(cache, module.kernel, Mode.COMPILED)
        assert self._hit(cache, module.kernel, Mode.HYBRID)

    def test_options(self, tmp_path, cache):
        module = _module(tmp_path, "optioned")
        assert not self._hit(cache, module.typed, Mode.COMPILED_DT)
        assert not self._hit(cache, module.typed, Mode.COMPILED_DT,
                             options={"boundscheck": False})
        assert self._hit(cache, module.typed, Mode.COMPILED_DT,
                         options={"boundscheck": False})
        assert self._hit(cache, module.typed, Mode.COMPILED_DT)

    def test_debug(self, tmp_path, cache):
        module = _module(tmp_path, "debugged")
        assert not self._hit(cache, module.typed, Mode.COMPILED_DT)
        # Never read (the point of ``debug`` is the compiler's output)
        # and never served to a run without it.
        assert not self._hit(cache, module.typed, Mode.COMPILED_DT,
                             debug=True)
        assert not self._hit(cache, module.typed, Mode.COMPILED_DT,
                             debug=True)
        assert len(_entries(cache)) == 2
        assert self._hit(cache, module.typed, Mode.COMPILED_DT)

    def test_python_version(self, tmp_path, cache, monkeypatch):
        module = _module(tmp_path, "versioned")
        assert not self._hit(cache, module.kernel)
        monkeypatch.setattr(sys.implementation, "cache_tag", "cpython-999")
        assert not self._hit(cache, module.kernel)

    def test_transformer_sources(self, tmp_path, cache):
        """Editing a file under ``repro/transform`` (its content; a
        changed mtime alone keeps the hits) invalidates every entry."""
        tree = tmp_path / "src"
        shutil.copytree(SRC / "repro", tree / "repro",
                        ignore=shutil.ignore_patterns("__pycache__"))
        _module(tmp_path, "fingerprinted")
        script = ("import sys; sys.path.insert(0, sys.argv[1])\n"
                  "import fingerprinted\n"
                  "from repro import transform\n"
                  "print(transform(fingerprinted.kernel).__omp_cached__)")

        def hit() -> bool:
            out = subprocess.run(
                [sys.executable, "-c", script, str(tmp_path)],
                env={**os.environ, "PYTHONPATH": str(tree),
                     "OMP4PY_CACHE": str(cache)},
                check=True, capture_output=True, text=True, timeout=120)
            return json.loads(out.stdout.lower())

        scope = tree / "repro" / "transform" / "scope.py"
        assert not hit()
        assert hit()
        os.utime(scope, ns=(1, 1))
        assert hit()
        with open(scope, "a", encoding="utf-8") as handle:
            handle.write("# edited\n")
        assert not hit()
        assert hit()
        assert len(_entries(cache)) == 2


class TestParity:
    """A hit is the miss it replaces."""

    @pytest.mark.parametrize("app_name", list_apps())
    @pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
    def test_hit_equals_miss(self, app_name, mode, cache, capsys):
        source = get_app(app_name).source(mode)
        missed = transform(source, mode, cache=str(cache), dump=True)
        dumped = capsys.readouterr().err
        hit = transform(source, mode, cache=str(cache), dump=True)
        assert (missed.__omp_cached__, hit.__omp_cached__) == (False, True)
        assert capsys.readouterr().err == dumped
        assert hit.__code__ == missed.__code__
        assert hit.__code__.co_filename == missed.__code__.co_filename \
            == f"<omp4py:{source.__module__}.{source.__qualname__}>"
        assert variant_digest(hit) == variant_digest(missed)
        for name in ("__omp_source__", "__omp_origin__", "__omp_mode__",
                     "__name__", "__qualname__", "__module__"):
            assert getattr(hit, name) == getattr(missed, name)
        assert _raised_in(hit) == _raised_in(missed)

    def test_hit_runs_on_the_right_handles(self, tmp_path, cache):
        module = _module(tmp_path, "handled")
        for _ in range(2):
            variant = transform(module.typed, Mode.COMPILED_DT,
                                cache=str(cache))
            assert variant(100) == 4950.0
            assert "__omp_k__" in variant.__omp_source__
        assert variant.__omp_cached__


def _raised_in(variant) -> list:
    """Where a call with unusable inputs fails: the generated-code
    frames of the exception and of what it wraps."""
    arguments = variant.__code__.co_varnames[:variant.__code__.co_argcount]
    try:
        variant(**{name: 2 if name == "threads" else None
                   for name in arguments})
    except Exception as error:  # noqa: BLE001 - any failure will do
        frames = []
        while error is not None:
            frames += [(frame.filename, frame.lineno, frame.name)
                       for frame in traceback.extract_tb(error.__traceback__)
                       if frame.filename.startswith("<omp4py:")]
            error = error.__cause__
        assert frames
        return frames
    raise AssertionError("the kernel accepted None for every input")


class TestLocation:
    def test_explicit_directory_beats_the_environment(
            self, tmp_path, cache, monkeypatch):
        monkeypatch.setenv("OMP4PY_CACHE", str(tmp_path / "from-env"))
        module = _module(tmp_path, "located_a")
        transform(module.kernel, cache=str(cache))
        assert len(_entries(cache)) == 1
        assert not (tmp_path / "from-env").exists()

    def test_environment_names_the_directory(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OMP4PY_CACHE", str(tmp_path / "from-env"))
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        module = _module(tmp_path, "located_b")
        transform(module.kernel)
        assert transform(module.kernel).__omp_cached__
        assert len(_entries(tmp_path / "from-env")) == 1
        assert not (tmp_path / "xdg").exists()

    def test_default_is_the_user_cache_directory(self, tmp_path,
                                                 monkeypatch):
        monkeypatch.delenv("OMP4PY_CACHE")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        monkeypatch.setenv("HOME", str(tmp_path / "home"))
        module = _module(tmp_path, "located_c")
        transform(module.kernel)
        assert transform(module.kernel).__omp_cached__
        assert len(_entries(tmp_path / "xdg" / "omp4py")) == 1
        monkeypatch.delenv("XDG_CACHE_HOME")
        assert not transform(module.kernel).__omp_cached__
        assert len(_entries(tmp_path / "home" / ".cache" / "omp4py")) == 1

    @pytest.mark.parametrize("home", ["missing", "a-file", "read-only"])
    def test_unusable_home_means_no_cache(self, tmp_path, monkeypatch,
                                          home):
        if home == "read-only" and os.geteuid() == 0:
            pytest.skip("root writes into read-only directories")
        base = tmp_path / home
        if home == "a-file":
            base.write_text("in the way", encoding="utf-8")
        elif home == "read-only":
            base.mkdir()
            base.chmod(0o500)
        else:
            base = pathlib.Path("/proc/omp4py-no-such-home")
        monkeypatch.delenv("OMP4PY_CACHE")
        module = _module(tmp_path / "modules", "homeless")
        for variable in ("XDG_CACHE_HOME", "HOME"):
            with monkeypatch.context() as patch:
                patch.delenv("XDG_CACHE_HOME", raising=False)
                patch.setenv(variable, str(base / "below"))
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    for _ in range(2):
                        variant = transform(module.kernel)
                        assert variant(10) == 45
                        assert variant.__omp_cached__ is False

    def test_no_home_at_all_means_no_cache(self, tmp_path, monkeypatch):
        monkeypatch.delenv("OMP4PY_CACHE")
        monkeypatch.delenv("XDG_CACHE_HOME", raising=False)
        monkeypatch.setattr(os.path, "expanduser", lambda path: path)
        monkeypatch.chdir(tmp_path)
        module = _module(tmp_path / "modules", "nowhere")
        assert transform(module.kernel)(10) == 45
        assert _entries(tmp_path) == ["modules"]


_RACER = """
import os, sys, time
sys.path.insert(0, sys.argv[1])
import raced
from repro import transform
while not os.path.exists(sys.argv[2]):
    time.sleep(0.001)
variant = transform(raced.kernel)
print(variant(100), variant.__omp_cached__)
"""


class TestStore:
    def test_racing_processes_leave_one_whole_entry(self, tmp_path, cache):
        _module(tmp_path, "raced")
        go = tmp_path / "go"
        racers = [subprocess.Popen(
            [sys.executable, "-c", _RACER, str(tmp_path), str(go)],
            env={**os.environ, "OMP4PY_CACHE": str(cache)},
            stdout=subprocess.PIPE, text=True) for _ in range(4)]
        go.touch()
        outputs = [racer.communicate(timeout=120)[0].split()
                   for racer in racers]
        assert [racer.returncode for racer in racers] == [0] * 4
        assert [value for value, _cached in outputs] == ["4950"] * 4
        assert "False" in [cached for _value, cached in outputs]
        (entry,) = _entries(cache)  # no second entry, no temporary file
        assert entry.endswith(".omp4py")
        assert _load_entry(str(cache / entry)) is not None

    def test_entries_of_two_processes_share_no_handle(self, tmp_path,
                                                      cache):
        """Two functions of one module, each cached by a process in
        which it was the first transform, then both hit by a third:
        the Pure one must still run on the pure runtime."""
        _module(tmp_path, "mixed", _KERNEL.replace(
            "    return total\n", "    return omp_get_max_threads()\n", 1))
        script = ("import sys; sys.path.insert(0, sys.argv[1])\n"
                  "import mixed\n"
                  "from repro import transform\n"
                  "transform(getattr(mixed, sys.argv[2]), sys.argv[3],"
                  " live_globals=True)")
        for name, mode in (("kernel", "pure"), ("typed", "hybrid")):
            subprocess.run(
                [sys.executable, "-c", script, str(tmp_path), name, mode],
                env={**os.environ, "OMP4PY_CACHE": str(cache)},
                check=True, timeout=120)
        sys.path.insert(0, str(tmp_path))
        try:
            import mixed
        finally:
            sys.path.remove(str(tmp_path))
            sys.modules.pop("mixed", None)
        on_pure = transform(mixed.kernel, "pure", cache=str(cache),
                            live_globals=True)
        on_native = transform(mixed.typed, "hybrid", cache=str(cache),
                              live_globals=True)
        assert on_pure.__omp_cached__ and on_native.__omp_cached__
        handles = {name: value for name, value in vars(mixed).items()
                   if name.startswith("__omp")}
        assert sorted(handles.values(), key=id) \
            == sorted([pure_runtime, cruntime], key=id)
        before = pure_runtime.get_max_threads(), cruntime.get_max_threads()
        try:
            pure_runtime.set_num_threads(3)
            cruntime.set_num_threads(5)
            assert on_pure(4) == 3
            assert on_native(4) == 6.0
        finally:
            pure_runtime.set_num_threads(before[0])
            cruntime.set_num_threads(before[1])
