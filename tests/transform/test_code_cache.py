"""The default-on ``@omp`` code cache: its key, its store, its location.

A hit has to be the miss it replaces in everything but time, an entry
may only be served to the transformation it was written by, and no
state of the cache directory — absent, read-only, damaged, contended —
may surface as anything but a slower ``transform``.  The same goes for
the shared objects of native CompiledDT kernels that live beside the
entries (``TestNativeObjects``): a hit needs no compiler, and a missing
or damaged object means a rebuild or the NumPy tier, never a crash.
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
from repro.cruntime.native import find_compiler
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
    """Everything in the cache directory but the shared objects of
    native kernels (:func:`_objects`): entries, and whatever a store
    that went wrong left lying around."""
    return sorted(path.name for path in cache.iterdir()
                  if path.suffix != ".so")


def _objects(cache: pathlib.Path) -> list[str]:
    return sorted(path.name for path in cache.iterdir()
                  if path.suffix == ".so")


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


_TYPED_RUN = """
import json, os, sys
sys.path.insert(0, sys.argv[1])
import nativemod
from repro import transform
variant = transform(nativemod.typed, "compileddt")
mapped = [line.split()[-1] for line in open("/proc/self/maps")
          if line.rstrip().endswith(".so")
          and os.environ["OMP4PY_CACHE"] in line]
value = variant(1000)
mapped_after = [line.split()[-1] for line in open("/proc/self/maps")
                if line.rstrip().endswith(".so")
                and os.environ["OMP4PY_CACHE"] in line]
print(json.dumps({
    "value": value, "cached": variant.__omp_cached__,
    "native": list(variant.__omp_native__),
    "mapped_before_the_call": sorted(set(mapped)),
    "mapped": sorted(set(mapped_after)),
    "compiler": sorted(name for name in sys.modules
                       if name.startswith("repro.compiler"))}))
"""


def _typed_run(tmp_path, cache, **env) -> dict:
    out = subprocess.run(
        [sys.executable, "-c", _TYPED_RUN, str(tmp_path)],
        env={**os.environ, "OMP4PY_CACHE": str(cache), **env},
        check=True, capture_output=True, text=True, timeout=120)
    assert out.stderr == ""
    return json.loads(out.stdout)


needs_compiler = pytest.mark.skipif(find_compiler()[0] is None,
                                    reason="no C compiler")


def _fake_compiler(tmp_path, body: str) -> str:
    """A ``CC`` that identifies itself and then does ``body``."""
    path = tmp_path / "fakecc"
    path.write_text(
        "#!/bin/sh\n"
        'if [ "$1" = "--version" ]; then echo "fakecc 1.0"; exit 0; fi\n'
        + body + "\n", encoding="utf-8")
    path.chmod(0o755)
    return str(path)


@needs_compiler
class TestNativeObjects:
    """The shared objects of CompiledDT kernels, beside the entries."""

    @pytest.fixture
    def module(self, tmp_path):
        return _module(tmp_path, "nativemod")

    def typed(self, module, cache, **kwargs):
        return transform(module.typed, Mode.COMPILED_DT, cache=str(cache),
                         **kwargs)

    def test_a_hit_needs_no_compiler_and_runs_native(self, tmp_path,
                                                     cache, module):
        built = _typed_run(tmp_path, cache)
        assert (built["cached"], built["native"]) == (False, ["L3"])
        assert built["compiler"] != []
        (object_,) = _objects(cache)
        # Process B: nothing to compile with anywhere.
        hit = _typed_run(tmp_path, cache, PATH="", CC="")
        assert hit["value"] == built["value"] == 499500.0
        assert (hit["cached"], hit["native"]) == (True, ["L3"])
        assert hit["compiler"] == []
        # Opened by the first call, not by the transform.
        assert hit["mapped_before_the_call"] == []
        assert hit["mapped"] == [str(cache / object_)]
        assert _objects(cache) == [object_]

    def test_racing_processes_leave_one_whole_object(self, tmp_path,
                                                     cache):
        _module(tmp_path, "raced", _KERNEL.replace(
            "def kernel(n)", "def untyped(n)").replace(
            "def typed(n)", "def kernel(n)"))
        go = tmp_path / "go"
        racers = [subprocess.Popen(
            [sys.executable, "-c",
             _RACER.replace("transform(raced.kernel)",
                            "transform(raced.kernel, 'compileddt')"),
             str(tmp_path), str(go)],
            env={**os.environ, "OMP4PY_CACHE": str(cache)},
            stdout=subprocess.PIPE, text=True) for _ in range(4)]
        go.touch()
        outputs = [racer.communicate(timeout=120)[0].split()
                   for racer in racers]
        assert [racer.returncode for racer in racers] == [0] * 4
        assert [value for value, _cached in outputs] == ["4950.0"] * 4
        (entry,) = _entries(cache)  # no temporary file or directory
        (object_,) = _objects(cache)
        native = _load_entry(str(cache / entry))[3]
        assert native["so"] == object_

    # (What the loader does with garbage and with an empty file is
    # ``tests/compiler/test_native.py::TestLoader``'s, in-process.)
    @pytest.mark.parametrize("damage", ["truncated", "foreign-arch",
                                        "deleted"])
    def test_a_damaged_object_means_numpy_then_a_rebuild(
            self, tmp_path, cache, module, damage):
        built = _typed_run(tmp_path, cache)
        (object_,) = _objects(cache)
        path = cache / object_
        whole = path.read_bytes()
        if damage == "truncated":
            path.write_bytes(whole[:len(whole) // 2])
        elif damage == "foreign-arch":
            # e_machine (offset 18): some other architecture's object.
            other = b"\xb7\x00" if whole[18:20] != b"\xb7\x00" \
                else b"\x3e\x00"
            path.write_bytes(whole[:18] + other + whole[20:])
        else:
            path.unlink()
        after = _typed_run(tmp_path, cache)
        assert after["value"] == built["value"]
        if damage == "deleted":
            # The entry without its object is a miss: rebuilt at once.
            assert (after["cached"], after["native"]) == (False, ["L3"])
        else:
            # A hit whose object does not load runs the guard branch
            # (the NumPy statements) and removes the file ...
            assert (after["cached"], after["mapped"]) == (True, [])
            assert _objects(cache) == []
            # ... so the next process rebuilds it.
            again = _typed_run(tmp_path, cache)
            assert (again["cached"], again["native"]) == (False, ["L3"])
            assert again["mapped"] == [str(path)]
        assert (cache / object_).read_bytes()[:4] == b"\x7fELF"
        assert len(_entries(cache)) == 1

    def test_a_deleted_object_and_no_compiler_is_the_numpy_tier(
            self, cache, module, monkeypatch):
        assert self.typed(module, cache).__omp_native__ == ("L3",)
        (object_,) = _objects(cache)
        (cache / object_).unlink()
        monkeypatch.setenv("CC", "/nonexistent")
        variant = self.typed(module, cache)
        assert (variant.__omp_cached__, variant.__omp_native__) \
            == (False, ())
        assert variant(100) == 4950.0
        assert self.typed(module, cache).__omp_cached__
        assert _objects(cache) == []

    def test_force_recompiles_python_and_reuses_the_object(self, cache,
                                                           module):
        first = self.typed(module, cache)
        (object_,) = _objects(cache)
        before = (cache / object_).stat()
        (entry,) = _entries(cache)
        os.utime(cache / entry, ns=(1, 1))
        forced = self.typed(module, cache, force=True)
        assert forced.__omp_cached__ is False
        assert (cache / entry).stat().st_mtime_ns != 1  # rewritten
        after = (cache / object_).stat()
        assert (after.st_ino, after.st_mtime_ns) \
            == (before.st_ino, before.st_mtime_ns)
        assert forced.__omp_native__ == first.__omp_native__
        assert variant_digest(forced) == variant_digest(first)

    def test_an_entry_written_without_a_compiler_is_upgraded(
            self, cache, module, monkeypatch):
        with monkeypatch.context() as patch:
            patch.setenv("CC", "/nonexistent")
            plain = self.typed(module, cache)
            assert (plain.__omp_cached__, plain.__omp_native__) \
                == (False, ())
            assert self.typed(module, cache).__omp_cached__
            assert _objects(cache) == []
        upgraded = self.typed(module, cache)
        assert (upgraded.__omp_cached__, upgraded.__omp_native__) \
            == (False, ("L3",))
        assert self.typed(module, cache).__omp_cached__
        assert upgraded(100) == plain(100) == 4950.0
        assert len(_entries(cache)) == 1

    def test_a_failed_build_is_the_numpy_tier_and_is_not_retried(
            self, tmp_path, cache, module, monkeypatch, capsys):
        with monkeypatch.context() as patch:
            patch.setenv("CC", "/nonexistent")
            reference = variant_digest(self.typed(
                module, tmp_path / "other-cache"))
        monkeypatch.setenv("CC", _fake_compiler(
            tmp_path, 'echo "fakecc: internal error" >&2; exit 1'))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            failed = self.typed(module, cache)
        assert (failed.__omp_cached__, failed.__omp_native__) == (False, ())
        assert variant_digest(failed) == reference
        assert failed(100) == 4950.0
        assert capsys.readouterr() == ("", "")  # silently
        # Not on every transform: the entry records the failure.
        assert self.typed(module, cache).__omp_cached__
        assert len(_entries(cache)) == 1
        assert _objects(cache) == []
        self.typed(module, cache, debug=True)
        assert "[omp4py:native] unavailable: build failed: fakecc: " \
            "internal error" in capsys.readouterr().out

    def test_a_build_that_hangs_is_killed_and_leaves_nothing(
            self, tmp_path, cache, module, monkeypatch):
        from repro.compiler import cbackend
        monkeypatch.setattr(cbackend, "_BUILD_TIMEOUT_S", 0.5)
        marker = tmp_path / "compiler.pid"
        monkeypatch.setenv("CC", _fake_compiler(
            tmp_path, f'echo $$ > {marker}; sleep 60 & wait'))
        variant = self.typed(module, cache)
        assert variant.__omp_native__ == ()
        assert variant(100) == 4950.0
        pid = int(marker.read_text())
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)  # reaped, and its group with it
        assert len(_entries(cache)) == 1  # no .build-* directory
        assert _objects(cache) == []

    def test_an_unwritable_directory_is_the_numpy_tier(self, tmp_path,
                                                       module):
        blocker = tmp_path / "a-file"
        blocker.write_text("in the way", encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for _ in range(2):
                variant = self.typed(module, blocker / "below")
                assert variant(100) == 4950.0
                assert (variant.__omp_cached__, variant.__omp_native__) \
                    == (False, ())

    def test_debug_and_dump_show_the_tier(self, cache, module, capsys):
        self.typed(module, cache, debug=True)
        assert "[omp4py:native] line 3: omp4py_site_0" \
            in capsys.readouterr().out
        self.typed(module, cache, dump=True)
        dumped = capsys.readouterr().err
        python, _mark, c_text = dumped.partition(
            "/* --- omp4py native kernels --- */")
        assert "def typed(n):" in python
        assert "int64_t omp4py_site_0(int64_t *iv, double *dv)" in c_text
