"""Golden digests of what the transformer generates.

Transformer speed-ups may not change the generated code: for every app
× mode this hashes ``__omp_source__`` (the runtime handle's number
normalised) together with the ``co_lines()`` table of the variant's code
object and every code object nested in it.  ``golden_digests.json`` was
computed on the commit *before* the linear-time transformer landed; run
``python tests/transform/test_golden.py`` to print the current digests
when a change to the generated code is intended.

Bytecode offsets and ``ast.unparse`` details differ between Python
minor versions, so digests are keyed by version and unknown versions
skip.

The five numeric apps' CompiledDT variants have two digests: under the
version key the native tier's (the generated code calls C kernels
through a handle named after the digest of their C text, so the C text
is pinned with it), and under ``<version>/no-compiler`` what the same
transform generates where no C compiler can be found: the typed loops
as written.  Every other digest is the same with and without a
compiler.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import re
import sys
import types

import pytest

from repro import Mode, transform
from repro.apps import get_app, list_apps
from repro.cruntime.native import find_compiler

_GOLDEN = pathlib.Path(__file__).with_name("golden_digests.json")
_VERSION = "%d.%d" % sys.version_info[:2]
_HANDLE = re.compile(r"__omp\d+__")


def _line_tables(code: types.CodeType) -> list:
    tables = [[code.co_name, list(code.co_lines())]]
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            tables.extend(_line_tables(const))
    return tables


def variant_digest(variant) -> str:
    generated = _HANDLE.sub("__ompN__", variant.__omp_source__)
    payload = json.dumps([generated, _line_tables(variant.__code__)])
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def digest(app_name: str, mode: Mode) -> str:
    # A fresh transform: not the spec's variant, not a code-cache hit.
    return variant_digest(transform(get_app(app_name).source(mode), mode,
                                    force=True))


def current_digests() -> dict[str, str]:
    return {f"{app}/{mode.value}": digest(app, mode)
            for app in list_apps() for mode in Mode}


def _golden(compiler: bool = True) -> dict[str, str]:
    """The digests of this Python version, as generated with a C
    compiler at hand or without one."""
    table = json.loads(_GOLDEN.read_text(encoding="utf-8"))
    golden = dict(table.get(_VERSION, {}))
    if not compiler:
        golden.update(table.get(_VERSION + "/no-compiler", {}))
    return golden


@pytest.mark.skipif(not _golden(),
                    reason=f"no golden digests for Python {_VERSION}")
@pytest.mark.parametrize("app_name", list_apps())
@pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
def test_generated_code_is_unchanged(app_name, mode):
    golden = _golden(compiler=find_compiler()[0] is not None)
    assert digest(app_name, mode) == golden[f"{app_name}/{mode.value}"]


@pytest.mark.skipif(not _golden(),
                    reason=f"no golden digests for Python {_VERSION}")
@pytest.mark.parametrize("app_name", list_apps())
def test_without_a_compiler_compileddt_is_the_numpy_tier(app_name,
                                                         monkeypatch):
    """Without a compiler there is no kernel and no handle: the
    digests under the second key are of the loops as written.  (The
    name is older than that: a NumPy tier used to run here.)"""
    monkeypatch.setenv("CC", "/nonexistent")
    variant = transform(get_app(app_name).source(Mode.COMPILED_DT),
                        Mode.COMPILED_DT, force=True)
    assert variant.__omp_native__ == ()
    assert variant_digest(variant) \
        == _golden(compiler=False)[f"{app_name}/compileddt"]


def test_compiled_generates_what_hybrid_generates():
    """*Compiled* has no pass of its own (see :mod:`repro.compiler`):
    under every key its digests are *Hybrid*'s."""
    table = json.loads(_GOLDEN.read_text(encoding="utf-8"))
    for key, golden in table.items():
        assert {app: digest for app, digest in golden.items()
                if app.endswith("/compiled")} == {
            app.replace("/hybrid", "/compiled"): digest
            for app, digest in golden.items() if app.endswith("/hybrid")
        }, key


def test_golden_covers_every_pair():
    golden = _golden()
    if golden:
        assert set(golden) == {f"{app}/{mode.value}"
                               for app in list_apps() for mode in Mode}


if __name__ == "__main__":
    # Run with CC=/nonexistent for the digests of the second key.
    print(json.dumps({_VERSION: current_digests()}, indent=1))
