"""The two ways a typed loop can run, for differential tests.

``lower(source, tier)`` runs the CompiledDT lowering over a plain
function source (no directives) and returns the result ready to call:

* ``"native"`` — C kernels built with the system compiler into the
  session's cache directory (skipped where there is no compiler);
* ``"interpreted"`` — the source as written, the reference, and what
  a typed loop runs as where there is no compiler.

Every tier must compute the same values within the calling suite's
tolerances, raise the same exceptions and store the same elements
before it does.
"""

from __future__ import annotations

import ast
import dataclasses
import os

import pytest

from repro.compiler.cbackend import NativeTarget
from repro.compiler.vectorize import VectorizePass
from repro.cruntime import native
from repro.transform.context import TransformContext

TIERS = ("native", "interpreted")


@dataclasses.dataclass
class Lowered:
    tier: str
    namespace: dict
    #: ``VectorizePass.report``: (line, outcome) per loop looked at.
    report: list
    #: The bound kernels: slot ``n`` is site ``n``.
    sites: list
    #: Per site ``[ran, declined]``, filled once :meth:`count` was called.
    calls: list = dataclasses.field(default_factory=list)

    def __call__(self, name: str, *args):
        return self.namespace[name](*args)

    @property
    def outcomes(self) -> list[str]:
        return [outcome for _line, outcome in self.report]

    def took_a_loop(self) -> bool:
        """Did this tier lower at least one loop?  (The interpreted
        tier lowers nothing and always says yes: it is the reference.)"""
        return self.tier == "interpreted" or "native" in self.outcomes

    def count(self) -> list:
        """Start counting kernel calls: ``calls[n] == [ran, declined]``."""
        self.calls = [[0, 0] for _ in self.sites]
        self.sites[:] = [counting(kernel, tally)
                         for kernel, tally in zip(self.sites, self.calls)]
        return self.calls


def counting(kernel, tally: list):
    """``kernel`` with its calls tallied as ``[ran, declined]``."""
    def call(*operands):
        result = kernel(*operands)
        tally[result is None] += 1
        return result
    return call


def compiler_or_skip() -> None:
    argv, reason = native.find_compiler()
    if argv is None:
        pytest.skip(f"no native tier here: {reason}")


def available_tiers() -> tuple[str, ...]:
    """``TIERS``, less the native one where there is no compiler."""
    return TIERS if native.find_compiler()[0] else TIERS[1:]


def lower_each(source: str, index: int = 0) -> list[Lowered]:
    """``source`` lowered for every tier this machine has.  Suites
    that predate the native tier loop over this inside each test, so
    the tests keep their names."""
    return [lower(source, tier, index) for tier in available_tiers()]


def lower(source: str, tier: str, index: int = 0) -> Lowered:
    """Lower definition ``index`` of ``source`` for ``tier``."""
    namespace: dict = {}
    if tier == "interpreted":
        exec(compile(source, "<interpreted>", "exec"), namespace)
        return Lowered(tier, namespace, [], [])
    cache = os.environ["OMP4PY_CACHE"]
    compiler_or_skip()
    target, reason = NativeTarget.probe(cache)
    assert target is not None, reason
    tree = ast.parse(source)
    ctx = TransformContext("__omp0__", set(), set())
    vectorizer = VectorizePass(ctx, native=target)
    node = vectorizer.run(tree.body[index])
    module = ast.Module(body=tree.body[:index] + [node], type_ignores=[])
    ast.fix_missing_locations(module)
    sites: list = []
    if target.sites:
        entry, reason = target.finish()
        assert entry is not None, reason
        sites = list(native.bind(os.path.join(cache, entry["so"]),
                                 entry["sites"]))
        namespace[entry["handle"]] = sites
    exec(compile(module, f"<{tier}>", "exec"), namespace)
    return Lowered(tier, namespace, vectorizer.report, sites)
