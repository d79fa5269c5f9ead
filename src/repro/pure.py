"""Pure-mode entry point (the paper's ``import omp4py.pure``).

Importing this module gives an ``omp`` decorator that defaults to the
*Pure* execution mode and ``omp_*`` functions bound to the pure-Python
runtime — the ``cruntime`` instance is never imported.
"""

from __future__ import annotations

import functools

from repro import api
from repro.modes import Mode
from repro.runtime import pure_runtime
from repro.transform.api_map import OMP_API_METHODS


def omp(target=None, /, **options):
    """Like :func:`repro.omp`, but defaulting to *Pure* mode."""
    if isinstance(target, str):
        return api.omp(target)
    options.setdefault("mode", Mode.PURE)
    if target is None:
        return lambda obj: api.omp(obj, **options)
    return api.omp(target, **options)


def _bind(method_name: str):
    method = getattr(pure_runtime, method_name)

    @functools.wraps(method)
    def bound(*args, **kwargs):
        return method(*args, **kwargs)

    return bound


_PURE_FUNCTIONS = {public: _bind(method)
                   for public, method in OMP_API_METHODS.items()}
globals().update(_PURE_FUNCTIONS)

__all__ = ["omp", *_PURE_FUNCTIONS]
