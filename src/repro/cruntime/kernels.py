"""Runtime support namespace for vectorized kernels.

Generated CompiledDT code references this module through the injected
``__omp_k__`` handle.  It deliberately re-exports NumPy plus a few
helpers whose Python spellings do not map one-to-one onto ufuncs.  It
lives beside the runtime the code runs on, not in the compiler, so
that running cached code loads nothing of :mod:`repro.compiler`.
"""

from __future__ import annotations

import numpy as np

#: The name this module is injected under.
HANDLE = "__omp_k__"

#: Re-export so generated code writes ``__omp_k__.np.add.reduce(...)``.
np = np


def arange(start, stop, step=1):
    """Iteration vector of a chunk; int64 like a C loop counter."""
    return np.arange(start, stop, step, dtype=np.int64)


def asarray(values):
    """Array view of a load base (no copy for ndarrays)."""
    return np.asarray(values)


def size(vector) -> int:
    return int(np.size(vector))


def cast_int(values):
    """``int(x)`` semantics: truncation toward zero."""
    if np.isscalar(values):
        return int(values)
    return np.trunc(values).astype(np.int64)


def cast_float(values):
    if np.isscalar(values):
        return float(values)
    return np.asarray(values, dtype=np.float64)


def logical_and(left, right):
    return np.logical_and(left, right)


def logical_or(left, right):
    return np.logical_or(left, right)
