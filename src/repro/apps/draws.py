"""Seeded draws that an app's two input builders share.

Each numeric app (jacobi, lu, md, fft) has one draw routine: a
generator of ``(field, shape, values)`` in draw order, where
``values`` lazily yields the field's rows (a matrix, as lists) or its
floats (a vector).  Its two builders differ only in the container:

* :func:`as_lists` collects the fields into lists (the input of the
  Pure, Hybrid and Compiled modes);
* :func:`as_arrays` writes them into C-contiguous ``float64`` arrays
  (CompiledDT's input): a matrix row by row into ``np.empty``, a
  vector through ``np.fromiter``, so the list of Python floats is
  never built.

Both consume a field in full before asking for the next one, which
keeps the draw order.  Values are bit-identical in the two containers
and to ``random.Random(seed).uniform`` by construction: :func:`uniform`
evaluates the expression ``Random.uniform`` does, ``lo + (hi - lo) *
random()``, calling the bound C-level ``random`` directly.
"""

from __future__ import annotations

import numpy as np


def uniform(draw, lo: float, hi: float, count: int):
    """``count`` values of ``Random.uniform(lo, hi)``, lazily, where
    ``draw`` is the generator's bound ``random``."""
    span = hi - lo
    return (lo + span * draw() for _ in range(count))


def dominant_rows(draw, n: int):
    """``n`` rows of ``uniform(-1, 1)`` draws, each with its diagonal
    raised to the row's absolute sum plus one (diagonal dominance)."""
    for i in range(n):
        row = list(uniform(draw, -1.0, 1.0, n))
        row[i] = sum(map(abs, row)) + 1.0
        yield row


def as_lists(fields) -> dict:
    return {name: list(values) for name, _shape, values in fields}


def as_arrays(fields) -> dict:
    arrays = {}
    for name, shape, values in fields:
        if len(shape) == 1:
            arrays[name] = np.fromiter(values, np.float64, shape[0])
            continue
        array = arrays[name] = np.empty(shape)
        for i, row in enumerate(values):
            array[i] = row
    return arrays
