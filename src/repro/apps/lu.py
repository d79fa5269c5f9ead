"""In-place LU decomposition without pivoting (the paper's *lu*).

Paper configuration: 2000×2000 matrix; constructs: ``parallel``,
multiple ``for`` loops, ``single`` (Table I).  Diagonal dominance makes
the no-pivoting factorization stable; verification reconstructs
L·U ≈ A.
"""

from __future__ import annotations

import random

import numpy as np

from repro.apps.base import AppSpec
from repro.apps.draws import as_arrays, as_lists, dominant_rows
from repro.api import omp


def draw_matrix(n: int, seed: int = 4321):
    """The matrix's rows (see :mod:`repro.apps.draws`)."""
    yield "a", (n, n), dominant_rows(random.Random(seed).random, n)


def make_matrix(n: int, seed: int = 4321):
    return as_lists(draw_matrix(n, seed))["a"]


def make_input(n: int, seed: int = 4321) -> dict:
    return {**as_lists(draw_matrix(n, seed)), "n": n}


def make_input_dt(n: int, seed: int = 4321) -> dict:
    return {**as_arrays(draw_matrix(n, seed)), "n": n}


def sequential(a, n):
    for k in range(n - 1):
        pivot = a[k][k]
        for i in range(k + 1, n):
            a[i][k] = a[i][k] / pivot
        for i in range(k + 1, n):
            factor = a[i][k]
            row_i = a[i]
            row_k = a[k]
            for j in range(k + 1, n):
                row_i[j] -= factor * row_k[j]
    return a


def kernel(a, n, threads):
    inv_pivot = 0.0
    with omp("parallel num_threads(threads)"):
        for k in range(n - 1):
            with omp("single"):
                inv_pivot = 1.0 / a[k][k]
            with omp("for"):
                for i in range(k + 1, n):
                    a[i][k] = a[i][k] * inv_pivot
            with omp("for"):
                for i in range(k + 1, n):
                    factor = a[i][k]
                    for j in range(k + 1, n):
                        a[i][j] -= factor * a[k][j]
    return a


def kernel_dt(a, n, threads):
    inv_pivot: float = 0.0
    with omp("parallel num_threads(threads)"):
        for k in range(n - 1):
            with omp("single"):
                inv_pivot = 1.0 / a[k][k]
            with omp("for"):
                for i in range(k + 1, n):
                    # 2-D indexing so the multiplier column vectorizes.
                    a[i, k] = a[i, k] * inv_pivot
            with omp("for"):
                for i in range(k + 1, n):
                    factor: float = a[i][k]
                    for j in range(k + 1, n):
                        a[i][j] -= factor * a[k][j]
    return a


def pyomp_kernel(a, n, threads):
    inv_pivot: float = 0.0
    with openmp("parallel num_threads(threads)"):  # noqa: F821
        for k in range(n - 1):
            with openmp("single"):  # noqa: F821
                inv_pivot = 1.0 / a[k][k]
            with openmp("for"):  # noqa: F821
                for i in range(k + 1, n):
                    a[i][k] = a[i][k] * inv_pivot
            with openmp("for"):  # noqa: F821
                for i in range(k + 1, n):
                    factor: float = a[i][k]
                    for j in range(k + 1, n):
                        a[i][j] -= factor * a[k][j]
    return a


def verify(result, reference) -> bool:
    factored = np.array(result, dtype=float)
    expected = np.array(reference, dtype=float)
    if not np.allclose(factored, expected, atol=1e-8):
        return False
    # Independent check: the factors reconstruct the original matrix.
    n = factored.shape[0]
    lower = np.tril(factored, -1) + np.eye(n)
    upper = np.triu(factored)
    original = make_input_dt(n)["a"]
    return bool(np.allclose(lower @ upper, original, atol=1e-6))


SPEC = AppSpec(
    name="lu",
    title="LU decomposition",
    make_input=make_input,
    make_input_dt=make_input_dt,
    sequential=sequential,
    kernel=kernel,
    kernel_dt=kernel_dt,
    pyomp=pyomp_kernel,
    verify=verify,
    sizes={
        "test": {"n": 32},
        "default": {"n": 256},
        "paper": {"n": 2000},
    },
    table1=("parallel, multiple for loops, single", "Implicit barriers"),
)
