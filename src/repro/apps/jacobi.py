"""Jacobi iterative solver for A·x = b (the paper's *jacobi*).

Paper configuration: 3000×3000 diagonally dominant system, up to 1000
iterations, 1e-6 tolerance; constructs: ``parallel``, ``for
reduction(+)``, ``single``, and an explicit barrier (Table I).
"""

from __future__ import annotations

import random

import numpy as np

from repro.apps.base import AppSpec
from repro.apps.draws import as_arrays, as_lists, dominant_rows, uniform
from repro.api import omp


def draw_system(n: int, seed: int = 1234):
    """A's rows, diagonally dominant so the iteration converges, then
    b (see :mod:`repro.apps.draws`)."""
    draw = random.Random(seed).random
    yield "a", (n, n), dominant_rows(draw, n)
    yield "b", (n,), uniform(draw, -10.0, 10.0, n)


def make_system(n: int, seed: int = 1234):
    system = as_lists(draw_system(n, seed))
    return system["a"], system["b"]


def make_input(n: int, iterations: int = 1000, tol: float = 1e-6,
               seed: int = 1234) -> dict:
    return {**as_lists(draw_system(n, seed)), "n": n,
            "iterations": iterations, "tol": tol}


def make_input_dt(n: int, iterations: int = 1000, tol: float = 1e-6,
                  seed: int = 1234) -> dict:
    return {**as_arrays(draw_system(n, seed)), "n": n,
            "iterations": iterations, "tol": tol}


def sequential(a, b, n, iterations, tol):
    x = [0.0] * n
    x_new = [0.0] * n
    for _iteration in range(iterations):
        err = 0.0
        for i in range(n):
            s = 0.0
            for j in range(n):
                s += a[i][j] * x[j]
            s -= a[i][i] * x[i]
            x_new[i] = (b[i] - s) / a[i][i]
            err += abs(x_new[i] - x[i])
        x, x_new = x_new, x
        if err < tol:
            break
    return x


def kernel(a, b, n, iterations, tol, threads):
    x = [0.0] * n
    x_new = [0.0] * n
    err = 0.0
    converged = False
    with omp("parallel num_threads(threads)"):
        iteration = 0
        while iteration < iterations and not converged:
            with omp("for reduction(+:err) nowait"):
                for i in range(n):
                    s = 0.0
                    for j in range(n):
                        s += a[i][j] * x[j]
                    s -= a[i][i] * x[i]
                    x_new[i] = (b[i] - s) / a[i][i]
                    err += abs(x_new[i] - x[i])
            omp("barrier")
            with omp("single"):
                for k in range(n):
                    x[k] = x_new[k]
                converged = err < tol
                err = 0.0
            iteration += 1
    return x


def kernel_dt(a, b, n, iterations, tol, threads):
    x = np.zeros(n)
    x_new = np.zeros(n)
    err: float = 0.0
    converged = False
    with omp("parallel num_threads(threads)"):
        iteration = 0
        while iteration < iterations and not converged:
            with omp("for reduction(+:err) nowait"):
                for i in range(n):
                    s: float = 0.0
                    for j in range(n):
                        s += a[i][j] * x[j]
                    s -= a[i][i] * x[i]
                    x_new[i] = (b[i] - s) / a[i][i]
                    err += abs(x_new[i] - x[i])
            omp("barrier")
            with omp("single"):
                for k in range(n):
                    x[k] = x_new[k]
                converged = err < tol
                err = 0.0
            iteration += 1
    return x


def pyomp_kernel(a, b, n, iterations, tol, threads):
    x = np.zeros(n)
    x_new = np.zeros(n)
    err: float = 0.0
    converged = False
    with openmp("parallel num_threads(threads)"):  # noqa: F821
        iteration = 0
        while iteration < iterations and not converged:
            with openmp("for reduction(+:err)"):  # noqa: F821
                for i in range(n):
                    s: float = 0.0
                    for j in range(n):
                        s += a[i][j] * x[j]
                    s -= a[i][i] * x[i]
                    x_new[i] = (b[i] - s) / a[i][i]
                    err += abs(x_new[i] - x[i])
            with openmp("single"):  # noqa: F821
                for k in range(n):
                    x[k] = x_new[k]
                converged = err < tol
                err = 0.0
            iteration += 1
    return x


def verify(result, reference) -> bool:
    result = np.asarray(result, dtype=float)
    reference = np.asarray(reference, dtype=float)
    return bool(np.allclose(result, reference, atol=1e-4))


SPEC = AppSpec(
    name="jacobi",
    title="Jacobi method",
    make_input=make_input,
    make_input_dt=make_input_dt,
    sequential=sequential,
    kernel=kernel,
    kernel_dt=kernel_dt,
    pyomp=pyomp_kernel,
    verify=verify,
    sizes={
        "test": {"n": 40, "iterations": 100},
        "default": {"n": 512, "iterations": 60},
        "paper": {"n": 3000, "iterations": 1000},
    },
    table1=("parallel, for reduction(+), single", "Explicit barrier"),
)
