"""Hybrid MPI/OpenMP Jacobi solver (the paper's Section IV-C).

MPI distributes the rows of A and the entries of b across ranks
("nodes"); within an iteration each rank updates its block of x with an
OpenMP ``parallel for``, the updated x is exchanged with
``Allgatherv``, and the stopping criterion is evaluated with a global
``Allreduce`` of the residual — exactly the paper's decomposition.

Each MPI rank is an external thread to the OMP4Py runtime and therefore
an independent OpenMP initial thread (paper Section III-C), which is
what makes the per-node thread teams independent.
"""

from __future__ import annotations

import numpy as np

from repro.apps.jacobi import make_input_dt, make_system
from repro.decorator import transform
from repro.modes import Mode
from repro.mpi import mpirun
from repro.api import omp

_LOCAL_KERNELS: dict[Mode, object] = {}


def local_update(a_rows, b_rows, x, x_new, rows, offset, n, threads):
    """One Jacobi sweep over this rank's rows; returns the local error.

    ``a_rows``/``b_rows`` hold only the ``rows`` rows starting at global
    row ``offset``; ``x`` is the full current solution and ``x_new`` the
    rank-local output block.
    """
    err = 0.0
    with omp("parallel for reduction(+:err) num_threads(threads)"):
        for i in range(rows):
            s = 0.0
            for j in range(n):
                s += a_rows[i][j] * x[j]
            diag = a_rows[i][offset + i]
            s -= diag * x[offset + i]
            x_new[i] = (b_rows[i] - s) / diag
            err += abs(x_new[i] - x[offset + i])
    return err


def local_update_dt(a_rows, b_rows, x, x_new, rows, offset, n, threads):
    err: float = 0.0
    with omp("parallel for reduction(+:err) num_threads(threads) "
             "schedule(static, 64)"):
        for i in range(rows):
            s: float = 0.0
            for j in range(n):
                s += a_rows[i][j] * x[j]
            diag: float = a_rows[i][offset + i]
            s -= diag * x[offset + i]
            x_new[i] = (b_rows[i] - s) / diag
            err += abs(x_new[i] - x[offset + i])
    return err


def _kernel_for(mode: Mode):
    kernel = _LOCAL_KERNELS.get(mode)
    if kernel is None:
        source = (local_update_dt if mode is Mode.COMPILED_DT
                  else local_update)
        kernel = transform(source, mode)
        _LOCAL_KERNELS[mode] = kernel
    return kernel


def _block_bounds(n: int, size: int, rank: int) -> tuple[int, int]:
    base, extra = divmod(n, size)
    offset = rank * base + min(rank, extra)
    rows = base + (1 if rank < extra else 0)
    return offset, rows


def rank_main(comm, a, b, n, iterations, tol, threads, mode):
    """Per-rank driver (runs in every 'node')."""
    mode = Mode.parse(mode)
    kernel = _kernel_for(mode)
    offset, rows = _block_bounds(n, comm.size, comm.rank)
    a_rows = np.array([a[offset + i] for i in range(rows)], dtype=float)
    b_rows = np.array(b[offset:offset + rows], dtype=float)
    x = np.zeros(n)
    x_next = np.zeros(n)
    x_new = np.zeros(rows)
    for _iteration in range(iterations):
        local_err = kernel(a_rows, b_rows, x, x_new, rows, offset, n,
                           threads)
        comm.Allgatherv(x_new, x_next)
        err = comm.allreduce(local_err)
        x, x_next = x_next, x
        if err < tol:
            break
    return x


def solve(nodes, threads, n, iterations=1000, tol=1e-6, seed=1234,
          mode=Mode.HYBRID):
    """Launch the hybrid solver on ``nodes`` ranks; return x."""
    a, b = make_system(n, seed)
    results = mpirun(nodes, rank_main, a, b, n, iterations, tol, threads,
                     mode)
    return results[0]


def reference(n, seed=1234):
    system = make_input_dt(n, seed=seed)
    return np.linalg.solve(system["a"], system["b"])


def verify(result, n, seed=1234, atol=1e-4) -> bool:
    return bool(np.allclose(np.asarray(result), reference(n, seed),
                            atol=atol))


SIZES = {
    "test": {"n": 48, "iterations": 200},
    "default": {"n": 256, "iterations": 100},
    "paper": {"n": 3000, "iterations": 1000},
    "paper_dt": {"n": 20000, "iterations": 1000},
}
