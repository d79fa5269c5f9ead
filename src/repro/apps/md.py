"""Molecular dynamics with velocity Verlet (the paper's *md*).

Paper configuration: 8000 particles, central pair potential, velocity
Verlet integration; constructs: ``parallel reduction(+)`` with an inner
``for``, plus a ``parallel for`` (Table I).

The pair potential is harmonic around ``d0`` (a central potential, as
in the classic OpenMP md benchmark); forces and potential energy come
from the all-pairs inner loop, kinetic energy from the update loop's
reduction.
"""

from __future__ import annotations

import itertools
import math
import random

from repro.apps.base import AppSpec
from repro.apps.draws import as_arrays, as_lists, uniform
from repro.api import omp

D0 = 1.0  # equilibrium pair distance
DT = 1e-4
MASS = 1.0


def draw_particles(n: int, seed: int = 97):
    """Positions in a cube of about unit density, then velocities;
    accelerations start at zero (see :mod:`repro.apps.draws`)."""
    draw = random.Random(seed).random
    side = max(1.0, n ** (1.0 / 3.0))
    for name in ("px", "py", "pz"):
        yield name, (n,), uniform(draw, 0.0, side, n)
    for name in ("vx", "vy", "vz"):
        yield name, (n,), uniform(draw, -1.0, 1.0, n)
    for name in ("ax", "ay", "az"):
        yield name, (n,), itertools.repeat(0.0, n)


def make_input(n: int, steps: int = 2, seed: int = 97) -> dict:
    return {**as_lists(draw_particles(n, seed)), "n": n, "steps": steps}


def make_input_dt(n: int, steps: int = 2, seed: int = 97) -> dict:
    return {**as_arrays(draw_particles(n, seed)), "n": n,
            "steps": steps}


def _forces_seq(px, py, pz, ax, ay, az, n):
    potential = 0.0
    for i in range(n):
        fx = fy = fz = 0.0
        for j in range(n):
            if j == i:
                continue
            dx = px[i] - px[j]
            dy = py[i] - py[j]
            dz = pz[i] - pz[j]
            d = math.sqrt(dx * dx + dy * dy + dz * dz)
            potential += 0.25 * (d - D0) * (d - D0)
            pull = (D0 - d) / d
            fx += pull * dx
            fy += pull * dy
            fz += pull * dz
        ax[i] = fx / MASS
        ay[i] = fy / MASS
        az[i] = fz / MASS
    return potential


def sequential(px, py, pz, vx, vy, vz, ax, ay, az, n, steps):
    potential = _forces_seq(px, py, pz, ax, ay, az, n)
    kinetic = 0.0
    for _step in range(steps):
        for i in range(n):
            px[i] += vx[i] * DT + 0.5 * ax[i] * DT * DT
            py[i] += vy[i] * DT + 0.5 * ay[i] * DT * DT
            pz[i] += vz[i] * DT + 0.5 * az[i] * DT * DT
            vx[i] += 0.5 * ax[i] * DT
            vy[i] += 0.5 * ay[i] * DT
            vz[i] += 0.5 * az[i] * DT
        potential = _forces_seq(px, py, pz, ax, ay, az, n)
        kinetic = 0.0
        for i in range(n):
            vx[i] += 0.5 * ax[i] * DT
            vy[i] += 0.5 * ay[i] * DT
            vz[i] += 0.5 * az[i] * DT
            kinetic += 0.5 * MASS * (vx[i] * vx[i] + vy[i] * vy[i]
                                     + vz[i] * vz[i])
    return potential, kinetic


def kernel(px, py, pz, vx, vy, vz, ax, ay, az, n, steps, threads):
    import math
    d0 = 1.0
    dt = 1e-4
    potential = 0.0
    kinetic = 0.0
    with omp("parallel num_threads(threads) reduction(+:potential)"):
        with omp("for"):
            for i in range(n):
                fx = 0.0
                fy = 0.0
                fz = 0.0
                for j in range(n):
                    dx = px[i] - px[j]
                    dy = py[i] - py[j]
                    dz = pz[i] - pz[j]
                    mask = 0.0 if j == i else 1.0
                    d = math.sqrt(dx * dx + dy * dy + dz * dz
                                  + (1.0 - mask))
                    potential += mask * 0.25 * (d - d0) * (d - d0)
                    pull = mask * (d0 - d) / d
                    fx += pull * dx
                    fy += pull * dy
                    fz += pull * dz
                ax[i] = fx
                ay[i] = fy
                az[i] = fz
    for _step in range(steps):
        with omp("parallel for num_threads(threads)"):
            for i in range(n):
                px[i] += vx[i] * dt + 0.5 * ax[i] * dt * dt
                py[i] += vy[i] * dt + 0.5 * ay[i] * dt * dt
                pz[i] += vz[i] * dt + 0.5 * az[i] * dt * dt
                vx[i] += 0.5 * ax[i] * dt
                vy[i] += 0.5 * ay[i] * dt
                vz[i] += 0.5 * az[i] * dt
        potential = 0.0
        with omp("parallel num_threads(threads) reduction(+:potential)"):
            with omp("for"):
                for i in range(n):
                    fx = 0.0
                    fy = 0.0
                    fz = 0.0
                    for j in range(n):
                        dx = px[i] - px[j]
                        dy = py[i] - py[j]
                        dz = pz[i] - pz[j]
                        mask = 0.0 if j == i else 1.0
                        d = math.sqrt(dx * dx + dy * dy + dz * dz
                                      + (1.0 - mask))
                        potential += mask * 0.25 * (d - d0) * (d - d0)
                        pull = mask * (d0 - d) / d
                        fx += pull * dx
                        fy += pull * dy
                        fz += pull * dz
                    ax[i] = fx
                    ay[i] = fy
                    az[i] = fz
        kinetic = 0.0
        with omp("parallel for num_threads(threads) reduction(+:kinetic)"):
            for i in range(n):
                vx[i] += 0.5 * ax[i] * dt
                vy[i] += 0.5 * ay[i] * dt
                vz[i] += 0.5 * az[i] * dt
                kinetic += 0.5 * (vx[i] * vx[i] + vy[i] * vy[i]
                                  + vz[i] * vz[i])
    return potential, kinetic


def kernel_dt(px, py, pz, vx, vy, vz, ax, ay, az, n, steps, threads):
    import math
    d0: float = 1.0
    dt: float = 1e-4
    potential: float = 0.0
    kinetic: float = 0.0
    with omp("parallel num_threads(threads) reduction(+:potential)"):
        with omp("for"):
            for i in range(n):
                xi: float = px[i]
                yi: float = py[i]
                zi: float = pz[i]
                fx: float = 0.0
                fy: float = 0.0
                fz: float = 0.0
                for j in range(n):
                    dx = xi - px[j]
                    dy = yi - py[j]
                    dz = zi - pz[j]
                    mask = 0.0 if j == i else 1.0
                    d = math.sqrt(dx * dx + dy * dy + dz * dz
                                  + (1.0 - mask))
                    potential += mask * 0.25 * (d - d0) * (d - d0)
                    pull = mask * (d0 - d) / d
                    fx += pull * dx
                    fy += pull * dy
                    fz += pull * dz
                ax[i] = fx
                ay[i] = fy
                az[i] = fz
    for _step in range(steps):
        with omp("parallel for num_threads(threads)"):
            for i in range(n):
                px[i] += vx[i] * dt + 0.5 * ax[i] * dt * dt
                py[i] += vy[i] * dt + 0.5 * ay[i] * dt * dt
                pz[i] += vz[i] * dt + 0.5 * az[i] * dt * dt
                vx[i] += 0.5 * ax[i] * dt
                vy[i] += 0.5 * ay[i] * dt
                vz[i] += 0.5 * az[i] * dt
        potential = 0.0
        with omp("parallel num_threads(threads) reduction(+:potential)"):
            with omp("for"):
                for i in range(n):
                    xi2: float = px[i]
                    yi2: float = py[i]
                    zi2: float = pz[i]
                    fx2: float = 0.0
                    fy2: float = 0.0
                    fz2: float = 0.0
                    for j in range(n):
                        dx = xi2 - px[j]
                        dy = yi2 - py[j]
                        dz = zi2 - pz[j]
                        mask = 0.0 if j == i else 1.0
                        d = math.sqrt(dx * dx + dy * dy + dz * dz
                                      + (1.0 - mask))
                        potential += mask * 0.25 * (d - d0) * (d - d0)
                        pull = mask * (d0 - d) / d
                        fx2 += pull * dx
                        fy2 += pull * dy
                        fz2 += pull * dz
                    ax[i] = fx2
                    ay[i] = fy2
                    az[i] = fz2
        kinetic = 0.0
        with omp("parallel for num_threads(threads) reduction(+:kinetic)"):
            for i in range(n):
                vx[i] += 0.5 * ax[i] * dt
                vy[i] += 0.5 * ay[i] * dt
                vz[i] += 0.5 * az[i] * dt
                kinetic += 0.5 * (vx[i] * vx[i] + vy[i] * vy[i]
                                  + vz[i] * vz[i])
    return potential, kinetic


def _verlet(px, py, pz, vx, vy, vz, ax, ay, az, n, steps, forces):
    """Velocity-Verlet driver around a pluggable force routine.

    The force phase is the O(n²) heart of md (and the part the
    critical/planned variants differ in); the O(n) position/velocity
    updates are shared serial glue.
    """
    potential = forces()
    kinetic = 0.0
    for _step in range(steps):
        for i in range(n):
            px[i] += vx[i] * DT + 0.5 * ax[i] * DT * DT
            py[i] += vy[i] * DT + 0.5 * ay[i] * DT * DT
            pz[i] += vz[i] * DT + 0.5 * az[i] * DT * DT
            vx[i] += 0.5 * ax[i] * DT
            vy[i] += 0.5 * ay[i] * DT
            vz[i] += 0.5 * az[i] * DT
        potential = forces()
        kinetic = 0.0
        for i in range(n):
            vx[i] += 0.5 * ax[i] * DT
            vy[i] += 0.5 * ay[i] * DT
            vz[i] += 0.5 * az[i] * DT
            kinetic += 0.5 * MASS * (vx[i] * vx[i] + vy[i] * vy[i]
                                     + vz[i] * vz[i])
    return potential, kinetic


def _pair_interaction(px, py, pz, i, j):
    """Force and potential of one unordered pair (Newton's third law:
    the same interaction serves both particles)."""
    dx = px[i] - px[j]
    dy = py[i] - py[j]
    dz = pz[i] - pz[j]
    d = math.sqrt(dx * dx + dy * dy + dz * dz)
    pull = (D0 - d) / d
    # Each unordered pair carries both ordered contributions:
    # 2 * 0.25 * (d - d0)^2.
    return pull * dx, pull * dy, pull * dz, 0.5 * (d - D0) * (d - D0)


def kernel_pairs_critical(px, py, pz, vx, vy, vz, ax, ay, az, n, steps,
                          threads, runtime=None):
    """Half-pair force baseline: Newton's-third-law scatter under a
    ``critical``.

    Each thread owns a block of ``i`` rows, computes every ``j > i``
    interaction once, and scatters the reaction forces into per-thread
    arrays; the arrays then merge into the shared accelerations under
    ``critical(md_forces)`` — the serialized accumulation the plan
    variant eliminates.
    """
    if runtime is None:
        from repro.runtime import pure_runtime as runtime
    nthreads = max(1, threads)
    state = {"potential": 0.0}

    def forces():
        for i in range(n):
            ax[i] = 0.0
            ay[i] = 0.0
            az[i] = 0.0
        state["potential"] = 0.0

        def member():
            thread_num = runtime.get_thread_num()
            size = runtime.get_num_threads()
            fx = [0.0] * n
            fy = [0.0] * n
            fz = [0.0] * n
            local = 0.0
            for i in range(thread_num, n, size):
                for j in range(i + 1, n):
                    gx, gy, gz, pot = _pair_interaction(px, py, pz, i, j)
                    fx[i] += gx
                    fy[i] += gy
                    fz[i] += gz
                    fx[j] -= gx
                    fy[j] -= gy
                    fz[j] -= gz
                    local += pot
            runtime.critical_enter("md_forces")
            try:
                for i in range(n):
                    ax[i] += fx[i] / MASS
                    ay[i] += fy[i] / MASS
                    az[i] += fz[i] / MASS
                state["potential"] += local
            finally:
                runtime.critical_exit("md_forces")

        runtime.parallel_run(member, num_threads=nthreads)
        return state["potential"]

    return _verlet(px, py, pz, vx, vy, vz, ax, ay, az, n, steps, forces)


def pair_block_map(n: int, block: int):
    """The planned force kernel's indirection map: iteration = one
    (block_i, block_j) tile of the half-pair triangle, elements = the
    two particle blocks it scatters forces into."""
    from repro.plan import Map
    nblocks = (n + block - 1) // block
    return Map("md-pair-blocks",
               [(bi, bj) for bi in range(nblocks)
                for bj in range(bi, nblocks)])


def kernel_planned(px, py, pz, vx, vy, vz, ax, ay, az, n, steps,
                   threads, runtime=None, block: int | None = None):
    """Inspector–executor md: pair-block coloring replaces the force
    ``critical``.

    Half-pair tiles touch exactly two particle blocks; the plan colors
    tiles so no two same-color tiles share a block, letting every tile
    scatter Newton's-third-law reactions straight into the shared
    acceleration arrays — no critical, no per-thread force copies.
    The tile map is built once and ``plan_for`` is called every
    timestep, so step one is the inspector and every later step is a
    plan-cache hit; the potential reduction pads per-thread partials
    to cache-line stride.
    """
    from repro.plan import PaddedAccumulator, execute, plan_for

    if runtime is None:
        from repro.runtime import pure_runtime as runtime
    nthreads = max(1, threads)
    if block is None:
        block = max(1, (n + 2 * nthreads - 1) // (2 * nthreads))
    the_map = pair_block_map(n, block)
    pairs = the_map.entries
    potential = PaddedAccumulator(nthreads)

    def body(lo, hi, thread_num):
        for index in range(lo, hi):
            bi, bj = pairs[index]
            i_lo, i_hi = bi * block, min((bi + 1) * block, n)
            j_hi = min((bj + 1) * block, n)
            local = 0.0
            for i in range(i_lo, i_hi):
                j_lo = max(i + 1, bj * block)
                for j in range(j_lo, j_hi):
                    gx, gy, gz, pot = _pair_interaction(px, py, pz, i, j)
                    ax[i] += gx / MASS
                    ay[i] += gy / MASS
                    az[i] += gz / MASS
                    ax[j] -= gx / MASS
                    ay[j] -= gy / MASS
                    az[j] -= gz / MASS
                    local += pot
            potential.add(thread_num, local)

    def forces():
        for i in range(n):
            ax[i] = 0.0
            ay[i] = 0.0
            az[i] = 0.0
        potential.reset()
        plan = plan_for(the_map, 1, runtime=runtime)
        execute(plan, body, threads=nthreads, runtime=runtime)
        return potential.total()

    return _verlet(px, py, pz, vx, vy, vz, ax, ay, az, n, steps, forces)


def pyomp_kernel(px, py, pz, vx, vy, vz, ax, ay, az, n, steps, threads):
    # Same computation as kernel_dt, in PyOMP spelling, so the paper's
    # performance comparison is over identical work.
    import math
    d0: float = 1.0
    dt: float = 1e-4
    potential: float = 0.0
    kinetic: float = 0.0
    with openmp("parallel num_threads(threads) "  # noqa: F821
                "reduction(+:potential)"):
        with openmp("for"):  # noqa: F821
            for i in range(n):
                xi: float = px[i]
                yi: float = py[i]
                zi: float = pz[i]
                fx: float = 0.0
                fy: float = 0.0
                fz: float = 0.0
                for j in range(n):
                    dx = xi - px[j]
                    dy = yi - py[j]
                    dz = zi - pz[j]
                    mask = 0.0 if j == i else 1.0
                    d = math.sqrt(dx * dx + dy * dy + dz * dz
                                  + (1.0 - mask))
                    potential += mask * 0.25 * (d - d0) * (d - d0)
                    pull = mask * (d0 - d) / d
                    fx += pull * dx
                    fy += pull * dy
                    fz += pull * dz
                ax[i] = fx
                ay[i] = fy
                az[i] = fz
    for _step in range(steps):
        with openmp("parallel for num_threads(threads)"):  # noqa: F821
            for i in range(n):
                px[i] += vx[i] * dt + 0.5 * ax[i] * dt * dt
                py[i] += vy[i] * dt + 0.5 * ay[i] * dt * dt
                pz[i] += vz[i] * dt + 0.5 * az[i] * dt * dt
                vx[i] += 0.5 * ax[i] * dt
                vy[i] += 0.5 * ay[i] * dt
                vz[i] += 0.5 * az[i] * dt
        potential = 0.0
        with openmp("parallel num_threads(threads) "  # noqa: F821
                    "reduction(+:potential)"):
            with openmp("for"):  # noqa: F821
                for i in range(n):
                    xi2: float = px[i]
                    yi2: float = py[i]
                    zi2: float = pz[i]
                    fx2: float = 0.0
                    fy2: float = 0.0
                    fz2: float = 0.0
                    for j in range(n):
                        dx = xi2 - px[j]
                        dy = yi2 - py[j]
                        dz = zi2 - pz[j]
                        mask = 0.0 if j == i else 1.0
                        d = math.sqrt(dx * dx + dy * dy + dz * dz
                                      + (1.0 - mask))
                        potential += mask * 0.25 * (d - d0) * (d - d0)
                        pull = mask * (d0 - d) / d
                        fx2 += pull * dx
                        fy2 += pull * dy
                        fz2 += pull * dz
                    ax[i] = fx2
                    ay[i] = fy2
                    az[i] = fz2
        kinetic = 0.0
        with openmp("parallel for num_threads(threads) "  # noqa: F821
                    "reduction(+:kinetic)"):
            for i in range(n):
                vx[i] += 0.5 * ax[i] * dt
                vy[i] += 0.5 * ay[i] * dt
                vz[i] += 0.5 * az[i] * dt
                kinetic += 0.5 * (vx[i] * vx[i] + vy[i] * vy[i]
                                  + vz[i] * vz[i])
    return potential, kinetic


def verify(result, reference) -> bool:
    potential, kinetic = result
    ref_potential, ref_kinetic = reference
    return (abs(potential - ref_potential)
            <= 1e-6 * max(1.0, abs(ref_potential))
            and abs(kinetic - ref_kinetic)
            <= 1e-6 * max(1.0, abs(ref_kinetic)))


SPEC = AppSpec(
    name="md",
    title="Molecular dynamics",
    make_input=make_input,
    make_input_dt=make_input_dt,
    sequential=sequential,
    kernel=kernel,
    kernel_dt=kernel_dt,
    pyomp=pyomp_kernel,
    verify=verify,
    sizes={
        "test": {"n": 48, "steps": 2},
        "default": {"n": 512, "steps": 2},
        "paper": {"n": 8000, "steps": 10},
    },
    table1=("parallel reduction(+) with inner for, parallel for",
            "Implicit barriers"),
)
