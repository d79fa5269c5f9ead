"""EPCC-style synchronisation micro-kernels (the ``finegrain`` workload).

Every body is (almost) empty, so a kernel's whole time is the runtime
layer it names: fork/join, barrier, per-chunk dispatch of one schedule,
``critical``/``atomic`` acquire, reduction combine, task submit→run.
Each kernel returns a value — region count, barrier-phase sum,
iteration checksum, counter total, task count — that its sequential
reference (the same loop without the directives) recomputes, so a
runtime that drops an iteration, a wake-up or a task fails verification
instead of posting a fast time.  The ``int`` annotations are the
CompiledDT variant's data types; the same source serves all four modes.

A kernel's best time divided by its ``count`` is the per-op cost the
layer ledger reports (``runtime.forkjoin_us``, ...).
"""

from __future__ import annotations

from repro.api import omp, omp_get_thread_num


def regions(count: int, threads: int):
    hits = [0]
    for _ in range(count):
        with omp("parallel num_threads(threads)"):
            if omp_get_thread_num() == 0:
                hits[0] += 1
    return hits[0]


def barriers(count: int, threads: int):
    phases = [0] * threads
    with omp("parallel num_threads(threads)"):
        me: int = omp_get_thread_num()
        for step in range(count):
            phases[me] += step
            omp("barrier")
    return sum(phases)


def static1(count: int, threads: int):
    total: int = 0
    with omp("parallel for schedule(static, 1) reduction(+:total) "
             "num_threads(threads)"):
        for i in range(count):
            total += i
    return total


def dynamic1(count: int, threads: int):
    total: int = 0
    with omp("parallel for schedule(dynamic, 1) reduction(+:total) "
             "num_threads(threads)"):
        for i in range(count):
            total += i
    return total


def guided1(count: int, threads: int):
    total: int = 0
    with omp("parallel for schedule(guided, 1) reduction(+:total) "
             "num_threads(threads)"):
        for i in range(count):
            total += i
    return total


def critical(count: int, threads: int):
    cell = [0]
    with omp("parallel for num_threads(threads)"):
        for _ in range(count):
            with omp("critical(e2e_counter)"):
                cell[0] += 1
    return cell[0]


def atomic(count: int, threads: int):
    counter: int = 0
    with omp("parallel for num_threads(threads)"):
        for _ in range(count):
            with omp("atomic"):
                counter += 1
    return counter


def reduction(count: int, threads: int):
    total: int = 0
    for _ in range(count):
        with omp("parallel num_threads(threads) reduction(+:total)"):
            total += 1
    return total


def tasks(count: int, threads: int):
    done = [0] * threads
    with omp("parallel num_threads(threads)"):
        with omp("single"):
            for _ in range(count):
                with omp("task"):
                    done[omp_get_thread_num()] += 1
    return sum(done)


# -- sequential references: the same loops without their directives -----


def _count_ops(count: int, threads: int):
    total = 0
    for _ in range(count):
        total += 1
    return total


def _sum_indices(count: int, threads: int):
    total = 0
    for i in range(count):
        total += i
    return total


def _barriers_seq(count: int, threads: int):
    total = 0
    for _me in range(threads):
        for step in range(count):
            total += step
    return total


def _reduction_seq(count: int, threads: int):
    total = 0
    for _ in range(count):
        for _me in range(threads):
            total += 1
    return total


#: name -> (kernel source function, sequential reference).
KERNELS = {
    "regions": (regions, _count_ops),
    "barriers": (barriers, _barriers_seq),
    "static1": (static1, _sum_indices),
    "dynamic1": (dynamic1, _sum_indices),
    "guided1": (guided1, _sum_indices),
    "critical": (critical, _count_ops),
    "atomic": (atomic, _count_ops),
    "reduction": (reduction, _reduction_seq),
    "tasks": (tasks, _count_ops),
}
