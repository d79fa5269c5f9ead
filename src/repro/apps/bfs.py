"""Task-parallel maze pathfinding via BFS (the paper's *bfs*).

Paper configuration: 2100×2100 grid, entrance top-left, exit
bottom-right, zeros are paths and ones are walls, one task per feasible
move; constructs: ``parallel``, ``single``, ``task`` (Table I).

For PyOMP the paper reports "an error is raised during execution of the
PyOMP code related to Numba"; the baseline spec reproduces that as a
runtime error.
"""

from __future__ import annotations

import random
from collections import deque

from repro.apps.base import AppSpec
from repro.api import omp


def make_maze(n: int, seed: int = 31, wall_density: float = 0.3):
    """Random maze with a guaranteed monotone path."""
    rng = random.Random(seed)
    grid = [[1 if rng.random() < wall_density else 0 for _ in range(n)]
            for _ in range(n)]
    row = col = 0
    grid[0][0] = 0
    while row < n - 1 or col < n - 1:
        if row == n - 1:
            col += 1
        elif col == n - 1:
            row += 1
        elif rng.random() < 0.5:
            row += 1
        else:
            col += 1
        grid[row][col] = 0
    return grid


def make_input(n: int, seed: int = 31) -> dict:
    return {"grid": make_maze(n, seed), "n": n}


def sequential(grid, n):
    """Reference BFS: (exit reached, number of reachable cells)."""
    visited = [[False] * n for _ in range(n)]
    visited[0][0] = True
    frontier = deque([(0, 0)])
    count = 1
    while frontier:
        row, col = frontier.popleft()
        for dr, dc in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            nr, nc = row + dr, col + dc
            if 0 <= nr < n and 0 <= nc < n and grid[nr][nc] == 0 \
                    and not visited[nr][nc]:
                visited[nr][nc] = True
                count += 1
                frontier.append((nr, nc))
    return visited[n - 1][n - 1], count


def kernel(grid, n, threads):
    visited = [[False] * n for _ in range(n)]
    visited[0][0] = True
    state = {"count": 1, "reached": False}

    def explore(row, col):
        if row == n - 1 and col == n - 1:
            with omp("critical(bfs_state)"):
                state["reached"] = True
        for dr, dc in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            nr = row + dr
            nc = col + dc
            if 0 <= nr < n and 0 <= nc < n and grid[nr][nc] == 0:
                claimed = False
                with omp("critical(bfs_visited)"):
                    if not visited[nr][nc]:
                        visited[nr][nc] = True
                        state["count"] += 1
                        claimed = True
                if claimed:
                    # Each feasible move spawns a task (paper IV-A).
                    with omp("task firstprivate(nr, nc)"):
                        explore(nr, nc)

    with omp("parallel num_threads(threads)"):
        with omp("single"):
            explore(0, 0)
    return state["reached"], state["count"]


def kernel_frontier(grid, n, threads):
    """Level-synchronous BFS, the critical-section baseline.

    Each level expands the current frontier under a single
    ``critical``: the visited check, the claim, and the next-frontier
    append are one atomic step.  Splitting them across two criticals
    (check under one, append under another) is the classic
    check-then-act race — two threads both pass the visited check and
    enqueue the vertex twice; ``tests/plan/test_bfs_frontier.py``
    guards the single-critical invariant with a duplicate count on a
    diamond graph.
    """
    visited = [[False] * n for _ in range(n)]
    visited[0][0] = True
    state = {"count": 1, "reached": n == 1,
             "frontier": [(0, 0)], "next": []}

    with omp("parallel num_threads(threads)"):
        while state["frontier"]:
            frontier = state["frontier"]
            with omp("for schedule(static)"):
                for index in range(len(frontier)):
                    row, col = frontier[index]
                    for dr, dc in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                        nr = row + dr
                        nc = col + dc
                        if 0 <= nr < n and 0 <= nc < n \
                                and grid[nr][nc] == 0:
                            # Claim and enqueue under ONE critical:
                            # the atomicity of check+append is what
                            # keeps the next frontier duplicate-free.
                            with omp("critical(bfs_frontier)"):
                                if not visited[nr][nc]:
                                    visited[nr][nc] = True
                                    state["count"] += 1
                                    state["next"].append((nr, nc))
                                    if nr == n - 1 and nc == n - 1:
                                        state["reached"] = True
            with omp("single"):
                state["frontier"] = state["next"]
                state["next"] = []
    return state["reached"], state["count"]


#: Neighbor offsets shared by the planned kernel's bodies.
_DIRS = ((1, 0), (-1, 0), (0, 1), (0, -1))


def rows_map(n: int):
    """The planned kernel's indirection map: iteration = grid row,
    element = that row.  The planned kernel is *owner-computes*: a
    row's body claims only cells of its own row (reading the neighbor
    rows' frontier lists, which the level before froze), so the
    inspector finds an empty conflict graph and the plan is a single
    color — every row block runs with zero synchronization and one
    barrier per BFS level."""
    from repro.plan import Map
    return Map("bfs-rows", [(row,) for row in range(n)])


def kernel_planned(grid, n, threads, runtime=None):
    """Inspector–executor BFS: the owner-computes row plan replaces
    the frontier/visited criticals.

    The frontier is kept per row in two parity buffers; each level
    reads one buffer and writes the other.  The body for row ``r``
    scans the frontier cells of rows ``r-1``, ``r`` and ``r+1`` but
    claims only the moves that *land in row r* — exactly the writes
    the map declares — so visited claims and next-frontier appends are
    single-writer by construction and the hot path has zero locks.
    One plan serves every level through the (map, partition size)
    cache, one parallel region serves the whole search via
    :func:`repro.plan.execute_member`, and the level's trailing
    barrier doubles as the termination consensus: the next level never
    mutates the buffer it decides on, so every thread scans the new
    frontier race-free and reaches the same verdict.
    """
    from repro.plan import PaddedAccumulator, execute_member, plan_for

    if runtime is None:
        from repro.runtime import pure_runtime as runtime
    nthreads = max(1, threads)
    visited = [[False] * n for _ in range(n)]
    visited[0][0] = True
    buffers = ([[] for _ in range(n)], [[] for _ in range(n)])
    buffers[0][0].append(0)
    the_map = rows_map(n)
    partition = max(1, n // (4 * nthreads))
    # One plan serves every level; a second kernel call with the same
    # map object would be a plan-cache hit (md's timestep loop is the
    # per-step cache workout — see md.kernel_planned).
    plan = plan_for(the_map, partition, runtime=runtime)
    counts = PaddedAccumulator(nthreads)
    reached = [n == 1] * nthreads

    def make_body(src, dst):
        def body(lo, hi, thread_num):
            for row in range(lo, hi):
                mine = dst[row]
                if mine:
                    # Stale two-levels-old entries; every read of them
                    # finished before the last level's barrier.
                    mine.clear()
                grow = grid[row]
                vrow = visited[row]
                if row > 0:
                    for col in src[row - 1]:
                        if grow[col] == 0 and not vrow[col]:
                            vrow[col] = True
                            mine.append(col)
                if row + 1 < n:
                    for col in src[row + 1]:
                        if grow[col] == 0 and not vrow[col]:
                            vrow[col] = True
                            mine.append(col)
                for col in src[row]:
                    left = col - 1
                    if left >= 0 and grow[left] == 0 \
                            and not vrow[left]:
                        vrow[left] = True
                        mine.append(left)
                    right = col + 1
                    if right < n and grow[right] == 0 \
                            and not vrow[right]:
                        vrow[right] = True
                        mine.append(right)
                if mine:
                    counts.add(thread_num, len(mine))
                    if row == n - 1 and vrow[n - 1]:
                        reached[thread_num] = True
        return body

    bodies = (make_body(buffers[0], buffers[1]),
              make_body(buffers[1], buffers[0]))

    def member():
        parity = 0
        while True:
            execute_member(plan, bodies[parity], runtime=runtime)
            # The trailing barrier froze this level's writes and the
            # next level only reads the buffer being decided on, so
            # this scan is race-free and every thread agrees.
            if not any(buffers[1 - parity]):
                break
            parity ^= 1

    runtime.parallel_run(member, num_threads=nthreads)
    return any(reached), 1 + int(counts.total())


# The maze explorer is symbolic work (tuples, bounds tests, dict state):
# exactly the kind of code native compilation cannot reshape, so the
# typed pipeline shares the untyped source and falls back gracefully.
kernel_dt = kernel

#: The paper: PyOMP raises a Numba-internal error while executing bfs.
PYOMP_STATUS = ("runtime_error: Numba internal error while lowering "
                "task region (paper Section IV-A)")


def verify(result, reference) -> bool:
    return tuple(result) == tuple(reference)


SPEC = AppSpec(
    name="bfs",
    title="Maze pathfinding (BFS)",
    make_input=make_input,
    sequential=sequential,
    kernel=kernel,
    kernel_dt=kernel_dt,
    pyomp=PYOMP_STATUS,
    verify=verify,
    sizes={
        "test": {"n": 31},
        "default": {"n": 101},
        "paper": {"n": 2100},
    },
    table1=("parallel, single, task", "Implicit barriers"),
)
