"""The executor: run a plan color by color, lock-free inside a color.

:func:`execute` forks one parallel region and walks the plan's colors
in order.  Within a color every partition runs without *any*
synchronization — the inspector proved no two of them touch a common
element — and a single team barrier separates consecutive colors.
That replaces the per-update ``critical`` sections of the irregular
apps with ``ncolors - 1`` barriers per execution, which is the whole
trade the inspector–executor architecture makes.

:func:`execute_member` is the in-region form for iterative apps (md
timesteps, bfs levels): every member of an active team calls it once
per step, so the plan re-executes without re-forking a region.

Thread placement is delegated to the runtime: ``parallel_run`` already
binds member ``i`` to its ``OMP_PLACES`` place through the affinity
binder, and the plan's owner assignment (partition ``p`` → thread
``p % nthreads``) is stable across colors and executions, so a
partition's data stays with one worker — and one place — for the
plan's lifetime.

Each execution is reported through the OMPT ``plan`` hook; the tracer
turns it into the ``plan`` trace event that the explain DAG
builder picks up to veto lock-convoy verdicts.
"""

from __future__ import annotations

from repro.errors import OmpError


def _default_runtime():
    from repro.runtime import pure_runtime
    return pure_runtime


def _notify(runtime, plan, threads: int) -> None:
    """Report one plan execution to the attached tools."""
    tool = runtime.tool
    if tool is not None:
        tool.plan(runtime.get_thread_num(), "execute",
                  {"source": plan.source,
                   "partition_size": plan.partition_size,
                   "partitions": plan.npartitions,
                   "colors": plan.ncolors,
                   "conflict_edges": plan.conflict_edges,
                   "threads": threads})


def _walk_colors(plan, schedule, body, runtime, thread_num: int,
                 owners, barrier_after: bool) -> None:
    last = plan.ncolors - 1
    for color, per_thread in enumerate(schedule):
        for owner in owners:
            for lo, hi in per_thread[owner]:
                body(lo, hi, thread_num)
        if color != last or barrier_after:
            # The color boundary is the only synchronization the plan
            # needs.
            runtime.barrier()


def execute(plan, body, *, threads=None, runtime=None) -> None:
    """Run ``body(lo, hi, thread_num)`` over every partition of
    ``plan``, color by color, in a freshly forked region.

    ``body`` is invoked once per partition with the partition's
    iteration bounds and the executing team member's thread number; it
    must only update elements the plan's map declared for those
    iterations — that declaration is exactly what makes the color-level
    concurrency safe.

    Call from serial context; the final color ends at the region's own
    join barrier.
    """
    if runtime is None:
        runtime = _default_runtime()
    if runtime.in_parallel():
        raise OmpError("plan.execute must be called from serial "
                       "context; use execute_member inside a region")
    if threads is None:
        threads = runtime.get_max_threads()
    threads = max(1, min(threads, runtime.get_thread_limit()))
    if plan.total == 0:
        return
    schedule = plan.schedule_for(threads)
    _notify(runtime, plan, threads)

    def member() -> None:
        thread_num = runtime.get_thread_num()
        # The runtime may grant fewer members than requested (thread
        # limit, disabled nesting); folding owners modulo the granted
        # size keeps every partition covered — same-color partitions
        # are mutually conflict-free, so any executor may run any of
        # them.
        size = runtime.get_num_threads()
        owners = range(thread_num, threads, size) if size != threads \
            else (thread_num,)
        _walk_colors(plan, schedule, body, runtime, thread_num, owners,
                     barrier_after=False)

    runtime.parallel_run(member, num_threads=threads)


def execute_member(plan, body, *, runtime=None) -> None:
    """One team member's share of a plan execution.

    The in-region counterpart of :func:`execute` for iterative apps:
    every member of the active team must call it (it ends with a team
    barrier), once per timestep/level, so the plan re-executes without
    paying a region fork each step.
    """
    if runtime is None:
        runtime = _default_runtime()
    thread_num = runtime.get_thread_num()
    if plan.total == 0:
        return
    if thread_num == 0:
        _notify(runtime, plan, runtime.get_num_threads())
    schedule = plan.schedule_for(runtime.get_num_threads())
    _walk_colors(plan, schedule, body, runtime, thread_num,
                 (thread_num,), barrier_after=True)
