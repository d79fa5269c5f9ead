"""ICV / environment snapshots shared by ``omp_display_env``, the
watchdog report, and the ``repro.doctor`` CLI.

``omp_display_env`` used to format its output ad hoc inside the engine;
building the snapshot here means the exact same ICV view appears in
every diagnostic surface, and tools get it as structured data instead
of scraping stdout.
"""

from __future__ import annotations

import os

from repro import env


def _places_text(runtime) -> str:
    """``OMP_PLACES`` rendered in explicit-list syntax (``''`` = none)."""
    from repro.affinity import format_places
    return format_places(runtime._binder.places)


def icv_snapshot(runtime, verbose: bool = False) -> dict:
    """The runtime's current ICVs in ``OMP_DISPLAY_ENV`` key order.

    Values are plain strings.  A verbose snapshot adds ``[omp4py] …``
    keys (what the runtime reports about itself — not settable, so
    kept out of the ``OMP4PY_`` namespace) and every ``env.KNOBS``
    variable that is set, so JSON consumers never have to parse
    comments.
    """
    kind, chunk = runtime.get_schedule()
    schedule = kind.upper() + (f",{chunk}" if chunk else "")
    snapshot = {
        "_OPENMP": "200805",
        "OMP_NUM_THREADS": str(runtime.current_frame().nthreads_var),
        "OMP_SCHEDULE": schedule,
        "OMP_DYNAMIC": str(runtime.get_dynamic()).upper(),
        "OMP_NESTED": str(runtime.get_nested()).upper(),
        "OMP_THREAD_LIMIT": str(runtime.get_thread_limit()),
        "OMP_MAX_ACTIVE_LEVELS": str(runtime.get_max_active_levels()),
        "OMP_PLACES": _places_text(runtime),
        "OMP_PROC_BIND": runtime.get_proc_bind().upper(),
        "OMP_WAIT_POLICY": runtime.get_wait_policy().upper(),
    }
    if verbose:
        snapshot["[omp4py] runtime"] = runtime.name
        backend = getattr(runtime, "backend", None)
        if backend is not None:
            snapshot["[omp4py] backend"] = backend.value
        snapshot["[omp4py] num_procs"] = str(runtime.get_num_procs())
        pool = getattr(runtime, "_pool", None)
        if pool is not None:
            state = pool.snapshot()
            snapshot["[omp4py] pool"] = (
                f"workers={state['workers']} idle={state['idle']} "
                f"spawned={state['spawned']} reused={state['reused']} "
                f"trimmed={state['trimmed']}")
        # Which tier a CompiledDT miss in this process would build.
        from repro.cruntime.native import describe
        snapshot["[omp4py] native"] = describe()
        # How this process was configured and armed: every knob set.
        for knob in env.KNOBS:
            value = os.environ.get(knob)
            if value is not None:
                snapshot[knob] = value
    return snapshot


def format_display_env(snapshot: dict, runtime_name: str = "") -> str:
    """The OpenMP ``OMP_DISPLAY_ENV`` block for a snapshot.

    ``runtime_name`` reproduces the spec-version comment the native
    runtimes print next to ``_OPENMP``.
    """
    lines = ["OPENMP DISPLAY ENVIRONMENT BEGIN"]
    for key, value in snapshot.items():
        line = f"  {key} = '{value}'"
        if key == "_OPENMP" and runtime_name:
            line += f"  # 3.0 ({runtime_name})"
        lines.append(line)
    lines.append("OPENMP DISPLAY ENVIRONMENT END")
    return "\n".join(lines)
