"""Timing with the free-threaded-interpreter projection.

``measure`` runs a transformed kernel, recording the measured wall
time, the per-thread CPU accounting, and the projection model's output
(see :mod:`repro.runtime.stats` and DESIGN.md).  Which number is
*authoritative* depends on the execution backend
(:mod:`repro.runtime.gilstate`):

* ``gil`` — threads serialize, so ``projected`` is the model's no-GIL
  estimate (the quantity the paper's figures plot) and ``wall`` is the
  serialized measurement.
* ``nogil`` — threads genuinely overlap, so ``projected`` *is* the
  measured wall time; the model's output is kept in
  ``model_projected`` as a cross-check (``repro.analysis.validate``
  gates on the two agreeing).

Every Measurement records which backend produced it.
"""

from __future__ import annotations

import dataclasses
import statistics
import sys
import time
from typing import TYPE_CHECKING

from repro.decorator import runtime_for
from repro.modes import Mode

if TYPE_CHECKING:
    from repro.runtime.gilstate import Backend


@dataclasses.dataclass
class Measurement:
    """One timed kernel execution (or the mean of several)."""

    wall: float
    projected: float
    serialized_cpu: float
    critical_cpu: float
    regions: int
    value: object = None
    #: CPU-weighted load imbalance over the recorded regions
    #: (max over mean per-thread CPU time; 1.0 = perfectly balanced).
    imbalance: float = 1.0
    #: Execution backend that produced this measurement (``"gil"`` or
    #: ``"nogil"``): decides whether ``projected`` is modelled or
    #: measured.
    backend: str = "gil"
    #: The projection model's raw output (``wall − Σcpu + maxcpu``,
    #: floored at the critical path).  Equals ``projected`` on the gil
    #: backend; on nogil it is the cross-check the validation harness
    #: compares against the measured wall.
    model_projected: float | None = None

    @property
    def parallel_fraction(self) -> float:
        """Fraction of the wall time spent inside parallel regions."""
        return min(1.0, self.serialized_cpu / self.wall) if self.wall \
            else 0.0


def _runtime_of(fn, runtime):
    if runtime is not None:
        return runtime
    mode = getattr(fn, "__omp_mode__", None)
    return runtime_for(mode if mode is not None else Mode.HYBRID)


def _backend_of(runtime) -> Backend:
    # Imported here, as in ``repro.modes``: importing the harness must
    # not load the runtime package (its engine and ``pure_runtime``).
    from repro.runtime.gilstate import current_backend
    backend = getattr(runtime, "backend", None)
    return backend if backend is not None else current_backend()


def measure(fn, /, *args, runtime=None, repeats: int = 1,
            make_args=None, **kwargs) -> Measurement:
    """Run ``fn`` ``repeats`` times; return mean wall/projection.

    ``make_args`` (when given) is called before every repetition and
    must return ``(args, kwargs)`` — needed for kernels that mutate
    their inputs (lu, qsort, md, ...).
    """
    rt = _runtime_of(fn, runtime)
    backend = _backend_of(rt)
    walls: list[float] = []
    model_projections: list[float] = []
    serialized_total = 0.0
    critical_total = 0.0
    regions_total = 0
    mean_cpu_total = 0.0
    value = None
    # Finer-grained GIL switching reduces measurement noise from thread
    # scheduling granularity; restored afterwards.  Meaningless without
    # a GIL, so the nogil backend leaves the interpreter untouched.
    old_interval = None
    if not backend.measures_parallelism:
        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(0.0005)
    try:
        for _repeat in range(repeats):
            if make_args is not None:
                call_args, call_kwargs = make_args()
            else:
                call_args, call_kwargs = args, kwargs
            rt.stats.reset()
            begin = time.perf_counter()
            value = fn(*call_args, **call_kwargs)
            wall = time.perf_counter() - begin
            serialized, critical, regions = rt.stats.totals()
            walls.append(wall)
            model_projections.append(rt.stats.project(wall))
            serialized_total += serialized
            critical_total += critical
            regions_total += regions
            mean_cpu_total += sum(r.mean_cpu for r in rt.stats.snapshot())
    finally:
        if old_interval is not None:
            sys.setswitchinterval(old_interval)
    count = max(1, repeats)
    # Aggregate imbalance: total critical-path CPU over the total of
    # per-region mean CPU — a CPU-weighted average of per-region
    # max/mean ratios.
    imbalance = critical_total / mean_cpu_total if mean_cpu_total > 0 \
        else 1.0
    mean_wall = statistics.fmean(walls)
    mean_model = statistics.fmean(model_projections)
    return Measurement(
        wall=mean_wall,
        projected=(mean_wall if backend.measures_parallelism
                   else mean_model),
        serialized_cpu=serialized_total / count,
        critical_cpu=critical_total / count,
        regions=regions_total // count,
        value=value,
        imbalance=imbalance,
        backend=backend.value,
        model_projected=mean_model)


def measure_mpi(launch, nodes: int, /, *args, runtime=None,
                repeats: int = 1, **kwargs) -> Measurement:
    """Measure a hybrid MPI/OpenMP launch.

    Rank regions execute concurrently across "nodes", so the cluster
    projection divides the single-interpreter projection by the node
    count — the uniform-concurrency model documented in DESIGN.md
    (per-rank imbalance is already inside the per-region maxima).  On
    the nogil backend the rank threads already overlap on this one
    machine, so the measured wall is authoritative and the per-node
    division survives only in ``model_projected`` (a single machine is
    still not a cluster; see docs/projection.md).
    """
    from repro.cruntime import cruntime
    from repro.runtime import pure_runtime
    runtimes = [runtime] if runtime is not None else [pure_runtime,
                                                      cruntime]
    backend = _backend_of(runtimes[0])
    walls: list[float] = []
    model_projections: list[float] = []
    value = None
    for _repeat in range(repeats):
        for rt in runtimes:
            rt.stats.reset()
        begin = time.perf_counter()
        value = launch(*args, **kwargs)
        wall = time.perf_counter() - begin
        projected = min(rt.stats.project(wall) for rt in runtimes)
        walls.append(wall)
        model_projections.append(projected / nodes)
    mean_wall = statistics.fmean(walls)
    mean_model = statistics.fmean(model_projections)
    return Measurement(
        wall=mean_wall,
        projected=(mean_wall if backend.measures_parallelism
                   else mean_model),
        serialized_cpu=0.0, critical_cpu=0.0, regions=0, value=value,
        backend=backend.value, model_projected=mean_model)
