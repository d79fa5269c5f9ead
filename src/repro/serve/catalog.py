"""The serveable-app catalog: adapters over the shipped benchmarks.

Three kinds of tenant workload are serveable:

* the nine paper apps (:mod:`repro.apps`) — inputs come from each
  spec's deterministic seeded builders, kernels from
  ``spec.variant(mode)``;
* ``jacobi_mpi`` — the paper's fig8 hybrid MPI+OpenMP Jacobi as the
  first multi-node tenant: the worker launches ``nodes`` ranks through
  :func:`repro.mpi.mpirun`, each running its OpenMP team, so one
  request elastically scales across the simulated cluster;
* ``_spin`` (debug builds only) — a kernel that never finishes, used
  by the hang tests to prove the in-worker watchdog turns a stuck
  request into a structured doctor report; with ``seconds >= 0`` it
  holds a worker busy instead, and an ``n`` override gives it a shared
  array it sums once done (a running job that holds an input set).

Field classification decides the data plane per input: numeric
rectangular values ride shared memory (:mod:`repro.serve.shm`),
JSON-representable scalars and small ragged values ride the control
pipe, and anything else (e.g. the clustering app's networkx graph) is
*rebuilt* in the worker from the same seeded builder — byte-identical
by construction, never pickled.
"""

from __future__ import annotations

import json
import time

import numpy as np

from repro.api import omp, omp_get_thread_num
from repro.errors import OmpError

#: Numeric lists shorter than this stay on the JSON control plane —
#: a segment per tiny vector costs more than it saves.
SHM_MIN_ELEMENTS = 64

#: JSON fields above this many encoded bytes are rebuilt in-worker
#: instead of shipped (the control pipe stays small).
JSON_MAX_BYTES = 1 << 20

#: Input fields the shipped kernels never write: workers use the
#: shared segment zero-copy instead of taking a private copy.
READ_ONLY_FIELDS = {
    "jacobi": {"a", "b"},
    "jacobi_mpi": {"a", "b"},
    "bfs": {"grid"},
    "md": set(),
    "_spin": {"values"},
}

#: Marker returned by :func:`reference_result` when an app has no
#: sequential reference (debug workloads): responses stay unverified.
NO_REFERENCE = object()


def serveable_apps(debug: bool = False) -> list[str]:
    from repro.apps import list_apps
    names = list_apps() + ["jacobi_mpi"]
    if debug:
        names.append("_spin")
    return names


def _jacobi_mpi_params(profile: str, overrides: dict) -> dict:
    from repro.apps import jacobi_mpi
    sizes = jacobi_mpi.SIZES.get(profile)
    if sizes is None:
        raise OmpError(f"unknown jacobi_mpi profile {profile!r}")
    params = {"iterations": 1000, "tol": 1e-6, "seed": 1234}
    params.update(sizes)
    params.update(overrides or {})
    return params


def build_inputs(app: str, profile: str, overrides: dict) -> dict:
    """The kernel inputs for one (app, profile, overrides) key.

    Deterministic: every shipped builder takes a fixed default seed,
    so the server and a rebuilding worker produce identical data.
    """
    if app == "jacobi_mpi":
        from repro.apps.jacobi import make_system
        params = _jacobi_mpi_params(profile, overrides)
        a, b = make_system(params["n"], params["seed"])
        return {"a": a, "b": b, "n": params["n"],
                "iterations": params["iterations"],
                "tol": params["tol"]}
    if app == "_spin":
        merged = {"seconds": -1.0, "n": 0}
        merged.update(overrides or {})
        count = merged.pop("n")
        if count:
            merged["values"] = np.arange(count, dtype=np.float64)
        return merged
    from repro.apps import get_app
    return get_app(app).inputs(profile, **(overrides or {}))


def reference_result(app: str, profile: str, overrides: dict):
    """Sequential reference for the digest check (fresh inputs)."""
    inputs = build_inputs(app, profile, overrides)
    if app == "_spin":
        values = inputs.get("values")
        return NO_REFERENCE if values is None else float(values.sum())
    if app == "jacobi_mpi":
        from repro.apps import jacobi
        return jacobi.sequential(**inputs)
    from repro.apps import get_app
    return get_app(app).sequential(**inputs)


def classify_inputs(app: str, inputs: dict) -> tuple[dict, dict, list]:
    """Split inputs into (shm arrays, JSON scalars, rebuild fields).

    Returns ``(arrays, scalars, rebuild)`` where ``arrays`` maps field
    name to ``(ndarray, container, read_only)``.
    """
    read_only = READ_ONLY_FIELDS.get(app, set())
    arrays: dict[str, tuple] = {}
    scalars: dict[str, object] = {}
    rebuild: list[str] = []
    for field, value in inputs.items():
        if isinstance(value, (bool, int, float, str)) or value is None:
            scalars[field] = value
            continue
        array = None
        container = "ndarray"
        if isinstance(value, np.ndarray):
            array = value
        elif isinstance(value, (list, tuple)):
            try:
                candidate = np.asarray(value)
            except (ValueError, TypeError):
                candidate = None
            if candidate is not None and candidate.dtype != object:
                array = candidate
                container = "list"
        if array is not None and array.dtype.kind in "fiuc" \
                and array.size >= SHM_MIN_ELEMENTS:
            arrays[field] = (array, container, field in read_only)
            continue
        try:
            encoded = json.dumps(value)
        except (TypeError, ValueError):
            rebuild.append(field)
            continue
        if len(encoded) > JSON_MAX_BYTES:
            rebuild.append(field)
        else:
            scalars[field] = value
    return arrays, scalars, rebuild


# -- worker-side execution ----------------------------------------------

_SPIN_KERNEL = None


def _spin(seconds, threads, values=None):
    # seconds >= 0: hold the team busy for that long (chaos tests kill
    # the worker mid-request), then sum ``values`` if given.  seconds
    # < 0: deadlock deterministically via an unmatched barrier (cf.
    # examples/faults) so the in-worker watchdog produces a structured
    # deadlock report for a truly hung kernel; the fleet's deadline
    # then reaps the worker.
    deadline = time.monotonic() + seconds
    with omp("parallel num_threads(threads)"):
        if seconds >= 0:
            while time.monotonic() < deadline:
                time.sleep(0.001)
        else:
            if omp_get_thread_num() == 0:
                omp("barrier")
    return 0 if values is None else float(values.sum())


def _spin_kernel():
    global _SPIN_KERNEL
    if _SPIN_KERNEL is None:
        from repro.decorator import transform
        from repro.modes import Mode
        _SPIN_KERNEL = transform(_spin, Mode.PURE)
    return _SPIN_KERNEL


def execute(app: str, mode: str, threads: int, nodes: int,
            kwargs: dict):
    """Run one request's kernel (inside a worker process)."""
    if app == "jacobi_mpi":
        from repro.apps.jacobi_mpi import rank_main
        from repro.mpi import mpirun
        results = mpirun(nodes, rank_main, kwargs["a"], kwargs["b"],
                         kwargs["n"], kwargs["iterations"],
                         kwargs["tol"], threads, mode)
        return results[0]
    if app == "_spin":
        return _spin_kernel()(threads=threads, **kwargs)
    from repro.apps import get_app
    from repro.modes import Mode
    spec = get_app(app)
    parsed = Mode.parse(mode)
    return spec.variant(parsed)(threads=threads, **kwargs)
