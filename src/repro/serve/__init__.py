"""Shared-memory kernel-serving layer: ``python -m repro.serve``.

The serving subsystem turns the repository's parallel kernels into a
long-running multi-tenant service:

* an HTTP/JSON front door (:mod:`repro.serve.server`) accepting
  requests against the shipped apps plus the fig8 hybrid
  ``jacobi_mpi`` multi-node tenant;
* a shared-memory data plane (:mod:`repro.serve.shm`) — request
  arrays live in ``multiprocessing.shared_memory`` segments and only
  tiny handles cross process boundaries;
* batching and sharding across pooled worker processes
  (:mod:`repro.serve.fleet`, :mod:`repro.serve.worker`), each holding
  a warm hot-team runtime with the stall watchdog armed;
* admission control with load shedding (:mod:`repro.serve.admission`)
  and per-tenant thread budgets mapped onto ``OMP_PLACES`` partitions
  (:mod:`repro.serve.tenants`).

See docs/serving.md for the architecture and the wire protocol.
"""

import importlib

#: Public name -> submodule.  Resolved on first access (PEP 562): a
#: client that only attaches segments (``repro.serve.shm``) imports
#: through this package and must not load the HTTP front door.
_EXPORTS = {"AdmissionQueue": "admission", "QueueFull": "admission",
            "ServeRequest": "protocol", "result_digest": "protocol",
            "ServeServer": "server",
            "ArrayHandle": "shm", "ShmRegistry": "shm",
            "leaked_segments": "shm",
            "DuplicateTenantError": "tenants",
            "TenantDirectory": "tenants"}

__all__ = ["AdmissionQueue", "ArrayHandle", "DuplicateTenantError",
           "QueueFull", "ServeRequest", "ServeServer", "ShmRegistry",
           "TenantDirectory", "leaked_segments", "result_digest"]


def __getattr__(name: str):
    submodule = _EXPORTS.get(name)
    if submodule is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{submodule}"), name)
    globals()[name] = value
    return value
