"""The pure-Python OMP4Py runtime (the paper's ``runtime``).

The runtime implements every low-level operation the generated code
calls (``parallel_run``, ``for_bounds``/``for_init``/``for_next``,
``task_submit``/``task_wait``, barriers, mutexes) plus the OpenMP runtime
library API.  The module-level singleton :data:`pure_runtime` is what the
transformer binds to the ``__omp__`` handle in *Pure* mode.

:mod:`repro.cruntime` is a second instance of the same engine on the
same primitives (:mod:`repro.runtime.lowlevel`, the seam where the
paper's Cython runtime overrides its low-level ``.pyx`` modules).
"""

from repro.runtime.engine import OmpRuntime
from repro.runtime.gilstate import Backend, current_backend
from repro.runtime.lowlevel import MutexLowLevel

#: Singleton pure-Python runtime, bound as ``__omp__`` in *Pure* mode.
pure_runtime = OmpRuntime("runtime", MutexLowLevel())

__all__ = ["Backend", "OmpRuntime", "current_backend", "pure_runtime"]
