"""The second runtime (the paper's Cython ``cruntime``).

In the paper the cruntime re-implements only the low-level modules —
counters, events, task-queue linking, shared-slot creation — on C
atomics and reuses every logic module of the pure runtime unchanged.
No native substrate is built here yet, so this is the same
:class:`repro.runtime.OmpRuntime` engine on the same mutex primitives
(:mod:`repro.runtime.lowlevel`): what the dual-runtime design keeps is
the second, independent instance.

The two runtimes keep fully separate per-thread contexts and worker
pools; code bound to one must not synchronize with code bound to the
other (Section III-B).
"""

from repro.runtime.engine import OmpRuntime
from repro.runtime.lowlevel import MutexLowLevel

#: Singleton second runtime, bound as ``__omp__`` in *Hybrid*,
#: *Compiled*, and *CompiledDT* modes.
cruntime = OmpRuntime("cruntime", MutexLowLevel())

__all__ = ["cruntime"]
