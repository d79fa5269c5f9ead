"""repro — reproduction of OMP4Py (CGO 2026).

OpenMP 3.0 directive-based multithreaded programming for Python, with
the paper's dual-runtime architecture (two independent instances of
one engine over a swappable low-level primitive set), plus the
*Compiled*/*CompiledDT* user-code compilation pipeline.

Quickstart (the paper's Fig. 1)::

    from repro import *

    @omp
    def pi(n):
        w = 1.0 / n
        pi_value = 0.0
        with omp("parallel for reduction(+:pi_value)"):
            for i in range(n):
                local = (i + 0.5) * w
                pi_value += 4.0 / (1.0 + local * local)
        return pi_value * w
"""

from repro.api import *  # noqa: F401,F403 - the public surface
from repro.api import __all__ as _api_all
from repro.decorator import transform
from repro.errors import (OmpError, OmpRuntimeError, OmpSyntaxError,
                          OmpTransformError)
from repro.modes import ALL_MODES, Mode

__version__ = "1.0.0"

__all__ = [*_api_all, "ALL_MODES", "Mode", "OmpError", "OmpRuntimeError",
           "OmpSyntaxError", "OmpTransformError", "transform",
           "__version__"]
