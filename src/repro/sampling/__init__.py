"""Directive-aware sampling profiler (the ``OMP4PY_PROFILE`` knob).

A daemon thread walks ``sys._current_frames()`` at a configurable
interval (default 5 ms), classifies every runtime thread's sample as
on-CPU vs waiting by cross-referencing the diagnostics blocking
records, and tags each sample with the innermost active OpenMP
directive — resolved through the transform origin registry, so folded
stacks read ``user_file:line → <omp parallel @ file:line> → frames``.

Arming goes through :mod:`repro.arming` like every other consumer of
the runtime's events: the ``@omp`` decorator arms it from the
environment, the profile and explain CLIs programmatically.  A running
sampler is a tool on the runtime's one event channel
(``runtime.tool``), so a disarmed one costs the runtime nothing.
"""

from repro.sampling.sampler import FoldedStore, Sampler
from repro.sampling.exporters import (collapsed_text,
                                      speedscope_profile,
                                      validate_collapsed,
                                      validate_speedscope)

__all__ = ["Sampler", "FoldedStore", "collapsed_text",
           "speedscope_profile", "validate_collapsed",
           "validate_speedscope"]
