"""Inspector–executor plans for irregular workloads.

The paper's irregular apps (bfs, md, wordcount) funnel every concurrent
update through ``critical``/``atomic`` sections, and the scaling
explainer names the result: a lock convoy.  This package is the cure —
the PyOP2-style inspector–executor architecture:

* declare a :class:`~repro.plan.map.Map` (which shared *elements* each
  iteration touches — the indirection map only the application knows);
* the **inspector** (:func:`~repro.plan.planner.build_plan`) partitions
  the iteration space, builds the partition conflict graph over shared
  elements, and greedily colors it so no two same-color partitions
  touch a common element;
* the **executor** (:func:`~repro.plan.executor.execute`) runs the
  partitions color by color — *zero synchronization inside a color*,
  one barrier between colors — with a stable partition→thread owner
  assignment mapped onto the ``OMP_PLACES`` topology, so a partition's
  data stays with its worker across colors and timesteps;
* plans are cached keyed by ``(map, partition size)``
  (:func:`~repro.plan.cache.plan_for`), so the inspector cost
  amortizes across timesteps;
* a planned kernel that also reduces keeps its partial sums in a
  :class:`~repro.plan.accumulator.PaddedAccumulator`, one
  cache-line-padded row per thread.

Plan activity (partitions, colors, conflict edges, cache hits) is
reported through the OMPT-style tool interface (``ToolHooks.plan``)
and the tracer (``plan_execute`` events), so ``repro.explain`` can
report "convoy fixed by plan" instead of a lock-convoy verdict.
"""

from __future__ import annotations

from repro.plan.accumulator import CACHE_LINE_BYTES, PaddedAccumulator
from repro.plan.cache import (clear_plan_cache, plan_cache_stats,
                              plan_for)
from repro.plan.executor import execute, execute_member
from repro.plan.map import Map
from repro.plan.planner import Plan, build_plan

__all__ = ["CACHE_LINE_BYTES", "Map", "PaddedAccumulator", "Plan",
           "build_plan", "clear_plan_cache", "execute", "execute_member",
           "plan_cache_stats", "plan_for"]
