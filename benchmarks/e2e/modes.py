"""Per-mode measurement: the workload's kernel set in the four modes.

Estimator (README.md, "Estimator"): host interference on the reference
machine only ever *adds* time, so a per-mode metric is
``Σ_terms min_reps wall[term][rep]`` — never a mean, never one sample.
One *round* calls every term once sequentially (the host-speed check
``apps.seq_s``) and once in every mode, interleaved inside the round so
drift hits all of them alike; garbage collection is forced before and
disabled around each call; inputs are built once in set-up and copied
per call.  All-round medians are kept beside the
best times so a change that only fattens the tail still shows in the
layer ledger.

Every call goes through the public entry points only —
``repro.decorator.transform`` and ``repro.analysis.timing.measure`` —
and every result is verified against the term's sequential reference;
a wrong result raises :class:`Unverified` and the run prints nothing.
"""

from __future__ import annotations

import collections
import gc
import statistics
import time

from repro.analysis.timing import measure
from repro.decorator import transform
from repro.modes import ALL_MODES, Mode

from e2e.workloads import THREADS


class Unverified(Exception):
    """A kernel returned something its sequential reference rejects."""


class Samples:
    """Per (term, mode): every round's wall, projection, transform
    time and CPU placement, plus the :class:`Measurement` of the best
    round."""

    def __init__(self):
        self.walls = collections.defaultdict(list)
        self.projected = collections.defaultdict(list)
        self.transforms = collections.defaultdict(list)
        #: Parallel to ``walls``: did the round run with the full
        #: affinity mask (True) or confined to one CPU (False)?
        self.free = collections.defaultdict(list)
        #: Per term: every round's wall of the sequential reference.
        self.sequential = collections.defaultdict(list)
        self.best = {}
        self.calls = 0

    def add(self, key, wall, projected, transform_s, measurement, free):
        self.calls += 1
        walls = self.walls[key]
        if not walls or wall < min(walls):
            self.best[key] = measurement
        walls.append(wall)
        self.projected[key].append(projected)
        self.transforms[key].append(transform_s)
        self.free[key].append(free)

    def rounds(self) -> int:
        return min((len(walls) for walls in self.walls.values()),
                   default=0)

    def _sum(self, table, mode: Mode, pick, free=None) -> float:
        """Σ over the terms of ``pick(samples)`` in ``mode``; ``free``
        keeps only the rounds of that placement."""
        return sum(
            pick([value for value, placement
                  in zip(values, self.free[key])
                  if free is None or placement is free])
            for key, values in table.items() if key[1] is mode)

    def best_s(self, mode: Mode, free=None) -> float:
        return self._sum(self.walls, mode, min, free)

    def median_s(self, mode: Mode) -> float:
        return self._sum(self.walls, mode, statistics.median)

    def projected_s(self, mode: Mode) -> float:
        return self._sum(self.projected, mode, min)

    def transform_s(self, mode: Mode) -> float:
        return self._sum(self.transforms, mode, min)

    def sequential_s(self) -> float:
        return sum(min(walls) for walls in self.sequential.values())

    def measurements(self, mode: Mode) -> list:
        return [measurement for (_term, key_mode), measurement
                in self.best.items() if key_mode is mode]


def build_inputs(workload, seed: int, quick: bool, rec) -> list:
    """Generate every term's inputs."""
    with rec.span("apps.inputs"):
        return workload.terms(seed, quick)


def run_references(terms, rec) -> None:
    """Compute every term's sequential reference."""
    with rec.span("apps.sequential"):
        for term in terms:
            term.reference = term.run_sequential()
    # The inputs live for the whole run: keep them out of every later
    # collection so ``gc.collect()`` before a timed call stays cheap.
    gc.collect()
    gc.freeze()


def transform_all(terms, rec) -> dict:
    with rec.span("decorator.transform"):
        return {(term.name, mode): transform(term.source_for(mode), mode)
                for term in terms for mode in ALL_MODES}


def run_round(terms, variants, samples: Samples, rec,
              free: bool) -> None:
    """Call every term in every mode once and record the samples.

    ``variants`` maps (term, mode) to the transformed kernel; ``None``
    makes every call a fresh ``transform`` whose time counts towards
    the term (the ``firstcall`` workload).  ``free`` says which CPU
    placement the caller has put the process in.
    """
    for term in terms:
        kwargs = term.call_inputs(Mode.PURE)
        gc.collect()
        gc.disable()
        try:
            with rec.span(f"apps.{term.name}.sequential"):
                begin = time.perf_counter()
                term.sequential(**kwargs)
                samples.sequential[term.name].append(
                    time.perf_counter() - begin)
        finally:
            gc.enable()
        for mode in ALL_MODES:
            key = (term.name, mode)
            kwargs = term.call_inputs(mode)
            gc.collect()
            gc.disable()
            try:
                with rec.span(f"apps.{term.name}.{mode.value}"):
                    transform_s = 0.0
                    if variants is None:
                        begin = time.perf_counter()
                        with rec.span("decorator.transform"):
                            kernel = transform(term.source_for(mode), mode)
                        transform_s = time.perf_counter() - begin
                    else:
                        kernel = variants[key]
                    with rec.span("analysis.measure"):
                        result = measure(kernel, threads=THREADS, **kwargs)
            finally:
                gc.enable()
            if not term.verify(result.value, term.reference):
                raise Unverified(
                    f"{term.name} in {mode.value} mode disagrees with "
                    f"its sequential reference")
            samples.add(key, transform_s + result.wall,
                        transform_s + result.projected, transform_s,
                        result, free)
