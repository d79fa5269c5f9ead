"""The four workloads: kernel sets, generated inputs, served mixes.

A workload is a set of *terms* (kernels timed in each of the paper's
four modes) plus a *served mix* (the request stream for the serving
phase).  Everything the program sees is generated here from ``--seed``:
the seed feeds every ``make_input(seed=...)`` and the request order,
the same seed gives the same inputs, and sizes are chosen so the cost
of a run does not depend on which seed it got (fixed iteration counts,
``tol=0`` for jacobi, a maze drawn until its reachable-cell count
matches the nominal one).

Sizes are calibrated for ``threads=2`` on the 2-vCPU reference host so
a kernel takes 15-60 ms and one round of a workload's terms (the
sequential reference and the four modes) about a second; README.md,
"Estimator", has the measurements behind that choice.
"""

from __future__ import annotations

import dataclasses
import inspect
import random

import numpy as np

from repro.apps import get_app, list_apps
from repro.modes import Mode

from e2e import kernels

#: Team size of every timed call and every served request (= nproc).
THREADS = 2

#: Finegrain op counts: 14–28 ms per kernel in Pure at THREADS with the
#: team on one core (5–10x that for the sync-heavy ones when it spans
#: both).
FINE_COUNTS = {"regions": 300, "barriers": 850, "static1": 18_000,
               "dynamic1": 15_000, "critical": 40_000, "atomic": 60_000,
               "reduction": 200, "tasks": 1200}

#: The ``test``-profile op count of a finegrain kernel (firstcall,
#: ``--quick``).
FINE_TEST_COUNT = 50

#: bfs mazes are drawn until the number of reachable cells is within
#: half a percent of this nominal count (side -> cells): the kernel's
#: work is one task and two criticals per reachable cell, so an
#: unconstrained maze would move ``irregular`` by ±3 % with the seed.
BFS_REACHABLE = {47: 1538, 31: 672}


@dataclasses.dataclass
class Term:
    """One timed kernel: sources, generated inputs, reference."""

    name: str
    source: object
    source_dt: object
    inputs: dict
    inputs_dt: dict
    sequential: object
    verify: object
    #: Filled by ``modes.prepare``: the sequential reference result.
    reference: object = None

    def source_for(self, mode: Mode):
        return self.source_dt if mode is Mode.COMPILED_DT else self.source

    def call_inputs(self, mode: Mode) -> dict:
        """Fresh kernel arguments: several kernels sort, factorise or
        integrate in place, so every call gets its own copy."""
        inputs = self.inputs_dt if mode is Mode.COMPILED_DT \
            else self.inputs
        return {key: _copy(value) for key, value in inputs.items()}

    def run_sequential(self):
        return self.sequential(
            **{key: _copy(value) for key, value in self.inputs.items()})


def _copy(value):
    if isinstance(value, np.ndarray):
        return value.copy()
    if isinstance(value, list):
        if value and isinstance(value[0], list):
            return [row[:] for row in value]
        return value[:]
    return value


def _takes_seed(maker) -> bool:
    return "seed" in inspect.signature(maker).parameters


def _bfs_seed(side: int, seed: int) -> int:
    """First maze seed at or after ``seed`` with the nominal amount of
    reachable cells (see :data:`BFS_REACHABLE`)."""
    target = BFS_REACHABLE.get(side)
    if target is None:
        return seed
    bfs = get_app("bfs")
    best, best_gap = seed, None
    for candidate in range(seed, seed + 64):
        cells = bfs.sequential(**bfs.make_input(n=side,
                                                seed=candidate))[1]
        gap = abs(cells - target)
        if gap <= target * 0.005:
            return candidate
        if best_gap is None or gap < best_gap:
            best, best_gap = candidate, gap
    return best


def app_term(name: str, params: dict, seed: int) -> Term:
    """One app kernel on inputs generated from ``seed``.

    Three apps need a rule of their own so that their cost does not
    move with the seed (or, for lu, so that they verify at all); they
    are kept together here.
    """
    spec = get_app(name)
    params = dict(params)
    # lu keeps its builder's default seed: ``lu.verify`` rebuilds the
    # matrix from that default to check L @ U against it.
    if _takes_seed(spec.make_input) and name != "lu":
        # Distinct streams per app, all derived from the run's seed.
        params["seed"] = seed * 1000 + list_apps().index(name)
    if name == "bfs":
        params["seed"] = _bfs_seed(params["n"], params["seed"])
    if name == "jacobi":
        # Never converge early: a fixed number of sweeps.
        params["tol"] = 0.0
    inputs = spec.make_input(**params)
    inputs_dt = spec.make_input_dt(**params) if spec.make_input_dt \
        else inputs
    return Term(name=name, source=spec.kernel, source_dt=spec.kernel_dt,
                inputs=inputs, inputs_dt=inputs_dt,
                sequential=spec.sequential, verify=spec.verify)


def fine_term(name: str, count: int) -> Term:
    source, reference = kernels.KERNELS[name]
    inputs = {"count": count}
    return Term(name=name, source=source, source_dt=source,
                inputs=inputs, inputs_dt=inputs,
                sequential=lambda count: reference(count, THREADS),
                verify=lambda result, expected: result == expected)


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: (app name, make_input parameters) per app term.
    apps: tuple = ()
    #: Finegrain kernel names (counts from FINE_COUNTS).
    fine: tuple = ()
    #: Every term is a fresh ``transform`` + one call at test size.
    fresh_transform: bool = False
    #: Served mix: (app, overrides) per entry, equal shares.
    mix: tuple = ()
    #: Add a never-repeated ``seed`` override to every request, so the
    #: server's input store misses every time.
    unique_inputs: bool = False

    def terms(self, seed: int, quick: bool = False) -> list[Term]:
        terms = []
        for name, params in self.apps:
            if quick or self.fresh_transform:
                params = get_app(name).sizes["test"]
            terms.append(app_term(name, params, seed))
        for name in self.fine:
            count = FINE_TEST_COUNT if quick or self.fresh_transform \
                else FINE_COUNTS[name]
            terms.append(fine_term(name, count))
        return terms

    def requests(self, seed: int, windows: int,
                 per_window: int) -> list[dict]:
        """The request documents of a serving phase, in send order.

        Every window holds the same multiset of mix entries (equal
        windows must hold equal work); the seed decides the order
        inside each window.
        """
        rng = random.Random(seed)
        docs = []
        serial = 1_000_000 + seed * 10_000
        for _window in range(windows):
            block = [self.mix[index % len(self.mix)]
                     for index in range(per_window)]
            rng.shuffle(block)
            for app, overrides in block:
                overrides = dict(overrides)
                if self.unique_inputs:
                    serial += 1
                    overrides["seed"] = serial
                docs.append({"app": app, "mode": "hybrid",
                             "threads": THREADS, "tenant": "bench",
                             "overrides": overrides})
        return docs


WORKLOADS = {w.name: w for w in (
    Workload(
        name="numeric",
        why="loop bodies dominate (1-14 regions per call); compiler and "
            "interpreter do the work, runtime almost none - a native "
            "tier must move compiled*_s here, a sync-path change must "
            "not",
        apps=(("pi", {"n": 300_000}),
              ("jacobi", {"n": 384, "iterations": 3}),
              ("lu", {"n": 110}),
              ("md", {"n": 180, "steps": 2}),
              ("fft", {"n": 1 << 12})),
        mix=(("pi", {"n": 30_000}),
             ("jacobi", {"n": 32, "iterations": 9}),
             ("lu", {"n": 16}),
             ("md", {"n": 28}),
             ("fft", {"n": 512}))),
    Workload(
        name="irregular",
        why="tasks, critical, dynamic chunks and dict merges: "
            "runtime.tasking/locks/worksharing carry a large share and "
            "CompiledDT ~ Pure, so a compiler gain must not show here",
        apps=(("qsort", {"n": 33_000}),
              ("bfs", {"n": 47}),
              ("clustering", {"nodes": 700, "degree": 12}),
              ("wordcount", {"lines": 5000, "vocabulary_size": 600})),
        mix=(("qsort", {"n": 1000}),
             ("bfs", {"n": 13}),
             ("clustering", {"nodes": 100, "degree": 8}),
             ("wordcount", {"lines": 400, "vocabulary_size": 300}))),
    Workload(
        name="finegrain",
        why="empty bodies make the whole time runtime/cruntime/atomics; "
            "tiny requests make front door + admission + dispatch + "
            "digest most of the latency - sync-path and serving-core "
            "work lands here only",
        fine=tuple(FINE_COUNTS),
        mix=(("pi", {"n": 2000}),
             ("jacobi", {"n": 8, "iterations": 5}),
             ("qsort", {"n": 200}))),
    Workload(
        name="firstcall",
        why="every term is a fresh transform + one small call, every "
            "request misses the input store: cold transform/compiler "
            "and the shm write path, as a short script pays - a "
            "transform cache must move this only",
        apps=tuple((name, None) for name in list_apps()),
        fine=tuple(FINE_COUNTS),
        fresh_transform=True,
        mix=(("jacobi", {"n": 8, "iterations": 5}),
             ("qsort", {"n": 200}),
             ("fft", {"n": 128})),
        unique_inputs=True),
)}
