"""The outside-in layer ledger of a traced run.

One cost line per layer, timed from here around that layer's public
calls (spans inside the program are a later change).  Three sources:

* the run itself — the per-mode samples (``analysis.*``, ``modes.*``,
  ``compiler.dt_speedup``), the set-up steps (``apps.inputs_s``,
  ``serve.fleet_ready_s``) and the serving replies (``serve.exec_ms``,
  ``serve.overhead_ms``, ...);
* the workload's own kernels and requests handed to one layer at a
  time — directive parsing, ``transform`` per mode, a cache hit, an
  input-store miss, in-process execution of the served mix;
* unit costs — per-op runtime costs from the finegrain kernels under
  the mutex runtime (Pure) and the atomics runtime (Hybrid), taken
  from the run's own samples where the workload timed those kernels
  and measured here where it did not; atomic-cell vs mutex counter
  adds, shm create/attach, digest, request parsing, admission, the
  plan inspector.  A traced run must print every per-layer metric of
  ``BENCHMARK.json`` whatever the workload, so these print everywhere;
  README.md says which workload each one is predicted to move.

Every timing is a best-of-``REPEATS``; the ledger is context for the
end-to-end metrics and carries no regression bound.
"""

from __future__ import annotations

import ast
import gc
import inspect
import statistics
import tempfile
import textwrap
import time

import numpy as np

from repro.analysis.timing import measure
from repro.apps import get_app
from repro.decorator import transform
from repro.directives import parse_directive
from repro.modes import ALL_MODES, Mode
from repro.ompt import MetricsTool

from e2e import kernels, serving
from e2e.modes import Unverified
from e2e.workloads import FINE_COUNTS, THREADS, fine_term

REPEATS = 5
QUICK_REPEATS = 2
MIB = 1 << 20


def best_of(repeats: int, call, *, setup=None) -> float:
    """Best wall time of ``call(setup())`` over ``repeats`` runs."""
    best = float("inf")
    for _ in range(repeats):
        argument = setup() if setup else None
        gc.collect()
        gc.disable()
        try:
            begin = time.perf_counter()
            call(argument) if setup else call()
            best = min(best, time.perf_counter() - begin)
        finally:
            gc.enable()
    return best


def _directives(source) -> list[str]:
    """The directive strings of one kernel source function."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(source)))
    return [node.args[0].value for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "omp"
            and node.args and isinstance(node.args[0], ast.Constant)]


# -- the run's own samples ---------------------------------------------


def _from_samples(samples, setup) -> dict:
    pure = samples.measurements(Mode.PURE)
    hybrid = samples.measurements(Mode.HYBRID)
    pure_wall = sum(m.wall for m in pure)
    critical = sum(m.critical_cpu for m in hybrid)
    mean_cpu = sum(m.critical_cpu / m.imbalance for m in hybrid)
    out = {
        "apps.seq_s": (samples.sequential_s(), "s"),
        "apps.inputs_s": (setup["inputs"], "s"),
        "analysis.regions": (sum(m.regions for m in pure), "count"),
        "analysis.parallel_fraction": (
            sum(m.serialized_cpu for m in pure) / pure_wall, "ratio"),
        "analysis.outside_s": (
            sum(max(0.0, m.wall - m.serialized_cpu) for m in pure), "s"),
        "analysis.imbalance": (critical / mean_cpu if mean_cpu else 1.0,
                               "ratio"),
        "analysis.noise_ratio": (samples.median_s(Mode.HYBRID)
                                 / samples.best_s(Mode.HYBRID), "ratio"),
        "compiler.dt_speedup": (samples.best_s(Mode.PURE)
                                / samples.best_s(Mode.COMPILED_DT),
                                "ratio"),
    }
    for mode in ALL_MODES:
        out[f"modes.{mode.value}_median_s"] = (samples.median_s(mode),
                                               "s")
        # The two CPU placements the rounds sample, each on its own:
        # the end-to-end metric is the best over both.
        out[f"modes.{mode.value}_onecpu_s"] = (
            samples.best_s(mode, free=False), "s")
        out[f"modes.{mode.value}_allcpus_s"] = (
            samples.best_s(mode, free=True), "s")
    return out


# -- directives / decorator / compiler ---------------------------------


def _transform_layers(terms, samples, repeats) -> dict:
    sources = list(dict.fromkeys(
        term.source_for(mode) for term in terms for mode in ALL_MODES))
    directives = [text for source in sources
                  for text in _directives(source)]
    parse_s = best_of(repeats, lambda: [parse_directive(text)
                                        for text in directives])
    # A firstcall run has timed every fresh transform already.
    transform_ms = {
        mode: 1e3 * (samples.transform_s(mode) or sum(best_of(
            repeats, lambda: transform(term.source_for(mode), mode))
            for term in terms))
        for mode in ALL_MODES}
    with tempfile.TemporaryDirectory(prefix="e2e-cache-") as cache:
        for term in terms:
            transform(term.source, Mode.PURE, cache=cache)
        hit_ms = 1e3 * sum(best_of(
            repeats, lambda: transform(term.source, Mode.PURE,
                                       cache=cache))
            for term in terms)
    lines = sum(
        len(transform(term.source, Mode.HYBRID).__omp_source__
            .splitlines()) for term in terms)
    out = {"directives.parse_us": (1e6 * parse_s / len(directives),
                                   "us"),
           "directives.count": (len(directives), "count"),
           "decorator.cache_hit_ms": (hit_ms, "ms"),
           "decorator.generated_lines": (lines, "count"),
           "compiler.optimize_ms": (transform_ms[Mode.COMPILED]
                                    - transform_ms[Mode.HYBRID], "ms"),
           "compiler.vectorize_ms": (transform_ms[Mode.COMPILED_DT]
                                     - transform_ms[Mode.COMPILED],
                                     "ms")}
    for mode in ALL_MODES:
        out[f"decorator.transform_ms.{mode.value}"] = (
            transform_ms[mode], "ms")
    return out


# -- runtime / cruntime / atomics --------------------------------------

#: ledger name -> finegrain kernel whose best time / op count it is.
#: ``reduction_us`` is one region *with* a reduction (subtract
#: ``forkjoin_us`` for the combine alone); ``guided_chunk_us`` is per
#: iteration, because a guided chunk covers many.
PER_OP = {"forkjoin_us": "regions", "barrier_us": "barriers",
          "static_chunk_us": "static1", "dynamic_chunk_us": "dynamic1",
          "guided_chunk_us": "guided1", "critical_us": "critical",
          "atomic_us": "atomic", "reduction_us": "reduction",
          "task_us": "tasks"}


def _checked_call(kernel: str, mode: Mode, count: int):
    """One verified call of a finegrain kernel, ready to be timed."""
    term = fine_term(kernel, count)
    variant = transform(term.source, mode)

    def call():
        result = measure(variant, threads=THREADS, count=count)
        if result.value != term.sequential(count):
            raise Unverified(f"{kernel} in {mode.value} mode "
                             f"(layer ledger)")
    return call


def _runtime_layers(workload, terms, samples, repeats, quick) -> dict:
    from repro.cruntime import cruntime
    from repro.runtime import pure_runtime
    out = {}
    # The finegrain workload has timed its kernels already (firstcall
    # has too, but at test size and with the transform in the time).
    sampled = {} if workload.fresh_transform else \
        {term.name: term for term in terms if term.name in kernels.KERNELS}
    counts = dict(FINE_COUNTS, guided1=FINE_COUNTS["static1"])
    for layer, mode in (("runtime", Mode.PURE), ("cruntime", Mode.HYBRID)):
        for metric, kernel in PER_OP.items():
            if kernel in sampled:
                count = sampled[kernel].inputs["count"]
                seconds = min(samples.walls[kernel, mode])
            else:
                count = 50 if quick else counts[kernel] // 3
                seconds = best_of(repeats, _checked_call(kernel, mode,
                                                         count))
            out[f"{layer}.{metric}"] = (1e6 * seconds / count, "us")
    pool = pure_runtime.pool().snapshot()
    out["runtime.pool_reuse_ratio"] = (
        pool["reused"] / max(1, pool["reused"] + pool["spawned"]),
        "ratio")
    tool = MetricsTool()
    pure_runtime.attach_tool(tool)
    try:
        transform(kernels.tasks, Mode.PURE)(count=400, threads=THREADS)
    finally:
        pure_runtime.detach_tool(tool)
    tallies = {"omp_task_steals_total": 0.0,
               "omp_task_local_hits_total": 0.0}
    for name, _labels, metric in tool.registry.collect():
        if name in tallies:
            tallies[name] += metric.sample()
    out["runtime.task_steal_ratio"] = (
        tallies["omp_task_steals_total"]
        / max(1.0, sum(tallies.values())), "ratio")
    adds = 2000 if quick else 50_000
    for name, runtime in (("atomics.mutex_add_us", pure_runtime),
                          ("atomics.cell_add_us", cruntime)):
        counter = runtime.lowlevel.make_counter()

        def add(counter=counter):
            for _ in range(adds):
                counter.fetch_add(1)
        out[name] = (1e6 * best_of(repeats, add) / adds, "us")
    return out


# -- serve -------------------------------------------------------------


def _serve_layers(workload, replies, windows, counters,
                  setup, repeats) -> dict:
    from repro.serve import catalog
    from repro.serve.admission import AdmissionQueue
    from repro.serve.protocol import parse_request, result_digest
    from repro.serve.server import MAX_THREADS, InputStore
    from repro.serve.shm import AttachedArrays, ShmRegistry

    latencies = [reply.latency for reply in replies]
    out = {
        "serve.exec_ms": (1e3 * statistics.median(
            reply.exec_s for reply in replies), "ms"),
        "serve.overhead_ms": (1e3 * statistics.median(
            reply.latency - reply.exec_s for reply in replies), "ms"),
        "serve.busy_cpu_ms": (1e3 * statistics.median(
            reply.busy_cpu_s for reply in replies), "ms"),
        "serve.rps_all": (sum(reply.ok for reply in replies) / sum(
            window["elapsed_s"] for window in windows), "1/s"),
        "serve.p95_all_ms": (1e3 * serving.percentile(latencies, 0.95),
                             "ms"),
        "serve.batch_mean": (counters["batch_mean"], "count"),
        "serve.shed": (counters["shed"], "count"),
        "serve.retries": (counters["retries"], "count"),
        "serve.fleet_ready_s": (setup["fleet"], "s"),
    }
    docs = workload.requests(0, 1, len(workload.mix))
    known = catalog.serveable_apps()

    def parse_all():
        return [parse_request(doc, known_apps=known,
                              default_tenant="bench",
                              max_threads=MAX_THREADS) for doc in docs]
    out["serve.parse_us"] = (1e6 * best_of(repeats, parse_all)
                             / len(docs), "us")

    def admit(requests):
        queue = AdmissionQueue(16)
        for request in requests:
            queue.offer(request, idle_workers=1)
            queue.next_batch(max_batch=4, can_dispatch=lambda _r: True)
    out["serve.admission_us"] = (
        1e6 * best_of(repeats, admit, setup=parse_all) / len(docs), "us")

    payload = np.arange(MIB // 8, dtype=np.float64)
    registry = ShmRegistry(tag="e2e")
    try:
        handles = []
        out["serve.shm_create_ms_per_mib"] = (1e3 * best_of(
            repeats,
            lambda: handles.append(registry.create_array(payload))), "ms")

        def attach(attached):
            attached.get(handles[0])
            attached.close_all()
        out["serve.shm_attach_us"] = (
            1e6 * best_of(repeats, attach, setup=AttachedArrays), "us")
        out["serve.digest_ms_per_mib"] = (
            1e3 * best_of(repeats, lambda: result_digest(payload)), "ms")
        # A fresh store misses on every key, whatever the overrides.
        out["serve.store_miss_ms"] = (1e3 * best_of(
            repeats,
            lambda fresh: [fresh[0].entry(request) for request in fresh[1]],
            setup=lambda: (InputStore(registry), parse_all()))
            / len(docs), "ms")
    finally:
        registry.close_all()

    def worker_kwargs():
        """Kernel arguments as a worker materialises them: numeric
        fields as private NumPy copies, the rest as built."""
        prepared = []
        for doc in docs:
            inputs = catalog.build_inputs(doc["app"], "test",
                                          doc["overrides"])
            arrays, _scalars, _rebuild = catalog.classify_inputs(
                doc["app"], inputs)
            inputs.update({field: array.copy()
                           for field, (array, *_rest) in arrays.items()})
            prepared.append((doc["app"], inputs))
        return prepared

    def execute_mix(prepared):
        for app, kwargs in prepared:
            catalog.execute(app, "hybrid", THREADS, 1, kwargs)
    execute_mix(worker_kwargs())  # transforms the hybrid variants
    out["serve.inproc_exec_ms"] = (1e3 * best_of(
        repeats, execute_mix, setup=worker_kwargs) / len(docs), "ms")
    return out


# -- plan --------------------------------------------------------------


def _plan_layers(repeats, quick) -> dict:
    from repro.apps import bfs, wordcount
    from repro.plan import build_plan, clear_plan_cache, plan_for

    side, lines = (15, 100) if quick else (41, 1500)
    maps = [(bfs.rows_map(side), max(1, side // (4 * THREADS))),
            (wordcount.shard_map(4 * THREADS), 1)]
    plans = [build_plan(the_map, size) for the_map, size in maps]
    out = {"plan.build_ms": (1e3 * best_of(
        repeats, lambda: [build_plan(the_map, size)
                          for the_map, size in maps]), "ms"),
        "plan.colors": (sum(plan.ncolors for plan in plans), "count")}
    clear_plan_cache()
    for the_map, size in maps:
        plan_for(the_map, size)
    out["plan.cache_hit_us"] = (1e6 * best_of(
        repeats, lambda: [plan_for(the_map, size)
                          for the_map, size in maps]) / len(maps), "us")

    grid = bfs.make_maze(side)
    corpus = wordcount.make_corpus(lines)
    frontier = transform(bfs.kernel_frontier, Mode.PURE)
    merge = get_app("wordcount").variant(Mode.PURE)

    def checked(call, reference):
        def run():
            if call() != reference:
                raise Unverified("planned/critical kernel (layer ledger)")
        return run
    #: (critical-section variant, planned variant, expected result)
    pairs = [
        (lambda: frontier(grid=grid, n=side, threads=THREADS),
         lambda: bfs.kernel_planned(grid, side, THREADS),
         bfs.sequential(grid, side)),
        (lambda: merge(corpus=corpus, count=len(corpus), threads=THREADS),
         lambda: wordcount.kernel_planned(corpus, len(corpus), THREADS),
         wordcount.sequential(corpus, len(corpus)))]
    critical_s = sum(best_of(repeats, checked(critical, expected))
                     for critical, _planned, expected in pairs)
    planned_s = sum(best_of(repeats, checked(planned, expected))
                    for _critical, planned, expected in pairs)
    out["plan.planned_over_critical"] = (critical_s / planned_s, "ratio")
    return out


def ledger(*, workload, terms, samples, replies, windows, counters,
           setup, quick) -> dict:
    repeats = QUICK_REPEATS if quick else REPEATS
    out = _from_samples(samples, setup)
    out.update(_transform_layers(terms, samples, repeats))
    out.update(_runtime_layers(workload, terms, samples, repeats, quick))
    out.update(_serve_layers(workload, replies, windows, counters,
                             setup, repeats))
    out.update(_plan_layers(repeats, quick))
    return out
