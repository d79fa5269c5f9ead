"""Ablations of the design choices DESIGN.md calls out.

1. Dynamic-schedule chunk handout end to end (a loop that is nothing
   but ``for_next``).
2. Task throughput through the barrier drain vs a producer-side
   ``taskwait``.
3. Chunked NumPy kernels vs one whole-loop kernel (CompiledDT cache
   behaviour).
4. ``range`` preserved in generated code vs a generator-based driver
   (the paper's Fig. 3 rationale).

Mutex-vs-atomic primitives are not ablated here: both runtimes run on
one primitive set (``runtime/lowlevel.py``), and per-op costs are the
``runtime.*_us`` lines of ``benchmarks/e2e``.
"""

import pytest

from repro.cruntime import cruntime as rt
from repro.decorator import transform
from repro.modes import Mode


# -- 1. dynamic-schedule chunk handout ---------------------------------

def test_ablation_dynamic_schedule_end_to_end(benchmark):
    """A dynamic-schedule loop dominated by chunk handout."""
    benchmark.group = "ablation:dynamic-loop"

    def run():
        def region():
            bounds = rt.for_bounds([0, 20000, 1])
            rt.for_init(bounds, kind="dynamic", chunk=4)
            while rt.for_next(bounds):
                pass
            rt.for_end(bounds)

        rt.parallel_run(region, num_threads=4)

    benchmark.pedantic(run, rounds=3)


# -- 2. tasking end-to-end -------------------------------------------------

def test_ablation_task_throughput(benchmark):
    """Submit a burst of empty tasks; waiters at the barrier drain it."""
    benchmark.group = "ablation:tasking"

    def run():
        def region():
            state = rt.single_begin()
            if state.selected:
                for _ in range(400):
                    rt.task_submit(lambda: None)
            rt.single_end(state)

        rt.parallel_run(region, num_threads=4)

    benchmark.pedantic(run, rounds=3)


def test_ablation_taskwait_drain(benchmark):
    """The alternative to barrier draining: the producer joins its own
    children with taskwait before reaching the barrier.  Comparing
    against ``test_ablation_task_throughput`` shows how much the
    paper's reawaken-waiters-at-the-barrier design contributes."""
    benchmark.group = "ablation:tasking"

    def run():
        def region():
            state = rt.single_begin()
            if state.selected:
                for _ in range(400):
                    rt.task_submit(lambda: None)
                rt.task_wait()
            rt.single_end(state)

        rt.parallel_run(region, num_threads=4)

    benchmark.pedantic(run, rounds=3)


# -- 3. chunked vs whole-loop kernels ---------------------------------------


def _pi_chunked(n, threads):
    w: float = 1.0 / n
    total: float = 0.0
    with omp("parallel for reduction(+:total) num_threads(threads) "  # noqa: F821
             "schedule(static, 65536)"):
        for i in range(n):
            x = (i + 0.5) * w
            total += 4.0 / (1.0 + x * x)
    return total * w


def _pi_whole(n, threads):
    w: float = 1.0 / n
    total: float = 0.0
    with omp("parallel for reduction(+:total) num_threads(threads)"):  # noqa: F821,E501
        for i in range(n):
            x = (i + 0.5) * w
            total += 4.0 / (1.0 + x * x)
    return total * w


@pytest.mark.parametrize("label,source", [
    ("chunked-64k", _pi_chunked),
    ("whole-loop", _pi_whole),
])
def test_ablation_kernel_chunking(benchmark, label, source):
    benchmark.group = "ablation:kernel-chunking"
    variant = transform(source, Mode.COMPILED_DT)
    benchmark.pedantic(variant, args=(4_000_000, 2), rounds=3)


# -- 4b. taskloop vs worksharing for (extension overhead) --------------------


@pytest.mark.parametrize("label", ["taskloop-grain500", "for-dynamic500"])
def test_ablation_taskloop_vs_for(benchmark, label):
    """Cost of task-based loop distribution (taskloop) vs the shared
    chunk counter (dynamic for): per-grain task objects and queue
    traffic vs a single fetch_add per chunk."""
    benchmark.group = "ablation:taskloop-vs-for"
    fn = transform(_taskloop_simple if label.startswith("taskloop")
                   else _ws_simple, Mode.HYBRID)
    benchmark.pedantic(fn, args=(20000, 4), rounds=3)


def _taskloop_simple(n, threads):
    hits = 0
    with omp("parallel num_threads(threads)"):  # noqa: F821
        with omp("single"):  # noqa: F821
            with omp("taskloop grainsize(500)"):  # noqa: F821
                for i in range(n):
                    hits = i
    return hits


def _ws_simple(n, threads):
    hits = 0
    with omp("parallel for schedule(dynamic, 500) "  # noqa: F821
             "num_threads(threads)"):
        for i in range(n):
            hits = i
    return hits


# -- 4c. dependence-graph overhead (Section V prototype) ---------------------


@pytest.mark.parametrize("label", ["independent", "chained"])
def test_ablation_dependence_overhead(benchmark, label):
    """Cost of the id-keyed dependence graph: a fully serial inout
    chain (every submit registers with its predecessor, tasks release
    one another) vs the same tasks with no depend clauses."""
    benchmark.group = "ablation:dependences"
    chain = label == "chained"
    handle = object()

    def run():
        def region():
            state = rt.single_begin()
            if state.selected:
                for _ in range(300):
                    if chain:
                        rt.task_submit(lambda: None,
                                       depends_in=(handle,),
                                       depends_out=(handle,))
                    else:
                        rt.task_submit(lambda: None)
            rt.single_end(state)

        rt.parallel_run(region, num_threads=4)

    benchmark.pedantic(run, rounds=3)


# -- 4. range vs generator loop driver ---------------------------------------


def test_ablation_range_driver(benchmark):
    benchmark.group = "ablation:loop-driver"

    def drive():
        total = 0
        for i in range(200000):
            total += i
        return total

    benchmark(drive)


def test_ablation_generator_driver(benchmark):
    benchmark.group = "ablation:loop-driver"

    def chunks(n, size):
        low = 0
        while low < n:
            yield low, min(low + size, n)
            low += size

    def drive():
        total = 0
        for low, high in chunks(200000, 1):
            for i in range(low, high):
                total += i
        return total

    benchmark(drive)
