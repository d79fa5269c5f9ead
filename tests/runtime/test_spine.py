"""The event spine: the runtime emits through ``runtime.tool`` only,
and the tracer — one tool among others — still records every
documented ``TraceEvent`` kind with the documented detail layout."""

import ast
import pathlib
import re
import threading

import pytest

import repro
from repro.cruntime import cruntime
from repro.diagnostics.flight import FlightRecorder
from repro.ompt.metrics import MetricsTool
from repro.plan import Map, build_plan, execute
from repro.runtime import pure_runtime
from repro.runtime.trace import TraceEvent

SRC = pathlib.Path(repro.__file__).parent
RUNTIME_FILES = [SRC / "runtime" / f"{name}.py"
                 for name in ("engine", "locks", "tasking", "worksharing",
                              "pool", "team")] + [SRC / "plan" / "executor.py"]


def _bypasses(path: pathlib.Path) -> list[str]:
    """Attribute reads that go around the tool channel: ``x.sampler``,
    ``x.tracer.enabled``, ``x.tracer.record`` — anywhere but in
    ``OmpRuntime.__init__``, which defines the attributes."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    allowed = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == "OmpRuntime":
            for item in node.body:
                if isinstance(item, ast.FunctionDef) \
                        and item.name == "__init__":
                    allowed = {id(sub) for sub in ast.walk(item)}
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute) or id(node) in allowed:
            continue
        through_tracer = (isinstance(node.value, ast.Attribute)
                          and node.value.attr == "tracer"
                          and node.attr in ("enabled", "record"))
        if through_tracer or (node.attr == "sampler"
                              and isinstance(node.ctx, ast.Load)):
            found.append(f"{path.name}:{node.lineno}")
    return found


@pytest.mark.parametrize("path", RUNTIME_FILES, ids=lambda p: p.name)
def test_runtime_emits_through_the_tool_channel_only(path):
    assert _bypasses(path) == []


#: TraceEvent kind -> detail arity, as the TraceEvent docstring lists.
DOCUMENTED_ARITY = {
    "region_fork": 4, "region_join": 2,
    "itask_begin": 1, "itask_end": 1, "join_enter": 1,
    "chunk": 2,
    "task_submit": 4, "task_steal": 2, "task_start": 1, "task_finish": 1,
    "barrier_enter": 3, "barrier_release": 2,
    "taskwait_enter": 1, "taskwait_release": 2,
    "mutex_acquired": 5, "mutex_released": 2,
    "ordered_wait": 3,
    "plan_execute": 6,
}


def test_arity_table_covers_the_documented_kinds():
    documented = set(re.findall(r"``(\w+)``", TraceEvent.__doc__))
    assert documented - {"kind"} == set(DOCUMENTED_ARITY)


def _loop(rt, kind, ordered=False):
    bounds = rt.for_bounds([0, 8, 1])
    rt.for_init(bounds, kind, 2 if kind == "dynamic" else None,
                ordered=ordered)
    while rt.for_next(bounds):
        for i in range(bounds[0], bounds[1]):
            if ordered:
                rt.ordered_start(bounds, i)
                rt.ordered_end(bounds, i)
    rt.for_end(bounds)


def _program(rt):
    """Every construct once, the way generated code drives them."""
    lock = rt.init_lock()
    nest = rt.init_nest_lock()
    token = object()
    stolen = threading.Event()

    def region():
        _loop(rt, "static")
        _loop(rt, "dynamic")
        _loop(rt, "dynamic", ordered=True)
        state = rt.sections_begin(2)
        while rt.sections_next(state) >= 0:
            pass
        rt.sections_end(state)
        rt.single_end(rt.single_begin())
        rt.critical_enter("zone")
        rt.critical_exit("zone")
        rt.atomic_enter()
        rt.atomic_exit()
        rt.set_lock(lock)
        rt.unset_lock(lock)
        rt.set_nest_lock(nest)
        rt.set_nest_lock(nest)
        rt.unset_nest_lock(nest)
        rt.unset_nest_lock(nest)
        if rt.get_thread_num() == 0:
            rt.task_submit(lambda: None, depends_out=(token,))
            rt.task_submit(lambda: None, depends_in=(token,))
            rt.task_wait()
            # Only thread 1, draining at the barrier below, can run
            # this one: a guaranteed steal.
            rt.task_submit(stolen.set)
            assert stolen.wait(10.0)
        rt.barrier()

    rt.parallel_run(region, num_threads=2)
    chain = Map("spine-chain", [tuple(r for r in (i - 1, i, i + 1)
                                      if 0 <= r < 8) for i in range(8)])
    execute(build_plan(chain, 2), lambda lo, hi, thread: None,
            threads=2, runtime=rt)


@pytest.mark.parametrize("rt", [pure_runtime, cruntime],
                         ids=lambda rt: rt.name)
@pytest.mark.parametrize("company", [False, True],
                         ids=["tracer-alone", "with-metrics-and-flight"])
def test_every_documented_trace_kind_with_its_arity(rt, company):
    others = [MetricsTool(), FlightRecorder()] if company else []
    for tool in others:
        rt.attach_tool(tool)
    rt.tracer.start()
    try:
        _program(rt)
    finally:
        events = rt.tracer.stop()
        for tool in others:
            rt.detach_tool(tool)
    assert events.dropped == 0
    arities = {}
    for event in events:
        arities.setdefault(event.kind, set()).add(len(event.detail))
    assert arities == {kind: {arity}
                       for kind, arity in DOCUMENTED_ARITY.items()}
    # The call-site details name this file, not a runtime frame (the
    # plan executor's own barriers have no user frame to name).
    for event in events:
        if event.kind in ("region_fork", "task_submit", "mutex_acquired",
                          "ordered_wait", "plan_execute"):
            assert event.detail[-2] == __file__, event
