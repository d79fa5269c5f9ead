"""The event spine: the runtime emits through ``runtime.tool`` only,
the tracer — one tool among others — still records every documented
``TraceEvent`` kind with the documented detail layout, and the ``wait``
/ ``mutex_released`` ordering the hang diagnostics rely on holds."""

import ast
import pathlib
import re
import threading
import time

import pytest

import repro
from repro.cruntime import cruntime
from repro.diagnostics.flight import FlightRecorder
from repro.diagnostics.state import install, uninstall
from repro.ompt.hooks import ToolHooks
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
    ``x.diag``, ``x.tracer.enabled``, ``x.tracer.record`` — anywhere
    but in ``OmpRuntime.__init__``, which defines the attributes."""
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
        if through_tracer or (node.attr in ("sampler", "diag")
                              and isinstance(node.ctx, ast.Load)):
            found.append(f"{path.name}:{node.lineno}")
    return found


@pytest.mark.parametrize("path", RUNTIME_FILES, ids=lambda p: p.name)
def test_runtime_emits_through_the_tool_channel_only(path):
    assert _bypasses(path) == []


def test_wait_is_emitted_from_exactly_one_function():
    """Every blocking call goes through ``team.park``: no other
    function in the package calls a tool's ``wait`` (the dispatcher's
    fan-outs are derived from the catalogue, not written out)."""
    emitters = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for scope in ast.walk(tree):
            if not isinstance(scope, ast.FunctionDef):
                continue
            calls = [node for node in ast.walk(scope)
                     if isinstance(node, ast.Call)
                     and isinstance(node.func, ast.Attribute)
                     and node.func.attr == "wait"
                     and isinstance(node.func.value, ast.Name)
                     and node.func.value.id == "tool"]
            if calls:
                emitters.append(f"{path.relative_to(SRC)}:{scope.name}")
    assert emitters == ["runtime/team.py:park"]


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


# -- the wait / ownership contract the hang diagnostics ride on -------------


class _WaitLog(ToolHooks):
    """Logs ``wait`` endpoints per native thread; ``gate`` (optional)
    is set at every begin, so a releaser can block until a waiter has
    announced itself."""

    def __init__(self, gate=None):
        self.gate = gate
        self.log = {}

    def wait(self, thread, endpoint, target):
        self.log.setdefault(threading.get_ident(), []).append(
            (thread, endpoint, target))
        if endpoint == "begin" and self.gate is not None:
            self.gate.set()


def _blocking_program(rt):
    """Two threads through every kind of wait: barrier, contended
    critical and lock, taskwait, dependence, ordered, copyprivate."""
    lock = rt.init_lock()
    token = object()

    def region():
        me = rt.get_thread_num()
        rt.barrier()
        for _ in range(20):
            rt.critical_enter("zone")
            time.sleep(0.0005)
            rt.critical_exit("zone")
            rt.set_lock(lock)
            time.sleep(0.0005)
            rt.unset_lock(lock)
        if me == 0:
            rt.task_submit(lambda: time.sleep(0.01), depends_out=(token,))
            rt.task_submit(lambda: None, if_=False, depends_in=(token,))
            rt.task_submit(lambda: time.sleep(0.01))
            rt.task_wait()
        _loop(rt, "static", ordered=True)
        state = rt.single_begin()
        if state.selected:
            time.sleep(0.01)
            rt.copyprivate_set(state, ("payload",))
        assert rt.copyprivate_get(state) == ("payload",)
        rt.single_end(state)

    rt.parallel_run(region, num_threads=2)


@pytest.mark.parametrize("rt", [pure_runtime, cruntime],
                         ids=lambda rt: rt.name)
@pytest.mark.parametrize("company", [False, True],
                         ids=["bound-directly", "behind-dispatcher"])
def test_every_wait_begin_has_its_end_on_the_same_thread(rt, company):
    tool = _WaitLog()
    others = [FlightRecorder()] if company else []
    for attached in (tool, *others):
        rt.attach_tool(attached)
    try:
        _blocking_program(rt)
    finally:
        for attached in (tool, *others):
            rt.detach_tool(attached)
    assert tool.log, "the program never blocked"
    for events in tool.log.values():
        assert len(events) % 2 == 0
        for begin, end in zip(events[::2], events[1::2]):
            assert (begin[1], end[1]) == ("begin", "end")
            assert begin[0] == end[0] and begin[2] is end[2]


@pytest.mark.parametrize("rt", [pure_runtime, cruntime],
                         ids=lambda rt: rt.name)
def test_wait_begin_fires_before_the_blocking_call_returns(rt):
    """The holder releases only once the tool has seen the waiter's
    ``wait`` begin: were ``begin`` emitted after the blocking acquire,
    nobody would ever set the gate."""
    announced = threading.Event()
    tool = _WaitLog(gate=announced)
    lock = rt.init_lock()
    held = threading.Event()
    seen = []

    def region():
        if rt.get_thread_num() == 0:
            rt.set_lock(lock)
            held.set()
            seen.append(announced.wait(10.0))
            rt.unset_lock(lock)
        else:
            assert held.wait(10.0)
            rt.set_lock(lock)
            rt.unset_lock(lock)

    rt.attach_tool(tool)
    try:
        rt.parallel_run(region, num_threads=2)
    finally:
        rt.detach_tool(tool)
    assert seen == [True]


@pytest.mark.parametrize("rt", [pure_runtime, cruntime],
                         ids=lambda rt: rt.name)
def test_a_release_never_clobbers_the_next_owners_entry(rt):
    """Two threads hammer one ``critical`` with the diagnostics tool
    attached behind a tool that dawdles in ``mutex_released``: whoever
    is inside finds itself in the owners table at every sample (a
    release reported after the unlock would wipe the next owner's
    entry), and the table is empty afterwards."""

    class Dawdle(ToolHooks):
        def mutex_released(self, thread, kind, handle):
            time.sleep(0.0005)

    dawdle = Dawdle()
    rt.attach_tool(dawdle)
    state = install(rt)
    assert state is not None
    key = ("critical", "owned")
    wrong = []

    def region():
        me = threading.get_ident()
        for _ in range(100):
            rt.critical_enter("owned")
            for _ in range(3):
                owner = state.owners.get(key)
                if owner != me:
                    wrong.append((me, owner))
                time.sleep(0.0002)
            rt.critical_exit("owned")

    try:
        rt.parallel_run(region, num_threads=2)
    finally:
        uninstall(rt, state)
        rt.detach_tool(dawdle)
    assert wrong == []
    assert not state.owners
    assert not any(state.blocked.values())
