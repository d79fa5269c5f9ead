"""Tests of the diagnostics subsystem: blocking records, the wait-for
graph, the flight recorder, the stall watchdog, and the env knobs.

The watchdog classes run with deliberately aggressive intervals: the
false-positive suite asserts that slow-but-live workloads never earn a
*deadlock* verdict (a *stall* note is acceptable), and the detection
test asserts a seeded AB-BA inversion is diagnosed within twice the
configured interval with the right cycle participants.
"""

import io
import threading
import time

import pytest

from repro import env
from repro.cruntime import cruntime
from repro.diagnostics.envreport import format_display_env, icv_snapshot
from repro.diagnostics.flight import FlightRecorder
from repro.diagnostics.origin import format_location, register_origin, resolve
from repro.diagnostics.state import (BlockRecord, DiagnosticsState,
                                     TeamInfo, install, uninstall)
from repro.diagnostics.waitgraph import build_wait_graph
from repro.diagnostics.watchdog import (DEADLOCK_EXIT_CODE, Watchdog,
                                        build_report, format_report)
from repro.errors import OmpError
from repro.runtime import pure_runtime


@pytest.fixture(params=["pure", "cruntime"])
def rt(request):
    return pure_runtime if request.param == "pure" else cruntime


@pytest.fixture
def diag(rt):
    """Arm diagnostics state on the (singleton) runtime, disarm after."""
    state = install(rt)
    assert state is not None, "a previous test left diagnostics armed"
    yield state
    uninstall(rt, state)


def _wait_until(predicate, timeout=8.0, step=0.02):
    deadline = time.perf_counter() + timeout
    while time.perf_counter() < deadline:
        if predicate():
            return True
        time.sleep(step)
    return predicate()


# -- blocking records -------------------------------------------------------


class TestBlockingRecords:
    def test_tables_empty_after_clean_region(self, rt, diag):
        total = []

        def region():
            rt.critical_enter("zone")
            total.append(rt.get_thread_num())
            rt.critical_exit("zone")
            rt.barrier()

        rt.parallel_run(region, num_threads=3)
        assert sorted(total) == [0, 1, 2]
        assert not any(diag.blocked.values())
        assert not diag.owners
        assert not diag.teams
        assert not diag.task_running
        assert not diag.task_waiting
        assert diag.progress > 0

    def test_contended_lock_records_wait_and_ownership(self, rt, diag):
        lock = rt.init_lock()
        rt.set_lock(lock)
        holder = threading.get_ident()
        assert diag.owners[id(lock)] == holder

        entered = threading.Event()
        waiter_ident = []

        def blocked_acquire():
            waiter_ident.append(threading.get_ident())
            entered.set()
            rt.set_lock(lock)
            rt.unset_lock(lock)

        waiter = threading.Thread(target=blocked_acquire, daemon=True)
        waiter.start()
        entered.wait(5.0)
        assert _wait_until(
            lambda: any(r.kind == "lock" and r.sleeping
                        for r in diag.blocked.get(waiter_ident[0], [])))
        record = diag.blocked[waiter_ident[0]][-1]
        assert record.resource == id(lock)

        rt.unset_lock(lock)
        waiter.join(5.0)
        assert not waiter.is_alive()
        assert not any(diag.blocked.values())
        assert id(lock) not in diag.owners
        rt.destroy_lock(lock)

    def test_contended_nest_lock_record_names_the_team_thread(self, rt,
                                                               diag):
        """Every mutex kind takes the one acquire path, so a thread
        stuck on a nest lock reports its team thread number like one
        stuck on a simple lock (it used to report -1)."""
        lock = rt.init_nest_lock()
        held = threading.Event()
        seen = []

        def waiting_records():
            return [record for records in list(diag.blocked.values())
                    for record in records
                    if record.kind == "nest_lock" and record.sleeping]

        def region():
            if rt.get_thread_num() == 0:
                rt.set_nest_lock(lock)
                held.set()
                _wait_until(waiting_records)
                seen.extend((record.thread_num, record.resource)
                            for record in waiting_records())
                rt.unset_nest_lock(lock)
            else:
                assert held.wait(5.0)
                rt.set_nest_lock(lock)
                rt.unset_nest_lock(lock)

        rt.parallel_run(region, num_threads=2)
        assert seen == [(1, id(lock))]
        assert not any(diag.blocked.values())
        assert id(lock) not in diag.owners
        rt.destroy_nest_lock(lock)

    def test_progress_counter_moves_with_work(self, rt, diag):
        before = diag.progress
        rt.parallel_run(lambda: rt.barrier(), num_threads=2)
        assert diag.progress > before

    @staticmethod
    def _sleeping(diag, kind):
        return [record for records in list(diag.blocked.values())
                for record in records
                if record.kind == kind and record.sleeping]

    def test_copyprivate_receiver_record_names_the_team_thread(self, rt,
                                                               diag):
        """A ``single copyprivate`` whose publisher is held: the
        receiver's record carries its team thread number (it used to
        say -1) and its report line names the real member."""
        seen = []

        def region():
            state = rt.single_begin()
            if state.selected:
                _wait_until(lambda: self._sleeping(diag, "copyprivate"))
                seen.extend(self._sleeping(diag, "copyprivate"))
                graph = build_wait_graph(diag.snapshot())
                seen.extend(graph.describe_node(node)
                            for node in graph.edges if node[0] == "thread")
                rt.copyprivate_set(state, ("payload",))
            else:
                seen.append(rt.get_thread_num())
            assert rt.copyprivate_get(state) == ("payload",)
            rt.single_end(state)

        rt.parallel_run(region, num_threads=2)
        receiver, record, text = sorted(seen, key=lambda item: str(type(item)))
        assert record.thread_num == receiver
        assert f"team thread {receiver}) waiting in copyprivate" in text
        assert not any(diag.blocked.values())

    def test_undeferred_dependence_wait_points_at_the_predecessor(self, rt,
                                                                  diag):
        """An ``if(false)`` task behind a running ``depend``
        predecessor: the encountering thread's record leads, through
        the predecessor task, to the thread executing it."""
        token = object()
        started = threading.Event()
        edges = {}

        def predecessor():
            # Runs on thread 1, which drains tasks at the barrier.
            started.set()
            _wait_until(lambda: self._sleeping(diag, "dependence"))
            edges.update(build_wait_graph(diag.snapshot()).edges)

        def region():
            if rt.get_thread_num() == 0:
                rt.task_submit(predecessor, depends_out=(token,))
                assert started.wait(10.0)
                rt.task_submit(lambda: None, if_=False,
                               depends_in=(token,))
            rt.barrier()

        rt.parallel_run(region, num_threads=2)
        (waiter,) = [node for node, out in edges.items()
                     if node[0] == "thread" and out
                     and out[0][0] == "task"]
        (task,) = edges[waiter]
        (executor,) = edges[task]
        assert executor[0] == "thread" and executor != waiter
        assert not any(diag.blocked.values())
        assert not diag.task_running and not diag.task_waiting

    def test_ordered_waiter_points_at_the_member_inside(self, rt, diag):
        """A thread waiting for its ``ordered`` turn waits for the team
        member that is inside the ordered region."""
        inside = threading.Event()
        edges = {}
        idents = {}

        def region():
            me = rt.get_thread_num()
            idents[me] = threading.get_ident()
            bounds = rt.for_bounds([0, 2, 1])
            rt.for_init(bounds, "static", 1, ordered=True)
            while rt.for_next(bounds):
                rt.ordered_start(bounds, bounds[0])
                if me == 0:
                    inside.set()
                    _wait_until(lambda: self._sleeping(diag, "ordered"))
                    edges.update(build_wait_graph(diag.snapshot()).edges)
                rt.ordered_end(bounds, bounds[0])
            rt.for_end(bounds)

        rt.parallel_run(region, num_threads=2)
        assert inside.is_set()
        (ordered,) = edges[("thread", idents[1])]
        assert ordered[0] == "ordered"
        assert edges[ordered] == [("thread", idents[0])]
        assert not any(diag.blocked.values())


# -- who installs the state, and who removes it ---------------------------


class TestInstallers:
    def test_hand_started_watchdog_removes_what_it_installed(self, rt):
        assert rt.diag is None and rt.tool is None
        watchdog = Watchdog(rt, 5.0, stream=io.StringIO()).start()
        assert rt.tool is rt.diag is not None
        watchdog.stop()
        assert rt.diag is None and rt.tool is None
        # No wait site writes block records any more.
        rt.parallel_run(lambda: rt.barrier(), num_threads=2)

    def test_watchdog_leaves_a_foreign_state_alone(self, rt, diag):
        Watchdog(rt, 5.0, stream=io.StringIO()).start().stop()
        assert rt.diag is diag and rt.tool is diag

    def test_arm_and_disarm_are_attach_and_detach_of_one_tool(self, rt):
        from repro.arming import arm, disarm
        entry = arm(rt, watchdog_interval=5.0)
        try:
            assert entry.diag is rt.diag is rt.tool
            assert arm(rt, flight=True).diag is entry.diag  # additive
        finally:
            disarm(rt)
        assert rt.diag is None and rt.tool is None

    def test_disarm_leaves_a_foreign_state_alone(self, rt, diag):
        from repro.arming import arm, disarm
        assert arm(rt, watchdog_interval=5.0).diag is None
        disarm(rt)
        assert rt.diag is diag and rt.tool is diag


# -- wait-for graph (synthetic snapshots) -----------------------------------


def _sleeping(ident, kind, resource, thread_num=0, team_id=None):
    record = BlockRecord(ident, kind, resource, team_id, thread_num,
                         None, None)
    record.sleeping = True
    return record


class TestWaitGraph:
    def test_abba_cycle_is_deadlock(self):
        state = DiagnosticsState()
        state.blocked[1] = [_sleeping(1, "lock", 100, thread_num=0)]
        state.blocked[2] = [_sleeping(2, "lock", 200, thread_num=1)]
        state.owners[100] = 2
        state.owners[200] = 1
        state.thread_names = {1: "t1", 2: "t2"}
        graph = build_wait_graph(state.snapshot())
        assert graph.verdict() == "deadlock"
        (cycle,) = graph.find_cycles()
        assert ("thread", 1) in cycle and ("thread", 2) in cycle

    def test_non_sleeping_record_draws_no_edge(self):
        state = DiagnosticsState()
        record = _sleeping(1, "lock", 100)
        record.sleeping = False  # busy draining tasks, not parked
        state.blocked[1] = [record]
        state.blocked[2] = [_sleeping(2, "lock", 200, thread_num=1)]
        state.owners[100] = 2
        state.owners[200] = 1
        graph = build_wait_graph(state.snapshot())
        assert graph.verdict() == "stall"

    def test_free_lock_is_not_a_cycle(self):
        state = DiagnosticsState()
        state.blocked[1] = [_sleeping(1, "lock", 100)]
        graph = build_wait_graph(state.snapshot())  # no owner recorded
        assert graph.verdict() == "stall"

    def test_departed_member_makes_barrier_unsatisfiable(self):
        state = DiagnosticsState()
        info = TeamInfo(42, 2)
        info.members = {0: 1, 1: 2}
        info.departed = {1}
        state.teams[42] = info
        state.blocked[1] = [_sleeping(1, "barrier", 999, thread_num=0,
                                      team_id=42)]
        graph = build_wait_graph(state.snapshot())
        assert graph.unsatisfiable
        assert graph.verdict() == "deadlock"

    def test_live_straggler_is_only_a_stall(self):
        state = DiagnosticsState()
        info = TeamInfo(42, 2)
        info.members = {0: 1, 1: 2}
        state.teams[42] = info
        state.blocked[1] = [_sleeping(1, "barrier", 999, thread_num=0,
                                      team_id=42)]
        graph = build_wait_graph(state.snapshot())  # member 1 still alive
        assert not graph.unsatisfiable
        assert graph.verdict() == "stall"

    def test_describe_node_handles_tuple_keys(self):
        state = DiagnosticsState()
        state.blocked[1] = [_sleeping(1, "critical", ("critical", "zone"))]
        state.owners[("critical", "zone")] = 2
        graph = build_wait_graph(state.snapshot())
        text = " ".join(graph.describe_node(node) for node in graph.edges)
        assert "zone" in text


# -- watchdog: false positives ---------------------------------------------


class TestWatchdogFalsePositives:
    def _deadlock_verdicts(self, reports):
        return [r for r in reports if r["verdict"] == "deadlock"]

    def _run_region(self, rt, region, num_threads, interval):
        reports = []
        watchdog = Watchdog(rt, interval, on_report=reports.append,
                            stream=io.StringIO())
        watchdog.start()
        try:
            rt.parallel_run(region, num_threads=num_threads)
        finally:
            watchdog.stop()
        return reports

    def test_serial_chunk_behind_a_barrier(self, rt, diag):
        """One thread computes for many intervals while its peer sleeps
        at the barrier: a stall at worst, never a deadlock."""

        def region():
            if rt.get_thread_num() == 0:
                time.sleep(1.0)  # "compute": no progress, no block
            rt.barrier()

        reports = self._run_region(rt, region, 2, interval=0.2)
        assert self._deadlock_verdicts(reports) == []

    def test_long_running_tasks_under_taskwait(self, rt, diag):
        def region():
            if rt.get_thread_num() == 0:
                for _ in range(2):
                    rt.task_submit(lambda: time.sleep(0.5))
                rt.task_wait()
            rt.barrier()

        reports = self._run_region(rt, region, 2, interval=0.15)
        assert self._deadlock_verdicts(reports) == []

    def test_single_thread_team(self, rt, diag):
        reports = self._run_region(rt, lambda: time.sleep(0.5), 1,
                                   interval=0.1)
        assert self._deadlock_verdicts(reports) == []

    def test_slow_ordered_pipeline(self, rt, diag):
        done = []

        def region():
            rt.barrier()
            time.sleep(0.05 * rt.get_thread_num())
            done.append(rt.get_thread_num())
            rt.barrier()

        reports = self._run_region(rt, region, 3, interval=0.1)
        assert sorted(done) == [0, 1, 2]
        assert self._deadlock_verdicts(reports) == []

    def test_parked_pool_workers_are_invisible_between_regions(
            self, rt, diag):
        """A parked hot-team worker holds no blocking record: after a
        region joins, the wait-for graph over live diagnostics state
        must be empty even though the pool threads still exist."""
        rt.parallel_run(lambda: None, num_threads=3)
        assert rt.pool().idle_count() >= 2  # workers parked, not gone
        assert not any(diag.blocked.values())
        graph = build_wait_graph(diag.snapshot())
        assert graph.edges == {}
        assert graph.find_cycles() == []
        assert graph.unsatisfiable == []

    def test_parked_workers_do_not_trigger_stall_reports(self, rt, diag):
        """Many intervals of main-thread-only work with workers parked
        in the pool: the watchdog must stay silent — parked workers are
        idle, not stalled."""
        rt.parallel_run(lambda: None, num_threads=3)
        reports = []
        watchdog = Watchdog(rt, 0.1, on_report=reports.append,
                            stream=io.StringIO())
        watchdog.start()
        try:
            time.sleep(0.6)  # several poll intervals, pool parked
        finally:
            watchdog.stop()
        assert reports == []

    def test_pool_reuse_between_watched_regions(self, rt, diag):
        """Back-to-back regions served by reused pool workers under an
        aggressive watchdog: no deadlock verdicts, and the reports (if
        any stall fired) never name a parked worker."""
        def region():
            rt.barrier()

        reports = []
        watchdog = Watchdog(rt, 0.1, on_report=reports.append,
                            stream=io.StringIO())
        watchdog.start()
        try:
            for _ in range(10):
                rt.parallel_run(region, num_threads=3)
                time.sleep(0.05)
        finally:
            watchdog.stop()
        assert self._deadlock_verdicts(reports) == []


# -- watchdog: seeded deadlock ---------------------------------------------


class TestWatchdogDetection:
    def test_abba_diagnosed_within_two_intervals(self, rt, diag):
        interval = 0.5
        reports = []
        lock_a = rt.init_lock()
        lock_b = rt.init_lock()
        both_holding = threading.Barrier(3)

        def invert(first, second):
            rt.set_lock(first)
            both_holding.wait()
            rt.set_lock(second)  # never returns: daemon thread

        for args in ((lock_a, lock_b), (lock_b, lock_a)):
            threading.Thread(target=invert, args=args, daemon=True).start()

        watchdog = Watchdog(rt, interval, on_report=reports.append,
                            stream=io.StringIO())
        both_holding.wait()
        begin = time.perf_counter()
        watchdog.start()
        try:
            assert _wait_until(lambda: any(
                r["verdict"] == "deadlock" for r in reports),
                timeout=4 * interval)
        finally:
            watchdog.stop()
        elapsed = time.perf_counter() - begin
        assert elapsed <= 2 * interval, \
            f"watchdog took {elapsed:.3f}s (> 2x {interval}s interval)"

        report = next(r for r in reports if r["verdict"] == "deadlock")
        (cycle,) = report["cycles"]
        kinds = {step["node"] for step in cycle}
        assert kinds == {"thread", "lock"}
        thread_ids = {step["id"] for step in cycle
                      if step["node"] == "thread"}
        assert len(thread_ids) == 2
        lock_ids = {step["id"] for step in cycle if step["node"] == "lock"}
        assert lock_ids == {id(lock_a), id(lock_b)}
        # The report doubles as the stderr rendering's source of truth.
        text = format_report(report)
        assert "DEADLOCK" in text and "lock" in text
        assert isinstance(DEADLOCK_EXIT_CODE, int)

    def test_deadlock_reported_once(self, rt, diag):
        interval = 0.2
        reports = []
        lock = rt.init_lock()
        rt.set_lock(lock)
        entered = threading.Event()

        def self_deadlock():
            entered.set()
            rt.set_lock(lock)  # held by the main thread forever

        threading.Thread(target=self_deadlock, daemon=True).start()
        entered.wait(5.0)
        # A single thread re-waiting on a lock we hold has no cycle
        # (the owner is live and unblocked), so force one: the holder
        # also "blocks" on a resource the waiter owns.
        watchdog = Watchdog(rt, interval, on_report=reports.append,
                            stream=io.StringIO())
        watchdog.start()
        try:
            time.sleep(interval * 6)
        finally:
            watchdog.stop()
        deadlocks = [r for r in reports if r["verdict"] == "deadlock"]
        stalls = [r for r in reports if r["verdict"] == "stall"]
        assert len(deadlocks) == 0  # live holder: stall territory
        assert len(stalls) <= 1  # one report per stall episode
        rt.unset_lock(lock)


# -- flight recorder --------------------------------------------------------


class TestFlightRecorder:
    def test_ring_wraps_to_capacity(self):
        recorder = FlightRecorder(capacity=4)
        for index in range(10):
            recorder.task_create(0, index)
        events = recorder.dump()[threading.get_ident()]["events"]
        assert len(events) == 4
        assert [event["detail"][1] for event in events] == [6, 7, 8, 9]

    def test_dump_tail_and_clear(self):
        recorder = FlightRecorder(capacity=8)
        for index in range(6):
            recorder.task_create(0, index)
        events = recorder.dump(tail=2)[threading.get_ident()]["events"]
        assert [event["detail"][1] for event in events] == [4, 5]
        assert "task_create" in recorder.format_text()
        recorder.clear()
        assert recorder.dump() == {}

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)

    def test_records_region_events_from_runtime(self, rt):
        recorder = FlightRecorder(capacity=32)
        rt.attach_tool(recorder)
        try:
            rt.parallel_run(lambda: rt.barrier(), num_threads=2)
        finally:
            rt.detach_tool(recorder)
        kinds = {event["kind"] for ring in recorder.dump().values()
                 for event in ring["events"]}
        assert "parallel_begin" in kinds
        assert "parallel_end" in kinds

    def test_records_deferred_tasks_and_sleeps(self, rt):
        recorder = FlightRecorder(capacity=32)
        handle = object()

        def lone_member():
            for _ in range(2):
                rt.task_submit(lambda: None, depends_in=(handle,),
                               depends_out=(handle,))

        rt.attach_tool(recorder)
        try:
            rt.parallel_run(lone_member, num_threads=1)
            rt.parallel_run(lambda: rt.barrier(), num_threads=2)
        finally:
            rt.detach_tool(recorder)
        events = [event for ring in recorder.dump().values()
                  for event in ring["events"]]
        created = [event["detail"][1] for event in events
                   if event["kind"] == "task_create"]
        (deferred,) = [event["detail"] for event in events
                       if event["kind"] == "task_deferred"]
        assert deferred == [0, created[1], [created[0]]]
        barrier_sleeps = [event["kind"] for event in events
                          if event["kind"].startswith("wait_")
                          and event["detail"][1] == "Barrier"]
        assert barrier_sleeps.count("wait_begin") >= 1
        assert barrier_sleeps.count("wait_begin") == \
            barrier_sleeps.count("wait_end")


# -- env knobs --------------------------------------------------------------


class TestEnvKnobs:
    def test_flight_default_off(self, monkeypatch):
        monkeypatch.delenv("OMP4PY_FLIGHT", raising=False)
        assert env.flight_spec() is None

    def test_flight_forms(self, monkeypatch):
        monkeypatch.setenv("OMP4PY_FLIGHT", "true")
        assert env.flight_spec().capacity == 256
        monkeypatch.setenv("OMP4PY_FLIGHT", "512")
        assert env.flight_spec().capacity == 512
        monkeypatch.setenv("OMP4PY_FLIGHT", "64:/tmp/flight.json")
        spec = env.flight_spec()
        assert (spec.capacity, spec.path) == (64, "/tmp/flight.json")
        monkeypatch.setenv("OMP4PY_FLIGHT", "flight.json")
        assert env.flight_spec().path == "flight.json"
        monkeypatch.setenv("OMP4PY_FLIGHT", "off")
        assert env.flight_spec() is None
        monkeypatch.setenv("OMP4PY_FLIGHT", "-3")
        with pytest.raises(OmpError):
            env.flight_spec()

    def test_watchdog_forms(self, monkeypatch):
        monkeypatch.delenv("OMP4PY_WATCHDOG", raising=False)
        monkeypatch.delenv("OMP4PY_WATCHDOG_EXIT", raising=False)
        assert env.watchdog_spec() is None
        monkeypatch.setenv("OMP4PY_WATCHDOG", "true")
        assert env.watchdog_spec().interval == 5.0
        monkeypatch.setenv("OMP4PY_WATCHDOG", "0.5:hang.json")
        spec = env.watchdog_spec()
        assert (spec.interval, spec.path) == (0.5, "hang.json")
        assert spec.exit_on_deadlock is False
        monkeypatch.setenv("OMP4PY_WATCHDOG_EXIT", "1")
        assert env.watchdog_spec().exit_on_deadlock is True
        monkeypatch.setenv("OMP4PY_WATCHDOG", "-1")
        with pytest.raises(OmpError):
            env.watchdog_spec()
        monkeypatch.setenv("OMP4PY_WATCHDOG", "soon")
        with pytest.raises(OmpError):
            env.watchdog_spec()


# -- display-env routing ----------------------------------------------------


class TestDisplayEnvRouting:
    def test_display_env_uses_diagnostics_snapshot(self, rt, capsys):
        rt.display_env(verbose=True)
        err = capsys.readouterr().err
        snapshot = icv_snapshot(rt, verbose=True)
        for name, value in snapshot.items():
            if name.startswith("_"):
                continue
            assert f"{name} = '{value}'" in err
        assert format_display_env(snapshot, runtime_name=rt.name) \
            .splitlines()[0] in err

    def test_report_embeds_same_snapshot(self, rt, diag):
        graph = build_wait_graph(diag.snapshot())
        report = build_report(rt, diag.snapshot(), graph, interval=1.0)
        expected = icv_snapshot(rt, verbose=True)
        # Thread-count ICVs can shift between the two snapshots only if
        # another test leaked state; the stable subset must match.
        for key in ("_OPENMP", "OMP_SCHEDULE", "OMP_DYNAMIC"):
            assert report["icvs"][key] == expected[key]
        assert report["schema"] == "omp4py-doctor-report/1"


# -- origin mapping ---------------------------------------------------------


class TestOriginMapping:
    def test_resolve_maps_generated_to_source(self):
        register_origin("<omp4py:test-origin>", "/src/app.py", 10)
        # Generated line 5 is the 5th line of source starting at 10.
        assert resolve("<omp4py:test-origin>", 5) == ("/src/app.py", 14)
        assert resolve("plain.py", 7) == ("plain.py", 7)

    def test_format_location_is_compact(self):
        assert format_location("/src/app.py", 12).endswith("app.py:12")

    def test_decorated_function_records_origin(self, omp_compile):
        source = """
def tagged(n):
    total = 0
    with omp("parallel num_threads(1)"):
        total = n
    return total
"""
        fn = omp_compile(source, "tagged")
        assert fn(3) == 3
        origin = getattr(fn, "__omp_origin__", None)
        assert origin is not None
        assert origin[0].endswith(".py")

    _KERNEL = """
def kernel(n):
    total = 0
    with omp("parallel num_threads(1)"):
        total = n // 0
    return total
"""

    def test_same_named_functions_keep_their_own_origin(self, omp_compile):
        # Every shipped app names its kernel ``kernel``: the synthetic
        # filename must tell the modules apart, or the registry's last
        # writer wins and reports name the wrong file.
        first = omp_compile("\n# pushes the def down\n" + self._KERNEL,
                            "kernel")
        second = omp_compile(self._KERNEL, "kernel")
        assert first.__code__.co_filename != second.__code__.co_filename
        for fn in (first, second):
            assert fn.__omp_origin__[0].endswith(f"{fn.__module__}.py")
            assert resolve(fn.__code__.co_filename, 1) == fn.__omp_origin__

    def test_shipped_kernels_do_not_collide(self):
        from repro import Mode, transform
        from repro.apps import get_app
        pi = transform(get_app("pi").kernel, Mode.PURE)
        transform(get_app("jacobi").kernel, Mode.PURE)  # the later writer
        assert format_location(pi.__code__.co_filename, 3).endswith(
            f"apps/pi.py:{pi.__omp_origin__[1] + 2}")

    def test_cache_hit_keeps_the_origin(self, tmp_path):
        from repro import transform
        cache = str(tmp_path / "cache")
        missed = transform(_divides_by_zero, cache=cache)
        cached = transform(_divides_by_zero, cache=cache)
        assert (missed.__omp_cached__, cached.__omp_cached__) \
            == (False, True)
        assert cached.__omp_origin__ == missed.__omp_origin__ == (
            __file__, _divides_by_zero.__code__.co_firstlineno)
        assert resolve(cached.__code__.co_filename, 1) \
            == cached.__omp_origin__

    def test_cache_hit_traceback_matches_the_source_file(self, tmp_path):
        import traceback
        from repro import transform
        cache = str(tmp_path / "cache")
        frames = []
        for expect_hit in (False, True):
            variant = transform(_divides_by_zero, cache=cache)
            assert variant.__omp_cached__ is expect_hit
            with pytest.raises(OmpError) as caught:
                variant(1)
            error = caught.value.__cause__
            assert isinstance(error, ZeroDivisionError)
            frame = traceback.extract_tb(error.__traceback__)[-1]
            frames.append((frame.filename, frame.lineno, frame.name))
        # A hit is compiled under the same synthetic filename as a
        # miss, and both map back into this file.
        assert frames[0] == frames[1]
        filename, lineno, _name = frames[1]
        assert filename == f"<omp4py:{__name__}._divides_by_zero>"
        source_file, source_line = resolve(filename, lineno)
        assert source_file == __file__
        with open(__file__, encoding="utf-8") as handle:
            assert "n // 0" in handle.readlines()[source_line - 1]


def _divides_by_zero(n):
    from repro import omp
    total = 0
    with omp("parallel num_threads(1)"):
        total = n // 0
    return total
