"""DAG builder / critical path on hand-built synthetic traces.

Each scenario has a known answer: a pure serial chain's critical path
equals its span; a perfect fan-out's equals one member's work, not the
sum; a lock convoy threads through both hold intervals; an imbalanced
barrier charges the early arrivals' idle time to the barrier site.
"""

from repro.explain.bottlenecks import classify
from repro.explain.dag import build_dag
from repro.runtime.trace import TraceEvent


def ev(ts, kind, thread, *detail):
    return TraceEvent(ts, kind, thread, tuple(detail))


SITE = ("app.py", 3)


def region(events, *, size, region_id=1, begin=0.0, end=1.0,
           master=0):
    """Append the fork/join skeleton of one parallel region."""
    events.append(ev(begin, "parallel_begin", master, size, region_id,
                     *SITE))
    events.append(ev(end, "parallel_end", master, size, region_id))


class TestSerialChain:
    def test_critical_path_equals_span(self):
        events = [
            ev(0.00, "parallel_begin", 0, 1, 1, *SITE),
            ev(0.01, "implicit_task", 0, "begin", 1),
            ev(1.01, "implicit_task", 0, "join", 1),
            ev(1.01, "implicit_task", 0, "end", 1),
            ev(1.02, "parallel_end", 0, 1, 1),
        ]
        analysis = build_dag(events)
        assert abs(analysis.span_s - 1.02) < 1e-9
        assert abs(analysis.critical_path_s - 1.02) < 1e-6
        # The 1.0 s between the implicit task's begin and its join is
        # compute.
        assert analysis.path_breakdown.get("compute", 0.0) >= 1.0 - 1e-9
        assert analysis.regions[1]["size"] == 1
        assert analysis.regions[1]["site"] == SITE

    def test_empty_trace(self):
        analysis = build_dag([])
        assert analysis.critical_path_s == 0.0
        assert analysis.span_s == 0.0
        assert analysis.steps == []


class TestPerfectFanOut:
    def make(self):
        events = [ev(0.00, "parallel_begin", 0, 4, 1, *SITE)]
        for t in range(4):
            events.append(ev(0.01, "implicit_task", t, "begin", 1))
            events.append(ev(1.01, "implicit_task", t, "join", 1))
            events.append(ev(1.01, "implicit_task", t, "end", 1))
        events.append(ev(1.02, "parallel_end", 0, 4, 1))
        return sorted(events, key=lambda e: e.timestamp)

    def test_critical_path_is_one_member_not_the_sum(self):
        analysis = build_dag(self.make())
        # Each member computes 1.0 s concurrently: the critical path is
        # one member's chain (~1.02 s), nowhere near the 4 s total.
        assert 1.0 <= analysis.critical_path_s <= 1.02 + 1e-9
        assert analysis.critical_path_s <= analysis.span_s + 1e-12
        assert analysis.threads == [0, 1, 2, 3]

    def test_no_significant_findings(self):
        analysis = build_dag(self.make())
        findings = classify(analysis, nthreads=4)
        assert all(f.category != "lock-convoy" for f in findings)


class TestLockConvoy:
    def make(self):
        handle = ("critical", "hot")
        lock_site = ("app.py", 7)
        events = [
            ev(0.00, "parallel_begin", 0, 2, 1, *SITE),
            ev(0.01, "implicit_task", 0, "begin", 1),
            ev(0.01, "implicit_task", 1, "begin", 1),
            ev(0.10, "mutex_acquired", 0, *handle, 0.0, *lock_site),
            ev(0.60, "mutex_released", 0, *handle),
            # Thread 1 entered at ~0.10 and waited 0.5 s for thread 0.
            ev(0.60, "mutex_acquired", 1, *handle, 0.5, *lock_site),
            ev(1.10, "mutex_released", 1, *handle),
            ev(0.61, "implicit_task", 0, "join", 1),
            ev(1.11, "implicit_task", 1, "join", 1),
            ev(1.11, "implicit_task", 0, "end", 1),
            ev(1.11, "implicit_task", 1, "end", 1),
            ev(1.12, "parallel_end", 0, 2, 1),
        ]
        return sorted(events, key=lambda e: e.timestamp)

    def test_path_threads_through_both_holds(self):
        analysis = build_dag(self.make())
        assert abs(analysis.critical_path_s - 1.12) < 1e-6
        handle = ("critical", "hot")
        assert abs(analysis.mutexes[handle]["wait_s"] - 0.5) < 1e-9
        assert analysis.mutexes[handle]["contended"] == 1
        assert analysis.mutexes[handle]["count"] == 2
        assert analysis.mutexes[handle]["site"] == ("app.py", 7)

    def test_classify_names_the_lock_and_what_if_gain(self):
        events = self.make()
        analysis = build_dag(events)
        findings = classify(analysis, nthreads=2, events=events)
        convoy = [f for f in findings if f.category == "lock-convoy"]
        assert convoy, findings
        top = convoy[0]
        assert top.directive == "critical"
        assert top.location and "app.py:7" in top.location
        assert abs(top.lost_s - 0.5) < 1e-9
        # Freeing the lock lets both holds overlap: the dependency
        # chain shortens by ~0.5 s.
        gain = top.extra["what_if_critical_path_gain_s"]
        assert gain is not None and gain >= 0.45

    def test_sleeps_inside_the_wait_change_nothing(self):
        """The flight-record events inside thread 1's wait — the
        blocking announcement and the sleep — are off the timeline: the
        analysis is the one of the bare trace."""
        handle = ("critical", "hot")
        events = self.make() + [
            ev(0.10, "mutex_wait", 1, *handle),
            ev(0.11, "wait_begin", 1, "Lock", 7),
            ev(0.59, "wait_end", 1, "Lock", 7),
            ev(0.02, "loop_begin", 0),
        ]
        events.sort(key=lambda e: e.timestamp)
        bare = build_dag(self.make())
        full = build_dag(events)
        assert full.events_count == bare.events_count + 4
        assert full.critical_path_s == bare.critical_path_s
        assert full.path_breakdown == bare.path_breakdown
        assert full.compute_by_thread == bare.compute_by_thread
        assert full.mutexes == bare.mutexes

    def test_free_mutex_elides_the_wait(self):
        events = self.make()
        handle = ("critical", "hot")
        freed = build_dag(events, free_mutexes={handle},
                          causal_elapsed=False)
        baseline = build_dag(events, causal_elapsed=False)
        assert freed.critical_path_s < baseline.critical_path_s
        assert freed.mutexes[handle]["wait_s"] == 0.0


class TestImbalancedBarrier:
    def make(self):
        bar_site = ("app.py", 9)
        events = [ev(0.00, "parallel_begin", 0, 4, 1, *SITE)]
        arrivals = (0.10, 0.20, 0.30, 1.00)
        for t, at in enumerate(arrivals):
            events.append(ev(0.01, "implicit_task", t, "begin", 1))
            events.append(ev(at, "barrier_enter", t, None, 1, 0,
                             *bar_site))
            events.append(ev(1.00, "barrier_release", t,
                             1.00 - at, 1, 0, *bar_site))
            events.append(ev(1.10, "implicit_task", t, "join", 1))
            events.append(ev(1.10, "implicit_task", t, "end", 1))
        events.append(ev(1.11, "parallel_end", 0, 4, 1))
        return sorted(events, key=lambda e: e.timestamp)

    def test_barrier_wait_charged_to_site(self):
        analysis = build_dag(self.make())
        assert abs(analysis.barrier_wait_s - (0.9 + 0.8 + 0.7)) < 1e-9
        entry = analysis.barrier_sites[("app.py", 9)]
        assert abs(entry["spread_s"] - 0.9) < 1e-9
        assert entry["count"] == 1
        assert abs(entry["wait_s"] - 2.4) < 1e-9

    def test_classify_dominant_is_barrier_imbalance(self):
        analysis = build_dag(self.make())
        findings = classify(analysis, nthreads=4)
        assert findings
        assert findings[0].category == "barrier-imbalance"
        assert findings[0].location \
            and "app.py:9" in findings[0].location
        assert findings[0].directive == "barrier"

    def test_critical_path_follows_the_late_arrival(self):
        analysis = build_dag(self.make())
        # The slow thread computes until 1.0; everyone else idles.
        assert 0.99 <= analysis.critical_path_s \
            <= analysis.span_s + 1e-12


class TestBounds:
    def test_critical_path_never_exceeds_span(self):
        # Adversarial mix: tasks, mutexes, and barriers interleaved.
        handle = ("lock", 42)
        events = [
            ev(0.00, "parallel_begin", 0, 4, 1, *SITE),
            ev(0.01, "implicit_task", 0, "begin", 1),
            ev(0.02, "implicit_task", 1, "begin", 1),
            ev(0.03, "task_create", 0, 900, 0, *SITE),
            ev(0.04, "task_start", 1, 900),
            ev(0.05, "mutex_acquired", 1, *handle, 0.0, *SITE),
            ev(0.20, "mutex_released", 1, *handle),
            ev(0.21, "mutex_acquired", 0, *handle, 0.15, *SITE),
            ev(0.30, "mutex_released", 0, *handle),
            ev(0.35, "task_finish", 1, 900),
            ev(0.40, "taskwait_enter", 0, None, 1, 0, *SITE),
            ev(0.41, "taskwait_release", 0, 0.01, 1, 0, *SITE),
            ev(0.50, "implicit_task", 0, "join", 1),
            ev(0.55, "implicit_task", 1, "join", 1),
            ev(0.55, "implicit_task", 0, "end", 1),
            ev(0.55, "implicit_task", 1, "end", 1),
            ev(0.56, "parallel_end", 0, 4, 1),
        ]
        for causal_elapsed in (True, False):
            analysis = build_dag(events,
                                 causal_elapsed=causal_elapsed)
            assert analysis.critical_path_s \
                <= analysis.span_s + 1e-12
        assert build_dag(events).tasks_submitted == 1
        assert build_dag(events).tasks_started == 1
