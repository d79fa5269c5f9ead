"""Causal DAG reconstruction and critical-path computation.

The trace layer (:mod:`repro.runtime.trace`) records a timestamped
event per runtime transition.  This module turns one recording into a
weighted DAG and computes its longest path — the *critical path*, the
chain of compute intervals and causal hand-offs no amount of extra
threads could shorten.

Two edge families:

* **Program order** — consecutive events of one thread.  The edge
  weight is the elapsed time, except across wait intervals (barrier
  enter→release, taskwait enter→release, the implicit join, a
  contended mutex acquire, an ordered-clause wait), which weigh zero:
  waiting never lengthens the critical path by itself — whatever the
  thread waited *for* does.
* **Causal** — cross-thread edges carrying the wait's cause: region
  fork → member implicit task, the highest-cost barrier arrival →
  every release of that barrier instance, task submit → task start,
  child task finishes → the parent's taskwait release (and the
  region's barrier releases, which drain tasks), and mutex release →
  the next contended acquire of the same handle.  A causal edge weighs
  the real elapsed time between its endpoints — spawn latency, wakeup
  latency, and the stall a chain suffers when *it* is the one held up
  all land on the path, attributed to the wait category.

Because every edge ``i → j`` weighs at most ``ts_j − ts_i`` and points
forward in time, the critical-path length is bounded by the trace
span — and approaches it when one chain's compute and hand-offs cover
the whole recording.

``free_mutexes`` reruns the computation pretending a set of mutex
handles never blocked — the "what-if this lock were free" estimate.
What-if comparisons should pass ``causal_elapsed=False`` to both runs:
the zero-weight causal DAG measures pure dependency-chain length (what
a perfect schedule could achieve), which is the quantity a removed
lock actually shortens — the elapsed-weighted path would just re-read
the recorded timeline, stalls included.
"""

from __future__ import annotations

import dataclasses
from collections import Counter, defaultdict, deque

from repro.runtime.trace import on_timeline

#: Steps (:func:`_step`) that open a wait interval on their thread:
#: every program-order edge leaving them is time spent waiting (or
#: helping with tasks, which re-enters via task events), never compute.
_WAIT_SOURCES = {
    "barrier_enter": "barrier_wait",
    "taskwait_enter": "taskwait",
    ("implicit_task", "join"): "join_wait",
}

#: Steps that close a wait interval: the residual edge into them
#: (after any interleaved task execution) is wait, never compute.
_WAIT_TARGETS = {
    "barrier_release": "barrier_wait",
    "taskwait_release": "taskwait",
    ("implicit_task", "end"): "join_wait",
}


def _step(event):
    """The event's kind — with the endpoint for an implicit task."""
    if event.kind == "implicit_task":
        return event.kind, event.detail[0]
    return event.kind


@dataclasses.dataclass(frozen=True)
class PathStep:
    """One interval of the critical path."""

    start: float
    end: float
    thread: int
    category: str
    site: tuple | None = None

    @property
    def elapsed(self) -> float:
        return self.end - self.start


@dataclasses.dataclass
class DagAnalysis:
    """The DAG builder's output: critical path plus whole-trace
    aggregates (the raw material of the bottleneck taxonomy)."""

    events_count: int = 0
    dropped: int = 0
    span_s: float = 0.0
    critical_path_s: float = 0.0
    #: Merged intervals along the critical path, in time order.
    steps: list = dataclasses.field(default_factory=list)
    #: Seconds of the critical path per category (waits measured by
    #: the elapsed span of their zero-weight steps).
    path_breakdown: dict = dataclasses.field(default_factory=dict)
    threads: list = dataclasses.field(default_factory=list)
    #: Program-order compute seconds per thread.
    compute_by_thread: dict = dataclasses.field(default_factory=dict)
    #: Aggregate wait totals (thread-seconds) across the whole trace.
    barrier_wait_s: float = 0.0
    join_wait_s: float = 0.0
    taskwait_s: float = 0.0
    ordered_wait_s: float = 0.0
    #: (kind, handle) -> {"wait_s", "count", "contended", "site"}.
    mutexes: dict = dataclasses.field(default_factory=dict)
    #: barrier site -> {"wait_s", "count", "spread_s"} (spread is the
    #: summed fastest-vs-slowest arrival gap per barrier instance).
    barrier_sites: dict = dataclasses.field(default_factory=dict)
    #: ordered-clause site -> {"wait_s", "count"}.
    ordered_sites: dict = dataclasses.field(default_factory=dict)
    #: region id -> {"size", "begin", "end", "site"}.
    regions: dict = dataclasses.field(default_factory=dict)
    #: Span seconds outside every parallel region (serial fraction).
    serial_s: float = 0.0
    tasks_submitted: int = 0
    tasks_started: int = 0
    steals_by_thread: dict = dataclasses.field(default_factory=dict)
    #: plan source (map name) -> {"executions", "partitions",
    #: "colors", "conflict_edges", "site"} from ``plan`` execute
    #: events (:mod:`repro.plan`): evidence that updates ran under an
    #: inspector–executor plan instead of locks.
    plans: dict = dataclasses.field(default_factory=dict)

    @property
    def serial_fraction(self) -> float:
        return self.serial_s / self.span_s if self.span_s > 0 else 0.0


def _classify_edge(prev_step, cur_step, cur, dt: float) -> tuple[float, str]:
    """Weight and category of the program-order edge into ``cur``."""
    source_wait = _WAIT_SOURCES.get(prev_step)
    if source_wait is not None:
        return 0.0, source_wait
    target_wait = _WAIT_TARGETS.get(cur_step)
    if target_wait is not None:
        return 0.0, target_wait
    if cur_step == ("implicit_task", "begin"):
        # A pool worker parked between regions, or the master's fork
        # overhead: neither is user compute.
        return 0.0, "idle"
    if cur.kind == "mutex_acquired":
        wait = cur.detail[2] if len(cur.detail) >= 3 else 0.0
        return max(0.0, dt - wait), "compute"
    if cur.kind == "ordered_release":
        wait = cur.detail[0] if cur.detail else 0.0
        return max(0.0, dt - wait), "compute"
    if prev_step == "parallel_end":
        return dt, "serial"
    return dt, "compute"


def _site_of(detail: tuple, offset: int) -> tuple | None:
    """``(file, line)`` from a detail tuple, when recorded."""
    if len(detail) >= offset + 2 and detail[offset]:
        return (detail[offset], detail[offset + 1])
    return None


def build_dag(events, *, free_mutexes=frozenset(),
              causal_elapsed: bool = True) -> DagAnalysis:
    """Build the causal DAG over ``events`` and compute its critical
    path and whole-trace aggregates.

    ``events`` is any iterable of :class:`~repro.runtime.trace.
    TraceEvent`; a :class:`~repro.runtime.trace.TraceLog` also supplies
    the dropped count.  ``free_mutexes`` is a set of ``(kind, handle)``
    pairs whose waits are elided — both the causal release→acquire
    edges and the wait portions of aggregate totals — for what-if
    estimates.  ``causal_elapsed=False`` switches causal edges to
    weight zero (the optimistic dependency-length DAG used by what-if
    comparisons).
    """
    analysis = DagAnalysis(dropped=getattr(events, "dropped", 0))
    events = list(events)
    analysis.events_count = len(events)
    evs = sorted(filter(on_timeline, events), key=lambda e: e.timestamp)
    if not evs:
        return analysis
    steps = [_step(event) for event in evs]
    analysis.span_s = evs[-1].timestamp - evs[0].timestamp

    n = len(evs)
    dp = [0.0] * n
    # Backpointer per event: (source index | None, weight, category,
    # site) of the edge that realized dp.
    pred: list[tuple | None] = [None] * n

    last_on_thread: dict[int, int] = {}
    fork_by_region: dict[int, int] = {}
    open_regions: list[int] = []
    barrier_enter_ord: Counter = Counter()
    barrier_release_ord: Counter = Counter()
    barrier_arrivals: dict[tuple, tuple] = {}   # instance -> (dp, idx)
    barrier_enter_ts: defaultdict[tuple, list] = defaultdict(list)
    barrier_site_by_instance: dict[tuple, tuple | None] = {}
    join_arrivals: dict[int, tuple] = {}        # region -> (dp, idx)
    join_arrived_at: dict[tuple, float] = {}    # (region, thread) -> ts
    join_releases: dict[int, tuple] = {}        # region -> (dp, idx)
    submit_queue: defaultdict = defaultdict(deque)  # task id -> deque
    exec_stack: defaultdict[int, list] = defaultdict(list)
    children_max: dict[int, tuple] = {}         # parent -> (dp, idx)
    region_task_max: dict[int, tuple] = {}      # region -> (dp, idx)
    mutex_release: dict[tuple, tuple] = {}      # handle -> (dp, idx)

    compute_by_thread: defaultdict[int, float] = defaultdict(float)
    steals: Counter = Counter()

    def raise_group(table: dict, key, value: float, index: int) -> None:
        entry = table.get(key)
        if entry is None or value > entry[0]:
            table[key] = (value, index)

    for i, event in enumerate(evs):
        kind = steps[i]
        detail = event.detail
        best = 0.0
        best_pred: tuple | None = None

        prev_i = last_on_thread.get(event.thread)
        if prev_i is not None:
            dt = event.timestamp - evs[prev_i].timestamp
            weight, category = _classify_edge(steps[prev_i], kind, event,
                                              dt)
            if weight > 0.0:
                compute_by_thread[event.thread] += weight
            score = dp[prev_i] + weight
            if score >= best:
                best = score
                best_pred = (prev_i, weight, category, None)

        def offer(entry: tuple | None, category: str,
                  site: tuple | None = None) -> None:
            nonlocal best, best_pred
            if entry is None:
                return
            value, index = entry
            delta = max(0.0, event.timestamp - evs[index].timestamp) \
                if causal_elapsed else 0.0
            if value + delta > best:
                best = value + delta
                best_pred = (index, delta, category, site)

        if kind == ("implicit_task", "begin"):
            region = detail[1]
            fork = fork_by_region.get(region)
            if fork is not None:
                offer((dp[fork], fork), "fork")
        elif kind == "barrier_release":
            region = detail[1] if len(detail) >= 2 else 0
            ordinal = barrier_release_ord[(region, event.thread)]
            barrier_release_ord[(region, event.thread)] += 1
            offer(barrier_arrivals.get((region, ordinal)),
                  "barrier_wait",
                  barrier_site_by_instance.get((region, ordinal)))
            # A barrier is a task-scheduling point: it cannot release
            # before the team's tasks drained.
            offer(region_task_max.get(region), "barrier_wait")
        elif kind == ("implicit_task", "end"):
            region = detail[1]
            offer(join_arrivals.get(region), "join_wait")
            offer(region_task_max.get(region), "join_wait")
        elif kind == "parallel_end":
            region = detail[1] if len(detail) >= 2 else 0
            offer(join_releases.get(region), "join_wait")
        elif kind == "task_start":
            task = detail[0] if detail else None
            queue = submit_queue.get(task)
            if queue:
                submit_i, parent = queue.popleft()
                offer((dp[submit_i], submit_i), "task_spawn")
            else:
                parent = 0
            exec_stack[event.thread].append((task, parent))
        elif kind == "taskwait_release":
            parent = detail[2] if len(detail) >= 3 else 0
            offer(children_max.get(parent), "taskwait")
        elif kind == "mutex_acquired":
            handle = tuple(detail[:2])
            wait = detail[2] if len(detail) >= 3 else 0.0
            if wait > 0.0 and handle not in free_mutexes:
                offer(mutex_release.get(handle), "mutex_wait",
                      _site_of(detail, 3))

        dp[i] = best
        pred[i] = best_pred
        last_on_thread[event.thread] = i

        # Group-state updates that must see this event's dp.
        if kind == "parallel_begin":
            region = detail[1] if len(detail) >= 2 else 0
            fork_by_region[region] = i
            open_regions.append(region)
            analysis.regions[region] = {
                "size": detail[0] if detail else 1,
                "begin": event.timestamp, "end": None,
                "site": _site_of(detail, 2),
            }
        elif kind == "parallel_end":
            region = detail[1] if len(detail) >= 2 else 0
            if region in open_regions:
                open_regions.remove(region)
            meta = analysis.regions.get(region)
            if meta is not None:
                meta["end"] = event.timestamp
        elif kind == "barrier_enter":
            region = detail[1] if len(detail) >= 2 else 0
            ordinal = barrier_enter_ord[(region, event.thread)]
            barrier_enter_ord[(region, event.thread)] += 1
            instance = (region, ordinal)
            raise_group(barrier_arrivals, instance, dp[i], i)
            barrier_enter_ts[instance].append(event.timestamp)
            site = _site_of(detail, 3)
            if site is not None:
                barrier_site_by_instance.setdefault(instance, site)
        elif kind == "barrier_release":
            wait = detail[0] if detail else 0.0
            if isinstance(wait, (int, float)):
                analysis.barrier_wait_s += wait
        elif kind == ("implicit_task", "join"):
            region = detail[1]
            raise_group(join_arrivals, region, dp[i], i)
            join_arrived_at[(region, event.thread)] = event.timestamp
        elif kind == ("implicit_task", "end"):
            region = detail[1]
            raise_group(join_releases, region, dp[i], i)
            entered = join_arrived_at.pop((region, event.thread), None)
            if entered is not None:
                analysis.join_wait_s += max(
                    0.0, event.timestamp - entered)
        elif kind == "task_create":
            parent = detail[1] if len(detail) >= 2 else 0
            submit_queue[detail[0] if detail else None].append(
                (i, parent))
            analysis.tasks_submitted += 1
        elif kind == "task_start":
            analysis.tasks_started += 1
        elif kind == "task_finish":
            stack = exec_stack[event.thread]
            parent = stack.pop()[1] if stack else 0
            raise_group(children_max, parent, dp[i], i)
            region = open_regions[-1] if open_regions else 0
            raise_group(region_task_max, region, dp[i], i)
        elif kind == "task_steal":
            steals[event.thread] += 1
        elif kind == "taskwait_release":
            wait = detail[0] if detail else 0.0
            if isinstance(wait, (int, float)):
                analysis.taskwait_s += wait
        elif kind == "mutex_acquired":
            handle = tuple(detail[:2])
            wait = detail[2] if len(detail) >= 3 else 0.0
            if handle in free_mutexes:
                wait = 0.0
            entry = analysis.mutexes.setdefault(
                handle, {"wait_s": 0.0, "count": 0, "contended": 0,
                         "site": None})
            entry["count"] += 1
            if isinstance(wait, (int, float)) and wait > 0.0:
                entry["wait_s"] += wait
                entry["contended"] += 1
            if entry["site"] is None:
                entry["site"] = _site_of(detail, 3)
        elif kind == "mutex_released":
            raise_group(mutex_release, tuple(detail[:2]), dp[i], i)
        elif kind == "ordered_release":
            wait = detail[0] if detail else 0.0
            site = _site_of(detail, 3)
            if isinstance(wait, (int, float)):
                analysis.ordered_wait_s += wait
                entry = analysis.ordered_sites.setdefault(
                    site, {"wait_s": 0.0, "count": 0})
                entry["wait_s"] += wait
                entry["count"] += 1
        elif kind == "plan":
            source = detail[1] if len(detail) >= 2 else "?"
            entry = analysis.plans.setdefault(
                source, {"executions": 0, "partitions": 0, "colors": 0,
                         "conflict_edges": 0, "site": None})
            entry["executions"] += 1
            if len(detail) >= 5:
                entry["partitions"] = detail[2]
                entry["colors"] = detail[3]
                entry["conflict_edges"] = detail[4]
            if entry["site"] is None:
                entry["site"] = _site_of(detail, 5)

    # Barrier-site aggregates: total arrival spread (slowest minus
    # fastest arrival) and summed release waits per enter site.
    for instance, stamps in barrier_enter_ts.items():
        site = barrier_site_by_instance.get(instance)
        entry = analysis.barrier_sites.setdefault(
            site, {"wait_s": 0.0, "count": 0, "spread_s": 0.0})
        entry["count"] += 1
        if len(stamps) > 1:
            entry["spread_s"] += max(stamps) - min(stamps)
    total_site_wait = sum(
        e["spread_s"] for e in analysis.barrier_sites.values())
    if total_site_wait > 0:
        for entry in analysis.barrier_sites.values():
            entry["wait_s"] = analysis.barrier_wait_s * (
                entry["spread_s"] / total_site_wait)
    elif analysis.barrier_sites:
        share = analysis.barrier_wait_s / len(analysis.barrier_sites)
        for entry in analysis.barrier_sites.values():
            entry["wait_s"] = share

    # Serial fraction: span minus the union of region spans.
    intervals = sorted(
        (meta["begin"], meta["end"] if meta["end"] is not None
         else evs[-1].timestamp)
        for meta in analysis.regions.values())
    covered = 0.0
    cursor = None
    for begin, end in intervals:
        if cursor is None or begin > cursor:
            covered += end - begin
            cursor = end
        elif end > cursor:
            covered += end - cursor
            cursor = end
    analysis.serial_s = max(0.0, analysis.span_s - covered)

    analysis.threads = sorted({event.thread for event in evs})
    analysis.compute_by_thread = dict(compute_by_thread)
    analysis.steals_by_thread = dict(steals)

    # Critical path: backtrack from the best endpoint.
    end_i = max(range(n), key=dp.__getitem__)
    analysis.critical_path_s = dp[end_i]
    raw_steps: list[PathStep] = []
    i = end_i
    while pred[i] is not None:
        source, weight, category, site = pred[i]
        raw_steps.append(PathStep(
            start=evs[source].timestamp, end=evs[i].timestamp,
            thread=evs[i].thread, category=category, site=site))
        i = source
    raw_steps.reverse()

    merged: list[PathStep] = []
    for step in raw_steps:
        if merged and merged[-1].category == step.category \
                and merged[-1].thread == step.thread \
                and merged[-1].site == step.site:
            merged[-1] = dataclasses.replace(merged[-1], end=step.end)
        else:
            merged.append(step)
    analysis.steps = merged

    breakdown: defaultdict[str, float] = defaultdict(float)
    for step in raw_steps:
        breakdown[step.category] += step.elapsed
    analysis.path_breakdown = dict(breakdown)
    return analysis


def summarize(analysis: DagAnalysis, *, top: int = 8) -> dict:
    """JSON-safe condensation of a :class:`DagAnalysis` (used by the
    report writer and the live ``/explain`` endpoint)."""
    from repro.diagnostics.origin import format_location

    def site_str(site) -> str | None:
        if not site:
            return None
        return format_location(site[0], site[1])

    mutexes = sorted(analysis.mutexes.items(),
                     key=lambda item: item[1]["wait_s"], reverse=True)
    return {
        "events": analysis.events_count,
        "dropped": analysis.dropped,
        "span_s": analysis.span_s,
        "critical_path_s": analysis.critical_path_s,
        "path_breakdown_s": dict(sorted(
            analysis.path_breakdown.items(),
            key=lambda item: item[1], reverse=True)),
        "threads": analysis.threads,
        "serial_s": analysis.serial_s,
        "serial_fraction": analysis.serial_fraction,
        "waits_s": {
            "barrier": analysis.barrier_wait_s,
            "join": analysis.join_wait_s,
            "taskwait": analysis.taskwait_s,
            "ordered": analysis.ordered_wait_s,
            "mutex": sum(m["wait_s"] for m in analysis.mutexes.values()),
        },
        "mutexes": [
            {"kind": handle[0] if handle else None,
             "handle": str(handle[1]) if len(handle) > 1 else None,
             "wait_s": entry["wait_s"], "count": entry["count"],
             "contended": entry["contended"],
             "site": site_str(entry["site"])}
            for handle, entry in mutexes[:top]],
        "regions": len(analysis.regions),
        "plans": {
            source: {"executions": entry["executions"],
                     "partitions": entry["partitions"],
                     "colors": entry["colors"],
                     "conflict_edges": entry["conflict_edges"],
                     "site": site_str(entry["site"])}
            for source, entry in sorted(analysis.plans.items())},
        "tasks": {"submitted": analysis.tasks_submitted,
                  "started": analysis.tasks_started,
                  "steals": {str(t): c for t, c in sorted(
                      analysis.steals_by_thread.items())}},
        "critical_steps": [
            {"category": step.category, "thread": step.thread,
             "elapsed_s": step.elapsed, "site": site_str(step.site)}
            for step in analysis.steps[:top]],
    }
