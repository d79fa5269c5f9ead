"""Thread-safe metrics registry and the metrics-accumulating tool.

The registry holds three instrument kinds — counters, gauges, and time
histograms — addressed by name plus a label set, in the Prometheus data
model (``omp_chunks_total{thread="3"}``).  Instruments are created
lazily on first touch and updated under one registry-wide mutex; the
runtime's hot paths never see the registry unless a tool is attached.

:class:`MetricsTool` is the standard :class:`~repro.ompt.hooks.ToolHooks`
implementation: attached to a runtime it turns the callback stream into
the per-region/per-thread figures the paper's plots are built from —
chunks and iterations per thread, barrier wait time, lock contention,
and task submit→start / start→complete latencies.
"""

from __future__ import annotations

import threading
import time

from repro.ompt.hooks import ToolHooks

#: Default histogram bounds for durations in seconds: 1 µs .. 10 s.
TIME_BUCKETS = (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0)


class Counter:
    """Monotonically increasing value."""

    __slots__ = ("value",)
    kind = "counter"

    def __init__(self):
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def sample(self) -> float:
        return self.value


class Gauge:
    """Last-written value."""

    __slots__ = ("value",)
    kind = "gauge"

    def __init__(self):
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def sample(self) -> float:
        return self.value


class Histogram:
    """Cumulative-bucket histogram with sum/count/min/max."""

    __slots__ = ("bounds", "buckets", "count", "total", "min", "max")
    kind = "histogram"

    def __init__(self, bounds=TIME_BUCKETS):
        self.bounds = tuple(bounds)
        self.buckets = [0] * (len(self.bounds) + 1)  # trailing +Inf
        self.count = 0
        self.total = 0.0
        self.min = None
        self.max = None

    def observe(self, value: float) -> None:
        index = len(self.bounds)
        for position, bound in enumerate(self.bounds):
            if value <= bound:
                index = position
                break
        self.buckets[index] += 1
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def sample(self) -> dict:
        return {"count": self.count, "sum": self.total,
                "min": self.min, "max": self.max, "mean": self.mean,
                "buckets": {str(bound): cumulative
                            for bound, cumulative
                            in zip((*self.bounds, "+Inf"),
                                   _cumulate(self.buckets))}}


def _cumulate(buckets):
    running = 0
    for bucket in buckets:
        running += bucket
        yield running


class MetricsRegistry:
    """Named, labeled instruments behind one mutex.

    ``counter``/``gauge``/``histogram`` return the (lazily created)
    instrument for a name + label set; callers mutate it while holding
    nothing — the instruments' single-field updates are safe under the
    registry pattern used here because every mutation path goes through
    the owning tool's lock (see :class:`MetricsTool`) or a single
    thread.  External writers that share a registry across threads
    should serialize with :attr:`lock`.
    """

    def __init__(self):
        self.lock = threading.Lock()
        self._instruments: dict[tuple, object] = {}
        self._help: dict[str, str] = {}

    def _get(self, factory, name: str, help_text: str, labels: dict):
        key = (name, tuple(sorted(labels.items())))
        instrument = self._instruments.get(key)
        if instrument is None:
            with self.lock:
                instrument = self._instruments.get(key)
                if instrument is None:
                    instrument = factory()
                    self._instruments[key] = instrument
                    if help_text and name not in self._help:
                        self._help[name] = help_text
        return instrument

    def counter(self, name: str, help_text: str = "", **labels) -> Counter:
        return self._get(Counter, name, help_text, labels)

    def gauge(self, name: str, help_text: str = "", **labels) -> Gauge:
        return self._get(Gauge, name, help_text, labels)

    def histogram(self, name: str, help_text: str = "", bounds=TIME_BUCKETS,
                  **labels) -> Histogram:
        return self._get(lambda: Histogram(bounds), name, help_text, labels)

    def collect(self):
        """Yield ``(name, labels_dict, instrument)`` sorted by name."""
        with self.lock:
            items = sorted(self._instruments.items())
        for (name, labels), instrument in items:
            yield name, dict(labels), instrument

    def help_text(self, name: str) -> str:
        return self._help.get(name, "")

    def as_dict(self) -> dict:
        """JSON-ready form: name → {type, help, samples}."""
        families: dict[str, dict] = {}
        for name, labels, instrument in self.collect():
            family = families.setdefault(name, {
                "type": instrument.kind,
                "help": self.help_text(name),
                "samples": []})
            family["samples"].append({"labels": labels,
                                      "value": instrument.sample()})
        return families


class MetricsTool(ToolHooks):
    """Tool that folds the callback stream into a registry.

    All state transitions (task timestamps and instrument updates) are
    serialized by one tool-level lock, so a single tool instance can be
    attached to a runtime whose teams run many threads.
    """

    def __init__(self, registry: MetricsRegistry | None = None):
        self.registry = registry if registry is not None \
            else MetricsRegistry()
        self._lock = threading.Lock()
        #: task id → (submit_ts, start_ts | None); popped on completion.
        self._tasks: dict[int, list] = {}
        #: task ids whose ``task_steal`` fired and whose
        #: ``task_schedule`` hasn't yet; drives local/stolen attribution.
        self._stolen: set[int] = set()

    # -- native threads ---------------------------------------------------

    def thread_begin(self, ttype, ident):
        with self._lock:
            self.registry.counter(
                "omp_pool_spawns_total",
                "Runtime worker threads spawned, by thread type",
                ttype=ttype).inc()

    def thread_end(self, ttype, ident):
        with self._lock:
            self.registry.counter(
                "omp_pool_trims_total",
                "Runtime worker threads retired (idle trim or pool "
                "shutdown), by thread type",
                ttype=ttype).inc()

    def thread_idle(self, ident, endpoint):
        if endpoint != "end":
            return
        with self._lock:
            self.registry.counter(
                "omp_pool_reuse_total",
                "Parked pool workers re-dispatched to a new region").inc()

    # -- parallel regions -------------------------------------------------

    def parallel_begin(self, thread, team_size):
        registry = self.registry
        with self._lock:
            registry.counter(
                "omp_parallel_regions_total",
                "Parallel regions forked").inc()
            registry.gauge(
                "omp_team_size", "Size of the last forked team").set(
                team_size)

    def implicit_task(self, thread, endpoint, team_size):
        if endpoint != "begin":
            return
        with self._lock:
            self.registry.counter(
                "omp_implicit_tasks_total",
                "Implicit tasks started, per thread",
                thread=thread).inc()

    # -- worksharing ------------------------------------------------------

    def work(self, thread, wstype, low, high):
        registry = self.registry
        with self._lock:
            registry.counter(
                "omp_chunks_total",
                "Worksharing units dispatched, per thread and type",
                thread=thread, wstype=wstype).inc()
            if wstype == "loop":
                registry.counter(
                    "omp_iterations_total",
                    "Loop iterations dispatched, per thread",
                    thread=thread).inc(max(0, high - low))

    # -- tasking ----------------------------------------------------------

    def task_create(self, thread, task_id):
        now = time.perf_counter()
        with self._lock:
            self._tasks[task_id] = [now, None]
            self.registry.counter(
                "omp_tasks_created_total",
                "Explicit tasks submitted, per thread",
                thread=thread).inc()

    def task_schedule(self, thread, task_id):
        now = time.perf_counter()
        with self._lock:
            entry = self._tasks.get(task_id)
            if entry is not None:
                entry[1] = now
                self.registry.histogram(
                    "omp_task_latency_seconds",
                    "Task submit-to-start latency").observe(now - entry[0])
            self.registry.counter(
                "omp_tasks_executed_total",
                "Explicit tasks executed, per thread",
                thread=thread).inc()
            if task_id in self._stolen:
                self._stolen.discard(task_id)
            else:
                self.registry.counter(
                    "omp_task_local_hits_total",
                    "Tasks executed without stealing, per thread",
                    thread=thread).inc()

    def task_steal(self, thread, task_id, victim):
        with self._lock:
            self._stolen.add(task_id)
            self.registry.counter(
                "omp_task_steals_total",
                "Tasks claimed from another thread's deque, per thief",
                thread=thread).inc()

    def task_complete(self, thread, task_id):
        now = time.perf_counter()
        with self._lock:
            entry = self._tasks.pop(task_id, None)
            if entry is not None and entry[1] is not None:
                self.registry.histogram(
                    "omp_task_duration_seconds",
                    "Task start-to-complete duration").observe(
                    now - entry[1])

    # -- synchronization --------------------------------------------------

    def sync_region(self, thread, kind, endpoint, wait_time):
        if endpoint != "release" or wait_time is None:
            return
        with self._lock:
            self.registry.histogram(
                "omp_sync_wait_seconds",
                "Time spent inside sync regions, per kind and thread",
                kind=kind, thread=thread).observe(wait_time)

    def mutex_acquire(self, thread, kind, handle):
        with self._lock:
            self.registry.counter(
                "omp_mutex_contended_total",
                "Mutex acquisitions that had to block",
                kind=kind).inc()

    def mutex_acquired(self, thread, kind, handle, wait_time):
        with self._lock:
            registry = self.registry
            registry.counter(
                "omp_mutex_acquisitions_total",
                "Mutex acquisitions", kind=kind).inc()
            registry.histogram(
                "omp_mutex_wait_seconds",
                "Time spent waiting for mutexes", kind=kind).observe(
                wait_time)

    # -- inspector–executor plans -----------------------------------------

    def plan(self, thread, event, payload):
        registry = self.registry
        with self._lock:
            if event == "build":
                registry.counter(
                    "omp_plan_builds_total",
                    "Execution plans built by the inspector, per map",
                    source=payload["source"]).inc()
            elif event == "cache_hit":
                registry.counter(
                    "omp_plan_cache_hits_total",
                    "Plans served from the (map, partition size) "
                    "cache, per map",
                    source=payload["source"]).inc()
            elif event == "execute":
                registry.counter(
                    "omp_plan_executions_total",
                    "Color-by-color plan executions, per map",
                    source=payload["source"]).inc()
                registry.gauge(
                    "omp_plan_partitions",
                    "Partition count of the last executed plan",
                    source=payload["source"]).set(payload["partitions"])
                registry.gauge(
                    "omp_plan_colors",
                    "Color count of the last executed plan",
                    source=payload["source"]).set(payload["colors"])
                registry.gauge(
                    "omp_plan_conflict_edges",
                    "Conflict-graph edge count of the last executed "
                    "plan",
                    source=payload["source"]).set(
                    payload["conflict_edges"])

    # -- results ----------------------------------------------------------

    def pending_tasks(self) -> int:
        """Tasks created but not yet completed (leak check hook)."""
        with self._lock:
            return len(self._tasks)
