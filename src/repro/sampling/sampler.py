"""The sampler core: a daemon thread over ``sys._current_frames()``.

Two kinds of state meet here:

* **Directive stacks** — the sampler is a tool
  (:class:`~repro.ompt.hooks.ToolHooks`): the ``implicit_task``,
  ``loop`` and ``task_schedule``/``task_complete`` callbacks push and
  pop ``<omp kind @ file:line>`` markers on a per-thread stack.  Each
  thread only ever writes its own stack, so a callback costs a list
  append or a truncate — no locks.  Leaving a region truncates to its
  own marker, so an exception that skips an inner ``for_end`` can
  never leak markers past its region.

* **Samples** — the sampler thread wakes every ``interval`` seconds,
  snapshots every thread's frame, classifies it as ``cpu`` (running
  user or generated code), ``wait`` (its innermost diagnostics
  :class:`~repro.diagnostics.state.BlockRecord` has ``sleeping`` set),
  and folds the stack: runtime-internal and stdlib frames are dropped,
  generated ``<omp4py:...>`` frames are resolved to user coordinates
  through the origin registry, and the thread's directive markers are
  spliced between the user's calling frames and the frames executing
  inside the region.

The reads on the sampling side are deliberately racy (frame objects,
directive stacks and blocking records can mutate mid-walk); a torn
read mislabels at most one sample, which aggregation absorbs.
"""

from __future__ import annotations

import os
import sys
import threading
from collections import Counter, deque

from repro.diagnostics.origin import resolve
from repro.diagnostics.state import install, uninstall
from repro.ompt.hooks import ToolHooks
from repro.runtime.trace import caller_site

#: The installed package root (``.../repro``): frames inside it are
#: runtime internals, never user code a sample should be charged to.
_PACKAGE_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: The stdlib directory (``threading.__file__``'s home): bootstrap and
#: ``Event.wait`` frames are infrastructure, not user code.
_STDLIB_DIR = os.path.dirname(os.path.abspath(threading.__file__))
_GENERATED_PREFIX = "<omp4py:"

#: Thread-name prefixes the sampler never samples (its own thread, the
#: watchdog, the live metrics server).
_SKIP_PREFIXES = ("omp-sampler", "omp-watchdog", "omp4py-metrics-server")

#: Default sampling interval: 5 ms (200 Hz).
DEFAULT_INTERVAL = 0.005

#: Sample states.
STATES = ("cpu", "wait")


def _frame_label(filename: str, lineno: int, func: str) -> str:
    """One folded-stack frame: ``func (file:line)`` with the origin
    mapping applied and path noise trimmed."""
    resolved_file, resolved_line = resolve(filename, lineno)
    return (f"{func} ({os.path.basename(resolved_file)}:"
            f"{resolved_line})")


def directive_label(kind: str, site) -> str:
    """The synthetic directive frame: ``<omp kind @ file:line>``."""
    if not site or not site[0]:
        return f"<omp {kind}>"
    resolved_file, resolved_line = resolve(site[0], site[1])
    return (f"<omp {kind} @ {os.path.basename(resolved_file)}:"
            f"{resolved_line}>")


class FoldedStore:
    """Aggregated samples: folded stacks, per-directive tallies, and
    the per-directive hot-frame counters the explainer quotes.

    All writes come from the single sampler thread; readers (the
    ``/profile`` route, the doctor, exporters) read racily and only see
    slightly stale counts.
    """

    def __init__(self, max_stacks: int = 20_000):
        #: (stack tuple, state) -> sample count.
        self.stacks: dict[tuple, int] = {}
        #: directive label -> {"self", "total", "wait"} sample counts.
        #: ``self`` counts on-CPU samples whose *innermost* directive
        #: this is; ``total`` counts on-CPU samples anywhere under it.
        self.directives: dict[str, dict[str, int]] = {}
        #: directive label -> Counter of innermost on-CPU frame labels.
        self.hot_frames: dict[str, Counter] = {}
        self.max_stacks = max_stacks
        self.dropped_stacks = 0
        self.by_state: Counter = Counter()
        self.total = 0

    def add(self, directives: tuple, stack: tuple, state: str) -> None:
        """Record one sample.  ``stack`` is the fully composed folded
        stack (caller frames, then the ``directives`` markers, then the
        frames executing inside the innermost region)."""
        self.total += 1
        self.by_state[state] += 1
        key = (stack, state)
        count = self.stacks.get(key)
        if count is not None:
            self.stacks[key] = count + 1
        elif len(self.stacks) < self.max_stacks:
            self.stacks[key] = 1
        else:
            self.dropped_stacks += 1
        if directives:
            innermost = directives[-1]
            for label in directives:
                entry = self.directives.get(label)
                if entry is None:
                    entry = {"self": 0, "total": 0, "wait": 0}
                    self.directives[label] = entry
                if state == "cpu":
                    entry["total"] += 1
                else:
                    entry["wait"] += 1
            if state == "cpu":
                self.directives[innermost]["self"] += 1
                leaf = stack[-1] if stack else innermost
                hot = self.hot_frames.get(innermost)
                if hot is None:
                    hot = Counter()
                    self.hot_frames[innermost] = hot
                hot[leaf] += 1

    def top_stacks(self, limit: int = 20) -> list[dict]:
        ranked = sorted(self.stacks.items(), key=lambda item: item[1],
                        reverse=True)
        return [{"stack": list(stack), "state": state, "count": count}
                for (stack, state), count in ranked[:limit]]

    def directive_summary(self, interval: float) -> dict[str, dict]:
        """Per-directive tallies with seconds attributed at ``count ×
        interval`` (the standard sampling estimator)."""
        summary = {}
        for label, entry in self.directives.items():
            summary[label] = {
                "self": entry["self"],
                "total": entry["total"],
                "wait": entry["wait"],
                "self_s": entry["self"] * interval,
                "total_s": entry["total"] * interval,
                "wait_s": entry["wait"] * interval,
            }
        return summary

    def hottest_frames(self, label: str, limit: int = 3) -> list[dict]:
        hot = self.hot_frames.get(label)
        if not hot:
            return []
        return [{"frame": frame, "count": count}
                for frame, count in hot.most_common(limit)]


class Sampler(ToolHooks):
    """One runtime's sampling profiler.

    ``start()`` attaches the sampler as a tool (its callbacks maintain
    the directive stacks), publishes it as ``runtime.sampler`` and
    spawns the daemon sampling thread; ``stop()`` reverses all three.
    When the runtime has no
    :class:`~repro.diagnostics.state.DiagnosticsState`, ``start()``
    installs one — the blocking records are the on-CPU/waiting
    classifier — and ``stop()`` removes that one again.  Both are
    idempotent.
    """

    def __init__(self, runtime, interval: float = DEFAULT_INTERVAL, *,
                 registry=None, recent: int = 8,
                 max_stacks: int = 20_000):
        if interval <= 0:
            raise ValueError("sampling interval must be positive")
        self.runtime = runtime
        self.interval = interval
        #: Optional :class:`~repro.ompt.metrics.MetricsRegistry` fed
        #: ``omp_sample_*`` series while sampling runs.
        self.registry = registry
        self.store = FoldedStore(max_stacks=max_stacks)
        #: thread ident -> directive-marker stack [(kind, label), ...].
        self._active: dict[int, list] = {}
        #: region id -> fork site, task id -> submit site: noted on the
        #: encountering thread, read when a member / the task starts.
        self._region_sites: dict[int, tuple] = {}
        self._task_sites: dict[int, tuple] = {}
        #: thread ident -> deque of the last N folded-stack strings —
        #: the doctor's "what was the stuck thread executing" evidence.
        self._recent: dict[int, deque] = {}
        self._recent_limit = recent
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()
        self._installed_diag = None
        self.ticks = 0

    # -- directive tracking (tool callbacks; owner-thread only) ---------

    def parallel_begin(self, thread, team_size):
        region = self.runtime.current_frame().forked.region_id
        self._region_sites[region] = caller_site()

    def parallel_end(self, thread, team_size):
        region = self.runtime.current_frame().forked.region_id
        self._region_sites.pop(region, None)

    def implicit_task(self, thread, endpoint, team_size):
        if endpoint == "begin":
            region = self.runtime.current_frame().team.region_id
            self.region_enter("parallel", self._region_sites.get(region))
        elif endpoint == "end":
            self._leave("parallel")

    def loop(self, thread, endpoint):
        if endpoint == "begin":
            self.loop_enter(caller_site())
        else:
            self.loop_exit()

    def task_create(self, thread, task_id):
        self._task_sites[task_id] = caller_site()

    def task_schedule(self, thread, task_id):
        self.region_enter("task", self._task_sites.pop(task_id, None))

    def task_complete(self, thread, task_id):
        self._leave("task")

    def region_enter(self, kind: str, site) -> int:
        """Push a directive marker; returns the pre-push depth so the
        matching :meth:`region_exit` can truncate leaks away."""
        ident = threading.get_ident()
        stack = self._active.get(ident)
        if stack is None:
            stack = []
            self._active[ident] = stack
        mark = len(stack)
        stack.append((kind, directive_label(kind, site)))
        return mark

    def region_exit(self, mark: int) -> None:
        stack = self._active.get(threading.get_ident())
        if stack is not None:
            del stack[mark:]

    def loop_enter(self, site) -> None:
        self.region_enter("for", site)

    def loop_exit(self) -> None:
        self._leave("for")

    def _leave(self, kind: str) -> None:
        """Truncate to the innermost ``kind`` marker, taking with it
        any inner markers an exception skipped past."""
        stack = self._active.get(threading.get_ident())
        if not stack:
            return
        for index in range(len(stack) - 1, -1, -1):
            if stack[index][0] == kind:
                del stack[index:]
                return

    # -- lifecycle -------------------------------------------------------

    @property
    def running(self) -> bool:
        return self._thread is not None

    def start(self) -> "Sampler":
        if self._thread is not None:
            return self
        self._installed_diag = install(self.runtime)
        self.runtime.sampler = self
        self.runtime.attach_tool(self)
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run,
            name=f"omp-sampler-{self.runtime.name}", daemon=True)
        self._thread.start()
        return self

    def stop(self) -> "Sampler":
        if self._thread is None:
            return self
        self.runtime.detach_tool(self)
        if getattr(self.runtime, "sampler", None) is self:
            self.runtime.sampler = None
        self._stop.set()
        thread = self._thread
        self._thread = None
        thread.join(timeout=max(1.0, self.interval * 10))
        uninstall(self.runtime, self._installed_diag)
        self._installed_diag = None
        return self

    # -- the sampling loop ----------------------------------------------

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            try:
                self._sample_once()
            except Exception:  # noqa: BLE001 - never kill the workload
                pass

    def _sample_once(self) -> None:
        self.ticks += 1
        frames = sys._current_frames()
        names = {thread.ident: thread.name
                 for thread in threading.enumerate()}
        own = threading.get_ident()
        diag = self.runtime.diag
        registry = self.registry
        for ident, frame in frames.items():
            if ident == own:
                continue
            name = names.get(ident, "")
            if name.startswith(_SKIP_PREFIXES):
                continue
            state = "cpu"
            if diag is not None:
                records = diag.blocked.get(ident)
                if records:
                    try:
                        if records[-1].sleeping:
                            state = "wait"
                    except IndexError:  # racy pop mid-read
                        pass
            directives = tuple(
                label for _kind, label in
                tuple(self._active.get(ident, ())))
            stack = tuple(self._fold(frame, directives))
            if not stack:
                continue  # parked infrastructure: nothing to charge
            self.store.add(directives, stack, state)
            recent = self._recent.get(ident)
            if recent is None:
                recent = deque(maxlen=self._recent_limit)
                self._recent[ident] = recent
            recent.append(f"[{state}] " + ";".join(stack))
            if registry is not None:
                registry.counter(
                    "omp_samples_total",
                    "Profiler samples taken, by classified state",
                    state=state).inc()
        if registry is not None and self.store.directives:
            # Re-publish the per-directive estimator gauges (cheap:
            # a handful of directives per workload).
            for label, entry in list(self.store.directives.items()):
                registry.gauge(
                    "omp_sample_self_seconds",
                    "Estimated on-CPU seconds with this directive "
                    "innermost (samples × interval)",
                    directive=label).set(entry["self"] * self.interval)
                registry.gauge(
                    "omp_sample_total_seconds",
                    "Estimated on-CPU seconds anywhere under this "
                    "directive (samples × interval)",
                    directive=label).set(entry["total"] * self.interval)

    def _fold(self, frame, directives: tuple) -> list[str]:
        """Fold one thread's frame chain into stack labels, outermost
        first: user frames outside the runtime, then the directive
        markers, then the frames executing inside the region."""
        chain = []
        hops = 0
        while frame is not None and hops < 128:
            chain.append(frame)
            frame = frame.f_back
            hops += 1
        chain.reverse()  # outermost first

        def is_runtime(code_filename: str) -> bool:
            return (code_filename.startswith(_PACKAGE_DIR)
                    and not code_filename.startswith(_GENERATED_PREFIX))

        def is_noise(code_filename: str) -> bool:
            return (code_filename.startswith(_STDLIB_DIR)
                    or code_filename.startswith("<frozen"))

        first_runtime = None
        last_runtime = None
        for index, entry in enumerate(chain):
            if is_runtime(entry.f_code.co_filename):
                if first_runtime is None:
                    first_runtime = index
                last_runtime = index
        if first_runtime is None:
            prefix, suffix = chain, []
        else:
            prefix = chain[:first_runtime]
            suffix = chain[last_runtime + 1:]

        labels: list[str] = []
        for entry in prefix:
            code = entry.f_code
            if is_noise(code.co_filename):
                continue
            labels.append(_frame_label(code.co_filename, entry.f_lineno,
                                       code.co_qualname))
        labels.extend(directives)
        for entry in suffix:
            code = entry.f_code
            if is_noise(code.co_filename):
                continue
            labels.append(_frame_label(code.co_filename, entry.f_lineno,
                                       code.co_qualname))
        return labels

    # -- reporting -------------------------------------------------------

    def status(self, recent: int = 5) -> dict:
        """Compact status block for watchdog/doctor reports."""
        names = {thread.ident: thread.name
                 for thread in threading.enumerate()}
        return {
            "armed": self.running,
            "interval_s": self.interval,
            "hz": round(1.0 / self.interval, 3),
            "ticks": self.ticks,
            "samples": self.store.total,
            "by_state": dict(self.store.by_state),
            "recent_stacks": {
                f"{names.get(ident, '?')} (ident {ident})":
                    list(stacks)[-recent:]
                for ident, stacks in sorted(self._recent.items())},
        }

    def report(self) -> dict:
        """Full profile payload (the ``/profile`` route body)."""
        payload = self.status()
        payload["directives"] = self.store.directive_summary(
            self.interval)
        payload["hot_frames"] = {
            label: self.store.hottest_frames(label)
            for label in self.store.directives}
        payload["top_stacks"] = self.store.top_stacks()
        payload["dropped_stacks"] = self.store.dropped_stacks
        return payload
