"""Span recorder for the traced run (``run.py --trace 1``).

Spans are recorded from the benchmark's own files, around the public
calls into each layer — never from inside the program — kept in memory
and written out as Chrome trace-event JSON when the run ends.  A span
carries name, start, end, the span that caused it, and (for a served
request) the request id its children share.

A layer is the first dotted component of a span's name
(``apps.pi.pure`` → ``apps``).  A layer's *self time* is its spans'
duration minus the part of that interval covered by child spans;
children on other threads may overlap each other, so the covered part
is the union of the child intervals.

The recorder is disabled unless a traced run arms it: a disabled
``span()`` hands back one shared no-op context manager, which is what
keeps the end-to-end metrics (always taken with the recorder off) free
of tracing cost.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import threading
import time


class Recorder:
    """In-memory span store with per-thread parent tracking."""

    def __init__(self):
        self.enabled = False
        #: (id, name, start, end, parent id, request id, thread name)
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._null = contextlib.nullcontext(None)

    def span(self, name: str, *, parent: int | None = None,
             request: int | None = None):
        """Context manager timing one span; yields the span id.

        ``parent`` overrides the calling thread's innermost open span
        (client threads hang their requests under the phase span,
        which was opened on the main thread).
        """
        if not self.enabled:
            return self._null
        return self._record(name, parent, request)

    @contextlib.contextmanager
    def _record(self, name, parent, request):
        stack = self._local.__dict__.setdefault("stack", [])
        if parent is None and stack:
            parent = stack[-1]
        span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, name, start, end, parent, request,
                               threading.current_thread().name))

    def add(self, name: str, start: float, end: float, *, parent: int,
            request: int | None = None) -> None:
        """Record a span whose interval was measured elsewhere (the
        server-side ``wall_s`` of a request)."""
        if self.enabled:
            self.spans.append((next(self._ids), name, start, end, parent,
                               request, threading.current_thread().name))

    # -- analysis --------------------------------------------------------

    def self_times(self) -> dict[str, dict]:
        """Per layer: span count, total and self seconds."""
        children: dict[int, list[tuple[float, float]]] = {}
        for _id, _name, start, end, parent, _req, _thread in self.spans:
            if parent is not None:
                children.setdefault(parent, []).append((start, end))
        table: dict[str, dict] = {}
        for span_id, name, start, end, _parent, _req, _thread in self.spans:
            covered = _union_length(children.get(span_id, ()), start, end)
            row = table.setdefault(name.split(".")[0],
                                   {"spans": 0, "total_s": 0.0,
                                    "self_s": 0.0})
            row["spans"] += 1
            row["total_s"] += end - start
            row["self_s"] += (end - start) - covered
        return table

    def chrome_trace(self) -> dict:
        """The spans as Chrome trace-event JSON (complete "X" events)."""
        origin = min((span[2] for span in self.spans), default=0.0)
        threads = {name: index for index, name in enumerate(
            dict.fromkeys(span[6] for span in self.spans))}
        events = [{"name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
                   "args": {"name": thread}}
                  for thread, tid in threads.items()]
        for span_id, name, start, end, parent, request, thread in \
                self.spans:
            events.append({
                "name": name, "cat": name.split(".")[0], "ph": "X",
                "pid": 1, "tid": threads[thread],
                "ts": (start - origin) * 1e6,
                "dur": (end - start) * 1e6,
                "args": {"id": span_id, "parent": parent,
                         "request": request}})
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.chrome_trace(), handle)


def _union_length(intervals, low: float, high: float) -> float:
    """Length of the union of ``intervals`` clipped to [low, high]."""
    covered = 0.0
    reach = low
    for start, end in sorted(intervals):
        start = max(start, reach)
        end = min(end, high)
        if end > start:
            covered += end - start
            reach = end
    return covered
