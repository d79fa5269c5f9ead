"""The flight recorder: last-N events per thread, always cheap.

A :class:`FlightRecorder` is a :class:`~repro.ompt.hooks.ToolHooks`
implementation that keeps a fixed-size ring buffer of sync/work events
*per thread*.  It rides the existing tool dispatch points, so arming it
costs exactly what any tool costs (one attribute read per event site
when detached), and recording is lock-free: each ring is only ever
written by the thread it belongs to (callbacks run inline), the ring
slot store and index bump are plain operations under the GIL, and
readers (:meth:`dump`) tolerate the one-event tear a concurrent wrap
can produce.

Unlike the tracer (one bounded global buffer, meant for offline
profiles), the flight recorder never fills up and never locks: it is
meant to be flown *always*, so that when a process hangs or faults the
last few hundred events of every thread are there to dump — via the
watchdog report, the SIGUSR1 handler, or
``FlightRecorder.dump()``/``format_text()`` directly.
"""

from __future__ import annotations

import threading
import time

from repro.ompt.hooks import ToolHooks

DEFAULT_CAPACITY = 256


class _Ring:
    """Fixed-size single-writer event ring."""

    __slots__ = ("slots", "index", "capacity", "name")

    def __init__(self, capacity: int, name: str):
        self.slots = [None] * capacity
        self.index = 0
        self.capacity = capacity
        self.name = name

    def append(self, event: tuple) -> None:
        self.slots[self.index % self.capacity] = event
        self.index += 1

    def snapshot(self) -> list[tuple]:
        """Events oldest-first (racy-safe: reads a torn slot as-is)."""
        index = self.index
        capacity = self.capacity
        if index <= capacity:
            events = self.slots[:index]
        else:
            cut = index % capacity
            events = self.slots[cut:] + self.slots[:cut]
        return [event for event in events if event is not None]


class FlightRecorder(ToolHooks):
    """Per-thread ring buffers fed from the tool dispatch points."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity < 1:
            raise ValueError("flight recorder capacity must be >= 1")
        self.capacity = capacity
        self._rings: dict[int, _Ring] = {}

    # -- recording (hot path) --------------------------------------------

    def _note(self, kind: str, *detail) -> None:
        ident = threading.get_ident()
        ring = self._rings.get(ident)
        if ring is None:
            ring = _Ring(self.capacity, threading.current_thread().name)
            self._rings[ident] = ring
        ring.append((time.perf_counter(), kind, detail))

    def thread_begin(self, ttype, ident):
        self._note("thread_begin", ttype)

    def thread_end(self, ttype, ident):
        self._note("thread_end", ttype)

    def thread_idle(self, ident, endpoint):
        # "idle_begin" as a thread's last ring event reads as "parked
        # in the pool, not stuck" in a hang dump.
        self._note(f"idle_{endpoint}")

    def parallel_begin(self, thread, team_size):
        self._note("parallel_begin", thread, team_size)

    def parallel_end(self, thread, team_size):
        self._note("parallel_end", thread, team_size)

    def implicit_task(self, thread, endpoint, team_size):
        self._note("implicit_task", thread, endpoint)

    def loop(self, thread, endpoint):
        self._note(f"loop_{endpoint}", thread)

    def work(self, thread, wstype, low, high):
        self._note("work", thread, wstype, low, high)

    def task_create(self, thread, task_id):
        self._note("task_create", thread, task_id)

    def task_dependences(self, thread, task_id, predecessors):
        self._note("task_deferred", thread, task_id,
                   [id(task) for task in predecessors])

    def task_schedule(self, thread, task_id):
        self._note("task_start", thread, task_id)

    def task_steal(self, thread, task_id, victim):
        self._note("task_steal", thread, task_id, victim)

    def task_complete(self, thread, task_id):
        self._note("task_finish", thread, task_id)

    def sync_region(self, thread, kind, endpoint, wait_time):
        self._note(f"{kind}_{endpoint}", thread,
                   round(wait_time, 6) if wait_time is not None else None)

    def wait(self, thread, endpoint, target):
        # "wait_begin" as a thread's last ring event is the sleep it
        # never woke from; the ids are those of the doctor's wait-for
        # graph (barrier, task) or of the raw mutex.
        if isinstance(target, list):  # taskwait: the unfinished children
            self._note(f"wait_{endpoint}", thread, "tasks",
                       [id(task) for task in target])
        else:
            self._note(f"wait_{endpoint}", thread,
                       type(target).__name__, id(target))

    def mutex_acquire(self, thread, kind, handle):
        self._note("mutex_wait", thread, kind, _handle_repr(handle))

    def mutex_acquired(self, thread, kind, handle, wait_time):
        self._note("mutex_acquired", thread, kind, _handle_repr(handle),
                   round(wait_time, 6))

    def mutex_released(self, thread, kind, handle):
        self._note("mutex_released", thread, kind, _handle_repr(handle))

    # -- dumping -----------------------------------------------------------

    def dump(self, tail: int | None = None) -> dict:
        """``{ident: {"thread": name, "events": [...]}}``, each event a
        ``{"t": seconds, "kind": ..., "detail": [...]}`` dict, oldest
        first, optionally truncated to the last ``tail`` events."""
        out = {}
        for ident, ring in list(self._rings.items()):
            events = ring.snapshot()
            if tail is not None:
                events = events[-tail:]
            out[ident] = {
                "thread": ring.name,
                "events": [{"t": round(ts, 6), "kind": kind,
                            "detail": list(detail)}
                           for ts, kind, detail in events],
            }
        return out

    def format_text(self, tail: int = 12) -> str:
        """Human-readable tail of every ring, for stderr dumps."""
        lines = ["flight recorder (last events per thread):"]
        for ident, ring in sorted(self._rings.items()):
            events = ring.snapshot()[-tail:]
            lines.append(f"  [{ring.name} ident {ident}]")
            if not events:
                lines.append("    (no events)")
            for ts, kind, detail in events:
                detail_text = " ".join(str(part) for part in detail)
                lines.append(f"    {ts:.6f} {kind} {detail_text}".rstrip())
        return "\n".join(lines)

    def clear(self) -> None:
        self._rings.clear()


def _handle_repr(handle):
    return handle if isinstance(handle, (str, int)) else repr(handle)
