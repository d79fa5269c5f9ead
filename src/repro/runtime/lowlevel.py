"""Low-level primitives under both runtimes.

This module is the *interface* that separates the shared runtime logic
from the primitives a faster substrate may replace — the Python
analogue of the paper's ``.pxd`` declaration files.  The one
implementation here coordinates through mutexes (``threading.Lock``),
and both :data:`repro.runtime.pure_runtime` and
:data:`repro.cruntime.cruntime` run on it.  The paper's ``cruntime``
overrides exactly this set — dynamic-schedule counters, task deques,
shared-slot creation, events — with C atomics; a native substrate
plugs in here as a second class with the same methods, and nothing
above this module changes.

Interface (duck-typed, no ABC overhead on hot paths):

* ``make_mutex()`` / ``make_event()`` — basic primitives.
* ``make_counter(initial)`` — object with ``load``, ``store``,
  ``fetch_add(delta) -> old`` and ``compare_exchange(expected, desired)
  -> bool``.
* ``make_deque()`` — a work-stealing deque with ``push(node)`` (owner),
  ``pop() -> node | None`` (owner, LIFO), ``steal() -> node | None``
  (any thread, FIFO) and an advisory ``__bool__`` (see
  :mod:`repro.runtime.tasking`).  Deques may hand the same node to an
  owner and a thief under races; the task-state ``claim()`` CAS is the
  execution gate, so the only hard guarantee a deque must provide is
  that no pushed node is *lost*.
* ``slot_get_or_create(table, lock, key, factory)`` — shared-slot
  creation for worksharing constructs.
"""

from __future__ import annotations

import threading
from collections import deque


class MutexCounter:
    """Shared counter protected by a mutex.

    The operation set is that of a C ``atomic_long``, so the scheduler
    and tasking logic are written once against this interface.
    """

    __slots__ = ("_value", "_lock")

    def __init__(self, value: int = 0):
        self._value = value
        self._lock = threading.Lock()

    def load(self) -> int:
        return self._value

    def store(self, value: int) -> None:
        with self._lock:
            self._value = value

    def fetch_add(self, delta: int = 1) -> int:
        with self._lock:
            old = self._value
            self._value = old + delta
            return old

    def compare_exchange(self, expected: int, desired: int) -> bool:
        with self._lock:
            if self._value == expected:
                self._value = desired
                return True
            return False


class MutexDeque:
    """Work-stealing deque serialised by a mutex.

    The owner pushes and pops at the right end (LIFO, the recursive
    decomposition order qsort/bfs want); thieves take from the left end
    (FIFO, the oldest — typically largest — subproblem).
    """

    __slots__ = ("_items", "_lock")

    def __init__(self):
        self._items = deque()
        self._lock = threading.Lock()

    def push(self, node) -> None:
        with self._lock:
            self._items.append(node)

    def pop(self):
        with self._lock:
            return self._items.pop() if self._items else None

    def steal(self):
        with self._lock:
            return self._items.popleft() if self._items else None

    def __bool__(self) -> bool:
        # Advisory: racy readers only use this to decide whether another
        # claim attempt is worth making before sleeping.
        return bool(self._items)

    def snapshot(self) -> list:
        """Advisory copy of the queued nodes, oldest (steal end) first —
        read by the stall watchdog to show unclaimed work; never part of
        the owner/thief protocol."""
        with self._lock:
            return list(self._items)


class MutexLowLevel:
    """The mutex-based primitive set."""

    @staticmethod
    def make_mutex():
        return threading.Lock()

    @staticmethod
    def make_event():
        return threading.Event()

    @staticmethod
    def make_counter(initial: int = 0):
        return MutexCounter(initial)

    @staticmethod
    def make_deque():
        return MutexDeque()

    @staticmethod
    def slot_get_or_create(table: dict, lock, key, factory):
        """First arrival creates the shared slot, under the table lock."""
        slot = table.get(key)
        if slot is not None:
            return slot
        with lock:
            slot = table.get(key)
            if slot is None:
                slot = factory()
                table[key] = slot
            return slot
