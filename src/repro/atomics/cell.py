"""Lock-striped emulation of C ``stdatomic`` cells.

``AtomicLong`` mirrors ``atomic_long``; ``AtomicRef`` mirrors
``_Atomic(void *)``.  Both hash onto one of ``_NUM_STRIPES`` pre-created
locks, so cells are independent (operations on different cells contend
only on hash collisions) and allocation-free after import.
"""

from __future__ import annotations

import os
import threading
from array import array

_NUM_STRIPES = 64
_STRIPES = tuple(threading.Lock() for _ in range(_NUM_STRIPES))
_COUNTER = iter(range(10**18))
_COUNTER_LOCK = threading.Lock()


def _reinit_after_fork() -> None:
    # Cells keep their stripe for life, so the locks are re-initialised
    # in place: one a vanished thread held at the fork would otherwise
    # stay locked in the child.
    for lock in (*_STRIPES, _COUNTER_LOCK):
        lock._at_fork_reinit()


os.register_at_fork(after_in_child=_reinit_after_fork)


def _next_stripe() -> threading.Lock:
    with _COUNTER_LOCK:
        index = next(_COUNTER)
    return _STRIPES[index % _NUM_STRIPES]


class AtomicLong:
    """An integer cell with the C ``stdatomic`` operation set."""

    __slots__ = ("_value", "_lock")

    def __init__(self, value: int = 0):
        self._value = value
        self._lock = _next_stripe()

    def load(self) -> int:
        return self._value

    def store(self, value: int) -> None:
        with self._lock:
            self._value = value

    def swap(self, value: int) -> int:
        with self._lock:
            old = self._value
            self._value = value
            return old

    def fetch_add(self, delta: int = 1) -> int:
        """Atomically add ``delta``; return the *previous* value."""
        with self._lock:
            old = self._value
            self._value = old + delta
            return old

    def compare_exchange(self, expected: int, desired: int) -> bool:
        """CAS: install ``desired`` iff the cell holds ``expected``."""
        with self._lock:
            if self._value == expected:
                self._value = desired
                return True
            return False


class AtomicRef:
    """An object-reference cell with ``swap``/``compare_exchange``.

    Comparison is by identity (``is``), matching pointer CAS semantics.
    """

    __slots__ = ("_value", "_lock")

    def __init__(self, value=None):
        self._value = value
        self._lock = _next_stripe()

    def load(self):
        return self._value

    def store(self, value) -> None:
        with self._lock:
            self._value = value

    def swap(self, value):
        with self._lock:
            old = self._value
            self._value = value
            return old

    def compare_exchange(self, expected, desired) -> bool:
        with self._lock:
            if self._value is expected:
                self._value = desired
                return True
            return False


#: Assumed cache-line size for accumulator padding.
CACHE_LINE_BYTES = 64


class PaddedAccumulator:
    """Per-thread accumulation slots padded to cache-line stride.

    One contiguous ``array('d')`` buffer holds ``width`` float slots
    per thread, with each thread's row rounded up to a whole number of
    cache lines — the PyOP2 padding trick: on a free-threaded build two
    threads' accumulations never share a line, so the plan executor's
    lock-free partial sums don't false-share; under the GIL it is
    simply an allocation-free per-thread scratch row.  ``add``/``get``
    on distinct threads' rows need no synchronization; ``reduce`` is
    for the serial epilogue after the team joined.
    """

    __slots__ = ("nthreads", "width", "_stride", "_data")

    def __init__(self, nthreads: int, width: int = 1):
        if nthreads < 1 or width < 1:
            raise ValueError("PaddedAccumulator needs nthreads >= 1 "
                             "and width >= 1")
        self.nthreads = nthreads
        self.width = width
        itemsize = array("d").itemsize
        per_line = max(1, CACHE_LINE_BYTES // itemsize)
        self._stride = ((width + per_line - 1) // per_line) * per_line
        self._data = array("d", bytes(8 * self._stride * nthreads))

    def add(self, thread: int, value: float, index: int = 0) -> None:
        """Accumulate into ``thread``'s slot ``index`` (unsynchronized:
        only ``thread`` itself may call this during a region)."""
        self._data[thread * self._stride + index] += value

    def set(self, thread: int, value: float, index: int = 0) -> None:
        self._data[thread * self._stride + index] = value

    def get(self, thread: int, index: int = 0) -> float:
        return self._data[thread * self._stride + index]

    def total(self, index: int = 0) -> float:
        """Sum of slot ``index`` across every thread (serial epilogue)."""
        data, stride = self._data, self._stride
        return sum(data[thread * stride + index]
                   for thread in range(self.nthreads))

    def reduce(self) -> list[float]:
        """Across-thread sums of all ``width`` slots (serial epilogue)."""
        return [self.total(index) for index in range(self.width)]

    def reset(self) -> None:
        """Zero every slot (serial; between plan executions)."""
        for position in range(len(self._data)):
            self._data[position] = 0.0


def cas_attr(obj, name: str, expected, desired) -> bool:
    """Compare-exchange on an object attribute (identity comparison).

    Emulates a pointer CAS on a struct field — the operation the paper's
    cruntime uses to link task nodes without locking.  The stripe lock is
    selected by the object's identity, so unrelated CAS sites do not
    contend.
    """
    lock = _STRIPES[id(obj) % _NUM_STRIPES]
    with lock:
        if getattr(obj, name) is expected:
            setattr(obj, name, desired)
            return True
        return False


def atomic_setdefault(table: dict, key, value):
    """Atomic-swap-style slot creation in a shared table.

    ``dict.setdefault`` is a single C-level operation under the GIL: the
    first caller installs its value, every later caller gets the winner
    and discards its own — exactly the paper's "counter creation is done
    with an atomic swap" protocol.
    """
    return table.setdefault(key, value)
