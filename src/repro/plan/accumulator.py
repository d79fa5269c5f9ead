"""Per-thread partial sums for plan executions.

A color of a plan runs with no synchronization, so a planned kernel
that also reduces (bfs's visited count, md's potential) gives each
thread its own slot and sums them after the join.
"""

from __future__ import annotations

from array import array

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
