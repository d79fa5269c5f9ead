"""Shared-memory data plane: array registry and the handle protocol.

Request arrays are never pickled: the server copies each into a POSIX
shared-memory segment, jobs carry :class:`ArrayHandle` descriptors,
and workers map the segment as a zero-copy NumPy view.

Ownership: the :class:`ShmRegistry` that creates a segment is the only
one that unlinks it; every other process only maps and closes, and
none talks to a resource tracker.  A segment's name carries its
owner's pid namespace and pid, so what a dead owner left is found by
:func:`sweep`: the fleet's nursery runs it when its server dies, and
every new :class:`ShmRegistry` for owners that no longer exist.
"""

from __future__ import annotations

import collections
import dataclasses
import itertools
import mmap
import os
import re
import sys
import threading

import _posixshmem
import numpy as np

from repro.errors import OmpError

#: Segment-name prefix; :func:`leaked_segments` scans for it.
SEGMENT_PREFIX = "o4pserve"


@dataclasses.dataclass(frozen=True)
class ArrayHandle:
    """Wire descriptor of one shared array: name, dtype, shape.

    ``container`` records the Python type the app's input builder
    produced (``"list"`` inputs are still handed to kernels as NumPy
    views — the shipped kernels index, slice, and swap identically on
    both).  ``read_only`` marks fields workers may use zero-copy;
    everything else is copied out of the segment before the kernel
    runs so one request's in-place mutation (qsort sorts its input)
    cannot corrupt the cached data plane.
    """

    segment: str
    dtype: str
    shape: tuple[int, ...]
    container: str = "ndarray"
    read_only: bool = False

    def to_wire(self) -> dict:
        return {"segment": self.segment, "dtype": self.dtype,
                "shape": list(self.shape), "container": self.container,
                "read_only": self.read_only}

    @classmethod
    def from_wire(cls, doc: dict) -> "ArrayHandle":
        return cls(segment=doc["segment"], dtype=doc["dtype"],
                   shape=tuple(doc["shape"]),
                   container=doc.get("container", "ndarray"),
                   read_only=bool(doc.get("read_only", False)))


class Segment:
    """One mapped POSIX shared-memory segment; ``buf`` is its ``mmap``.

    The ``shm_open`` fd is closed as soon as the segment is mapped:
    ``mmap`` holds a duplicate of its own, which is all the mapping
    needs, so a kept segment costs one fd.
    """

    def __init__(self, name: str, create_size: int | None = None):
        create = os.O_CREAT | os.O_EXCL if create_size is not None else 0
        fd = _posixshmem.shm_open("/" + name, os.O_RDWR | create,
                                  mode=0o600)
        try:
            if create:
                os.ftruncate(fd, create_size)
            self.buf = mmap.mmap(fd, os.fstat(fd).st_size)
        except BaseException:
            if create:
                unlink(name)
            raise
        finally:
            os.close(fd)
        self.name = name

    def close(self) -> None:
        self.buf.close()


#: Every name this process mints carries it, so a ``/dev/shm`` shared
#: between pid namespaces is never swept across them.
_PID_NS = os.stat("/proc/self/ns/pid").st_ino \
    if os.path.exists("/proc/self/ns/pid") else 0

#: A name minted in this pid namespace; the group is the owner's pid.
_NAME = re.compile(rf"{SEGMENT_PREFIX}_.+_{_PID_NS}_(\d+)_\d+")

#: One counter per process, not per registry: two registries with the
#: same tag (two servers in one process) must never mint the same name.
_SEGMENT_IDS = itertools.count(1)


def _gone(pid: int) -> bool:
    # Where there is a /dev/shm to sweep there is a /proc.
    return not os.path.exists(f"/proc/{pid}")


def unlink(name: str) -> None:
    """Unlink a segment; one already gone (swept first) is no error,
    nor is another user's (a sweep's: ``/dev/shm`` is sticky)."""
    try:
        _posixshmem.shm_unlink("/" + name)
    except (FileNotFoundError, PermissionError):
        pass


def sweep(dead=_gone) -> None:
    """Unlink the segments minted in this pid namespace by an owner
    ``dead(pid)`` holds for: by default one that no longer exists (the
    nursery names its server instead, which may not be reaped yet)."""
    for name in leaked_segments():
        owner = _NAME.fullmatch(name)
        if owner and dead(int(owner[1])):
            unlink(name)


class ShmRegistry:
    """Server-side owner of every shared segment.

    ``create_array`` copies a NumPy array into a fresh segment and
    returns its handle; ``release``/``close_all`` unlink.  Names embed
    the owner pid plus a process-wide counter; a new registry first
    sweeps what dead owners left (:func:`sweep`).
    """

    def __init__(self, tag: str = "srv"):
        self._lock = threading.Lock()
        self._segments: dict[str, Segment] = {}
        self._tag = tag
        sweep()

    def _create(self, nbytes: int) -> Segment:
        name = (f"{SEGMENT_PREFIX}_{self._tag}_{_PID_NS}_{os.getpid()}_"
                f"{next(_SEGMENT_IDS)}")
        shm = Segment(name, create_size=max(1, nbytes))
        with self._lock:
            self._segments[name] = shm
        return shm

    def create_array(self, array: np.ndarray, *,
                     container: str = "ndarray",
                     read_only: bool = False) -> ArrayHandle:
        array = np.ascontiguousarray(array)
        shm = self._create(array.nbytes)
        view = np.ndarray(array.shape, dtype=array.dtype, buffer=shm.buf)
        view[...] = array
        return ArrayHandle(segment=shm.name, dtype=array.dtype.str,
                           shape=tuple(array.shape),
                           container=container, read_only=read_only)

    def create_slab(self, floats: int) -> ArrayHandle:
        """A reusable float64 response slab (see the worker protocol).

        Nothing is written: a fresh segment reads as zeros, and its
        pages are touched only when returned values pass through.
        """
        dtype = np.dtype(np.float64)
        shm = self._create(floats * dtype.itemsize)
        return ArrayHandle(segment=shm.name, dtype=dtype.str,
                           shape=(floats,), container="slab",
                           read_only=False)

    def view(self, handle: ArrayHandle) -> np.ndarray:
        with self._lock:
            shm = self._segments.get(handle.segment)
        if shm is None:
            raise OmpError(f"unknown shared segment {handle.segment!r}")
        return np.ndarray(handle.shape, dtype=handle.dtype,
                          buffer=shm.buf)

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._segments)

    def total_bytes(self) -> int:
        with self._lock:
            return sum(len(shm.buf) for shm in self._segments.values())

    def release(self, segment: str) -> None:
        with self._lock:
            shm = self._segments.pop(segment, None)
        if shm is None:
            return
        shm.close()
        unlink(segment)

    def close_all(self) -> None:
        with self._lock:
            segments = list(self._segments)
        for segment in segments:
            self.release(segment)


#: Segments one worker keeps mapped.  Each mapping holds one fd (the
#: one ``mmap`` takes), so a worker's fds stay under its start-up
#: count plus this, whatever the traffic.
ATTACH_CAPACITY = 64


class _Mapping:
    """One attached segment and the reference count its mapping has
    with no array on it.

    NumPy keeps no buffer export on what it wraps, only a reference to
    the exporter (the segment's ``mmap``), so ``close`` would succeed
    under a live view and leave it pointing at unmapped memory: a
    mapping is closed only once that count is back to what it was.
    """

    def __init__(self, shm: Segment):
        self.shm = shm
        self.idle_refs = sys.getrefcount(shm.buf)

    def try_close(self) -> bool:
        if sys.getrefcount(self.shm.buf) > self.idle_refs:
            return False
        self.shm.close()
        return True


class AttachedArrays:
    """Worker-side LRU of mapped segments.

    One job batch touches the same input set repeatedly; the cache
    keeps each segment mapped once per worker process, up to
    ``ATTACH_CAPACITY`` segments: a miss beyond that closes the least
    recently used mapping (the server unlinks segments it evicts, so
    without this a worker would keep every input set it ever saw
    alive in ``/dev/shm``).  A mapping an array still uses is closed
    on a later miss, once the array is gone.
    """

    def __init__(self):
        self.capacity = ATTACH_CAPACITY
        self.evictions = 0
        self._attached: collections.OrderedDict[str, _Mapping] = \
            collections.OrderedDict()
        self._unclosed: list[_Mapping] = []

    def get(self, handle: ArrayHandle) -> np.ndarray:
        mapping = self._attached.get(handle.segment)
        if mapping is None:
            mapping = self._attached[handle.segment] = _Mapping(
                Segment(handle.segment))
            self._trim()
        else:
            self._attached.move_to_end(handle.segment)
        return np.ndarray(handle.shape, dtype=handle.dtype,
                          buffer=mapping.shm.buf)

    def _trim(self) -> None:
        self._unclosed = [mapping for mapping in self._unclosed
                          if not mapping.try_close()]
        while len(self._attached) > self.capacity:
            _segment, mapping = self._attached.popitem(last=False)
            self.evictions += 1
            if not mapping.try_close():
                self._unclosed.append(mapping)

    def materialize(self, handle: ArrayHandle) -> np.ndarray:
        """The kernel-facing value: zero-copy view for read-only
        fields, a private copy otherwise."""
        view = self.get(handle)
        return view if handle.read_only else view.copy()

    def names(self) -> list[str]:
        """Mapped segments, least recently used first."""
        return list(self._attached)

    def close_all(self) -> None:
        self._unclosed.extend(self._attached.values())
        self._attached.clear()
        self._unclosed = [mapping for mapping in self._unclosed
                          if not mapping.try_close()]


def attach_array(handle: ArrayHandle) -> tuple[Segment, np.ndarray]:
    """Map one segment; the caller closes it."""
    shm = Segment(handle.segment)
    view = np.ndarray(handle.shape, dtype=handle.dtype, buffer=shm.buf)
    return shm, view


def leaked_segments(prefix: str = SEGMENT_PREFIX) -> list[str]:
    """Serving segments still present on the host (POSIX: /dev/shm).

    The leak regression tests call this after shutdown; on platforms
    without /dev/shm it degrades to "cannot tell" (empty list).
    """
    shm_dir = "/dev/shm"
    if not os.path.isdir(shm_dir):  # pragma: no cover - non-POSIX
        return []
    return sorted(entry for entry in os.listdir(shm_dir)
                  if entry.startswith(prefix))
