"""Shared-memory data plane: array registry and the handle protocol.

The serving layer never pickles request arrays.  The server process
materializes every numeric input once into a
:mod:`multiprocessing.shared_memory` segment owned by a
:class:`ShmRegistry`, and jobs carry only :class:`ArrayHandle`
descriptors (segment name, dtype, shape) over the control pipe.
Workers map the segment with :func:`attach_array` — a zero-copy NumPy
view — and copy locally only when the kernel mutates its input.

Resource-tracker discipline (the satellite fix): on CPython ≤ 3.12
*attaching* a segment registers it with a ``resource_tracker`` too,
and what that does depends on whose tracker the attacher talks to:

* a **forked worker** (the fleet's, through its nursery) shares the
  server's tracker: the fd *and* the tracker pid are copied by the
  fork, so from the stdlib's fields alone it looks like a process
  with a tracker of its own.  Its attach-register is a no-op set-add —
  but an unregister would strip the *server's* registration,
  producing tracker ``KeyError`` noise at release and losing crash
  cleanup.  Workers must leave the tracker alone.  An at-fork hook
  here records that the fork happened with a tracker already running.
* a **spawned child** inherits the tracker fd as well (``_pid is
  None`` there, per CPython's own comment) and is the same case.
* an **independent process** (a client attaching by handle) gets its
  own tracker, which then believes it owns the segment: its exit
  unlinks data the server still serves and prints ``leaked
  shared_memory objects`` warnings.  There the attach must be followed
  by an immediate unregister.
* the **creator process** re-attaching its own segment must also not
  unregister, or the legitimate create-registration is lost.

:func:`attach_unregister` encodes exactly that decision (the creator
case via the owner pid embedded in every segment name) and every
attach path here applies it.  The serve test suite kills a worker
mid-request and asserts no segment leaks or vanishes
(``tests/serve/test_server.py``,
``tests/integration/test_serve_e2e.py``).
"""

from __future__ import annotations

import dataclasses
import itertools
import os
import threading
from multiprocessing import resource_tracker, shared_memory

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

    @property
    def nbytes(self) -> int:
        count = 1
        for extent in self.shape:
            count *= extent
        return count * np.dtype(self.dtype).itemsize


def _tracker_name(shm: shared_memory.SharedMemory) -> str:
    # ``SharedMemory`` registers its private ``_name`` (with the
    # leading slash on POSIX); ``.name`` strips it, so unregistering
    # must use the same spelling registration did.
    return getattr(shm, "_name", shm.name)


#: This process was forked from one whose tracker was already running.
_forked_under_tracker = False


def _note_fork() -> None:
    global _forked_under_tracker
    _forked_under_tracker = getattr(
        resource_tracker._resource_tracker, "_fd", None) is not None


os.register_at_fork(after_in_child=_note_fork)


def _tracker_is_inherited() -> bool:
    # Registering or unregistering from here mutates an ancestor's
    # bookkeeping: a forked child keeps the tracker fd it was forked
    # with; a spawned one receives it with no tracker pid of its own
    # (multiprocessing.spawn.spawn_main).
    tracker = resource_tracker._resource_tracker
    return getattr(tracker, "_fd", None) is not None \
        and (_forked_under_tracker
             or getattr(tracker, "_pid", None) is None)


def attach_unregister(shm: shared_memory.SharedMemory) -> bool:
    """Undo the attach-time tracker registration when — and only when —
    this process owns a private tracker and is not the segment's
    creator (see the module docstring).  Returns whether it did."""
    if _tracker_is_inherited():
        return False
    if f"_{os.getpid()}_" in shm.name:
        return False
    try:
        resource_tracker.unregister(_tracker_name(shm), "shared_memory")
    except Exception:  # pragma: no cover - tracker already gone
        return False
    return True


#: One counter per process, not per registry: two registries with the
#: same tag (two servers in one process) must never mint the same name.
_SEGMENT_IDS = itertools.count(1)


class ShmRegistry:
    """Server-side owner of every shared segment.

    ``create_array`` copies a NumPy array into a fresh segment and
    returns its handle; ``release``/``close_all`` unlink.  The segment
    objects are kept referenced so the mappings stay alive for the
    registry's lifetime, and names embed the owner pid plus a
    process-wide monotonic counter so a crashed run's leftovers are
    attributable.
    """

    def __init__(self, tag: str = "srv"):
        self._lock = threading.Lock()
        self._segments: dict[str, shared_memory.SharedMemory] = {}
        self._tag = tag

    def create_array(self, array: np.ndarray, *,
                     container: str = "ndarray",
                     read_only: bool = False) -> ArrayHandle:
        array = np.ascontiguousarray(array)
        name = (f"{SEGMENT_PREFIX}_{self._tag}_{os.getpid()}_"
                f"{next(_SEGMENT_IDS)}")
        shm = shared_memory.SharedMemory(
            create=True, size=max(1, array.nbytes), name=name)
        view = np.ndarray(array.shape, dtype=array.dtype, buffer=shm.buf)
        view[...] = array
        with self._lock:
            self._segments[name] = shm
        return ArrayHandle(segment=name, dtype=array.dtype.str,
                           shape=tuple(array.shape),
                           container=container, read_only=read_only)

    def create_slab(self, floats: int) -> ArrayHandle:
        """A reusable float64 response slab (see the worker protocol)."""
        return self.create_array(np.zeros(floats, dtype=np.float64),
                                 container="slab", read_only=False)

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
            return sum(shm.size for shm in self._segments.values())

    def release(self, segment: str) -> None:
        with self._lock:
            shm = self._segments.pop(segment, None)
        if shm is None:
            return
        shm.close()
        try:
            shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass

    def close_all(self) -> None:
        with self._lock:
            segments = list(self._segments)
        for segment in segments:
            self.release(segment)


class AttachedArrays:
    """Worker-side cache of mapped segments.

    One job batch touches the same input set repeatedly; the cache
    keeps each segment mapped once per worker process.  Every attach
    applies :func:`attach_unregister`, so no process's resource
    tracker ever wrongly believes it owns a server segment.
    """

    def __init__(self):
        self._attached: dict[str, shared_memory.SharedMemory] = {}

    def get(self, handle: ArrayHandle) -> np.ndarray:
        shm = self._attached.get(handle.segment)
        if shm is None:
            shm = shared_memory.SharedMemory(name=handle.segment)
            attach_unregister(shm)
            self._attached[handle.segment] = shm
        return np.ndarray(handle.shape, dtype=handle.dtype,
                          buffer=shm.buf)

    def materialize(self, handle: ArrayHandle) -> np.ndarray:
        """The kernel-facing value: zero-copy view for read-only
        fields, a private copy otherwise."""
        view = self.get(handle)
        return view if handle.read_only else view.copy()

    def drop(self, segment: str) -> None:
        shm = self._attached.pop(segment, None)
        if shm is not None:
            try:
                shm.close()
            except BufferError:  # pragma: no cover - view still alive
                pass

    def close_all(self) -> None:
        for segment in list(self._attached):
            self.drop(segment)


def attach_array(handle: ArrayHandle) -> tuple[
        shared_memory.SharedMemory, np.ndarray]:
    """Map one segment (unregister discipline applied); caller closes."""
    shm = shared_memory.SharedMemory(name=handle.segment)
    attach_unregister(shm)
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
