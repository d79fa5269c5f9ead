"""Worksharing constructs: loop scheduling, sections, and single.

The generated code drives loops through three functions, following the
paper's Fig. 3: ``for_bounds`` captures the range triplets (all of them,
when ``collapse`` merges nested loops), ``for_init`` prepares the
schedule and registers the shared slot when one is needed, and
``for_next`` hands out chunks by mutating positions 0 and 1 of the
bounds array.  ``__omp_bounds`` is private to each thread; only the
chunk counter inside the shared slot is team-visible.

Static scheduling is computed locally with no shared state (the paper's
stated performance advantage); dynamic uses ``fetch_add`` on the shared
counter; guided uses a ``compare_exchange`` retry loop, so a counter
backed by a real atomic would run it lock-free.
"""

from __future__ import annotations

import threading

from repro.errors import OmpRuntimeError
from repro.runtime.team import BACKOFF_MIN, next_backoff, park


def trip_count(start: int, stop: int, step: int) -> int:
    """Number of iterations of ``range(start, stop, step)``."""
    if step == 0:
        raise OmpRuntimeError("loop step must not be zero")
    if step > 0:
        span = stop - start
        return (span + step - 1) // step if span > 0 else 0
    span = start - stop
    return (span - step - 1) // (-step) if span > 0 else 0


class LoopSlot:
    """Shared state of one worksharing-loop instance."""

    __slots__ = ("counter", "ordered_next", "ordered_holder",
                 "ordered_cond")

    def __init__(self, lowlevel):
        self.counter = lowlevel.make_counter(0)
        self.ordered_next = 0
        #: Team thread number inside the ordered region right now, else
        #: ``None`` — who a thread waiting for its turn is waiting for.
        self.ordered_holder = None
        self.ordered_cond = threading.Condition()


class LoopInfo:
    """Per-thread state of a worksharing loop (slot 2 of the bounds)."""

    __slots__ = ("triplets", "trips", "total", "kind", "chunk", "ordered",
                 "nowait", "slot", "team", "thread_num", "static_index",
                 "is_last", "done", "inner_trips")

    def __init__(self, triplets):
        self.triplets = triplets
        self.trips = [trip_count(*t) for t in triplets]
        self.total = 1
        for trips in self.trips:
            self.total *= trips
        #: Product of the trip counts of loops 1..n-1; used by the
        #: generated divmod index-recovery code for ``collapse``.
        self.inner_trips = self.total // self.trips[0] if self.trips and \
            self.trips[0] else 0
        self.kind = "static"
        self.chunk = None
        self.ordered = False
        self.nowait = False
        self.slot = None
        self.team = None
        self.thread_num = 0
        self.static_index = 0
        self.is_last = False
        self.done = False

    @property
    def collapsed(self) -> bool:
        return len(self.triplets) > 1


def make_bounds(triplet_values) -> list:
    """``for_bounds``: build the bounds array from flat triplet values."""
    values = list(triplet_values)
    if len(values) % 3 != 0 or not values:
        raise OmpRuntimeError("for_bounds expects start/stop/step triplets")
    triplets = [tuple(values[i:i + 3]) for i in range(0, len(values), 3)]
    return [0, 0, LoopInfo(triplets)]


def init_loop(runtime, bounds, kind, chunk, ordered, nowait) -> None:
    """``for_init``: bind the schedule and create shared state."""
    info: LoopInfo = bounds[2]
    frame = runtime.current_frame()
    team = frame.team
    info.team = team
    info.thread_num = frame.thread_num

    if kind == "runtime":
        kind, icv_chunk = runtime.get_schedule()
        if chunk is None:
            chunk = icv_chunk
    if kind == "auto":
        kind = "static"
    if chunk is not None and chunk <= 0:
        raise OmpRuntimeError("schedule chunk size must be positive")
    info.kind = kind
    info.chunk = chunk
    info.ordered = ordered
    info.nowait = nowait

    needs_slot = kind in ("dynamic", "guided") or ordered
    if needs_slot:
        key = ("loop", frame.ws_counter)
        info.slot = team.get_slot(key, lambda: LoopSlot(runtime.lowlevel))
    frame.ws_counter += 1


def next_chunk(bounds) -> bool:
    """``for_next``: hand the thread its next chunk, if any."""
    info: LoopInfo = bounds[2]
    if info.done:
        return False
    if info.kind == "static":
        chunk = _next_static(info)
    elif info.kind == "dynamic":
        chunk = _next_dynamic(info)
    elif info.kind == "guided":
        chunk = _next_guided(info)
    else:  # pragma: no cover - for_init normalised the kind already
        raise OmpRuntimeError(f"unknown schedule kind {info.kind!r}")
    if chunk is None:
        info.done = True
        return False
    low, high = chunk
    if high >= info.total:
        info.is_last = True
    if info.collapsed:
        bounds[0] = low
        bounds[1] = high
    else:
        start, _stop, step = info.triplets[0]
        bounds[0] = start + low * step
        bounds[1] = start + high * step
    return True


def _next_static(info: LoopInfo):
    size = info.team.size
    rank = info.thread_num
    if info.chunk is None:
        # One balanced block per thread.
        if info.static_index > 0:
            return None
        info.static_index = 1
        base, extra = divmod(info.total, size)
        low = rank * base + min(rank, extra)
        high = low + base + (1 if rank < extra else 0)
        return (low, high) if high > low else None
    # Round-robin chunks: thread t owns chunks t, t+T, t+2T, ...
    chunk = info.chunk
    index = rank + info.static_index * size
    info.static_index += 1
    low = index * chunk
    if low >= info.total:
        return None
    return low, min(low + chunk, info.total)


def _next_dynamic(info: LoopInfo):
    chunk = info.chunk or 1
    low = info.slot.counter.fetch_add(chunk)
    if low >= info.total:
        return None
    return low, min(low + chunk, info.total)


def _next_guided(info: LoopInfo):
    counter = info.slot.counter
    minimum = info.chunk or 1
    nthreads = info.team.size
    while True:
        low = counter.load()
        remaining = info.total - low
        if remaining <= 0:
            return None
        # Guided decay: remaining/(2T) rounds to zero once the tail
        # drops below twice the team size; a zero-sized claim would
        # spin the CAS retry loop forever without making progress, so
        # the chunk is clamped to the user chunk floor and never below
        # one iteration.
        size = max(1, minimum, remaining // (2 * nthreads))
        size = min(size, remaining)
        # CAS retry loop: a lost race recomputes the decayed size.
        if counter.compare_exchange(low, low + size):
            return low, low + size


def loop_is_last(bounds) -> bool:
    """``for_last``: did this thread execute the sequentially last
    iteration (for ``lastprivate`` write-back)?"""
    return bounds[2].is_last


def ordered_start(bounds, linear_index: int, tool=None) -> None:
    """Block until it is this iteration's turn in the ordered region."""
    info: LoopInfo = bounds[2]
    slot: LoopSlot = info.slot
    if slot is None:
        raise OmpRuntimeError(
            "ordered region requires a loop with the ordered clause")
    team = info.team
    with slot.ordered_cond:
        backoff = BACKOFF_MIN
        while slot.ordered_next != linear_index:
            if team is not None and team.broken:
                return  # a peer died; the region is being torn down
            # ordered_end notifies the condition; the timeout is the
            # bounded-backoff breakage check only (record_error cannot
            # reach per-slot condition variables).
            park(tool, info.thread_num, slot, slot.ordered_cond.wait,
                 backoff)
            backoff = next_backoff(backoff)
        slot.ordered_holder = info.thread_num


def ordered_end(bounds, linear_index: int) -> None:
    slot: LoopSlot = bounds[2].slot
    with slot.ordered_cond:
        slot.ordered_holder = None
        slot.ordered_next = linear_index + 1
        slot.ordered_cond.notify_all()


def linear_index(bounds, value) -> int:
    """Map an ordered-construct index to its 0-based position in the
    loop's (possibly collapsed) iteration space.

    Three forms, by loop shape and argument type:

    * single loop, integer ``value`` — the loop-variable value, mapped
      through the triplet;
    * collapsed loop, integer ``value`` — the linearized iteration
      number the generated driver iterates directly (the transformer
      recovers the per-level variables from it with divmod), which *is*
      the position: identity;
    * collapsed loop, tuple ``value`` — per-level loop-variable values,
      delegated to :func:`collapsed_index` (the hand-driven runtime-API
      form).

    Mapping a collapsed value through ``triplets[0]`` — what this
    function did before it was collapse-aware — ordered iterations by a
    number computed from the wrong triplet (negative or colliding
    whenever the outer loop does not start at 0 with step 1).
    """
    info: LoopInfo = bounds[2]
    if info.collapsed:
        if isinstance(value, tuple):
            return collapsed_index(bounds, value)
        return value
    start, _stop, step = info.triplets[0]
    return (value - start) // step


def collapsed_index(bounds, values) -> int:
    """Linear iteration number of one point of a collapsed space.

    ``values`` holds the loop-variable values, outermost first.  Each
    level contributes its 0-based iteration count times the product of
    the trip counts of the levels below it — the inverse of the
    generated divmod recovery (``LoopInfo.inner_trips`` is that product
    for level 0).
    """
    info: LoopInfo = bounds[2]
    if len(values) != len(info.triplets):
        raise OmpRuntimeError(
            f"collapsed ordered index needs {len(info.triplets)} loop "
            f"values, got {len(values)}")
    linear = 0
    weight = info.total
    for (start, _stop, step), trips, value in zip(
            info.triplets, info.trips, values):
        if trips == 0:
            return 0  # empty iteration space; the loop body never runs
        weight //= trips
        linear += ((value - start) // step) * weight
    return linear


class SectionsState:
    """Per-thread view of a sections (or single) instance."""

    __slots__ = ("slot", "count", "selected", "executed_last", "team")

    def __init__(self, slot, count: int, team=None):
        self.slot = slot
        self.count = count
        self.selected = False
        self.executed_last = False
        self.team = team


class SharedSlot:
    """Shared counter + copyprivate broadcast cell for sections/single."""

    __slots__ = ("counter", "payload", "payload_event")

    def __init__(self, lowlevel):
        self.counter = lowlevel.make_counter(0)
        self.payload = None
        self.payload_event = lowlevel.make_event()


def sections_begin(runtime, count: int) -> SectionsState:
    frame = runtime.current_frame()
    key = ("sections", frame.ws_counter)
    frame.ws_counter += 1
    slot = frame.team.get_slot(key, lambda: SharedSlot(runtime.lowlevel))
    return SectionsState(slot, count, team=frame.team)


def sections_next(state: SectionsState) -> int:
    """Claim the next unexecuted section id, or -1 when exhausted."""
    section = state.slot.counter.fetch_add(1)
    if section >= state.count:
        return -1
    if section == state.count - 1:
        state.executed_last = True
    team = state.team
    if team is not None:
        tool = team.runtime.tool
        if tool is not None:
            tool.work(team.runtime.get_thread_num(), "sections",
                      section, section + 1)
    return section


def single_begin(runtime) -> SectionsState:
    state = sections_begin(runtime, 1)
    state.selected = state.slot.counter.fetch_add(1) == 0
    if state.selected:
        tool = runtime.tool
        if tool is not None:
            tool.work(runtime.get_thread_num(), "single", 0, 1)
    return state


def copyprivate_set(state: SectionsState, payload) -> None:
    state.slot.payload = payload
    state.slot.payload_event.set()


def copyprivate_get(state: SectionsState, tool=None, thread_num: int = 0):
    team = state.team
    slot = state.slot
    backoff = BACKOFF_MIN
    # copyprivate_set sets the event; the timeout is the bounded-backoff
    # breakage check only (the publisher may have died without setting).
    while not slot.payload_event.is_set():
        if team is not None and team.broken:
            return None  # the publishing thread died
        park(tool, thread_num, slot, slot.payload_event.wait, backoff)
        backoff = next_backoff(backoff)
    return slot.payload
