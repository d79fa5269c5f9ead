"""What the ``cruntime`` is built on: the primitive set it shares with
``runtime`` (``repro.runtime.lowlevel``) and the seam between the two.

The contract classes run over every primitive set there is: one
today, and a native substrate joins ``LOWLEVELS``."""

import threading

import pytest

from repro.cruntime import cruntime
from repro.decorator import runtime_for
from repro.modes import Mode
from repro.runtime import pure_runtime
from repro.runtime.lowlevel import MutexLowLevel


LOWLEVELS = pytest.mark.parametrize("lowlevel", [MutexLowLevel()],
                                    ids=["mutex"])


def _run_threads(count, target):
    workers = [threading.Thread(target=target, args=(index,))
               for index in range(count)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(timeout=60)
    assert not any(worker.is_alive() for worker in workers)


@LOWLEVELS
class TestCounter:
    """What the schedulers and the task state machine ask of
    ``make_counter``: the ``atomic_long`` operation set."""

    def test_operations(self, lowlevel):
        counter = lowlevel.make_counter(10)
        assert counter.fetch_add(5) == 10
        assert counter.fetch_add() == 15
        assert counter.fetch_add(-16) == 16
        assert counter.load() == 0
        counter.store(5)
        assert not counter.compare_exchange(4, 9)
        assert counter.load() == 5
        assert counter.compare_exchange(5, 9)
        assert counter.load() == 9

    def test_concurrent_fetch_add_loses_nothing(self, lowlevel):
        counter = lowlevel.make_counter()

        def bump(_):
            for _ in range(2000):
                counter.fetch_add(1)

        _run_threads(8, bump)
        assert counter.load() == 16000

    def test_concurrent_compare_exchange_has_one_winner(self, lowlevel):
        counter = lowlevel.make_counter()
        winners = []

        def claim(index):
            if counter.compare_exchange(0, index + 1):
                winners.append(index + 1)

        _run_threads(16, claim)
        assert winners == [counter.load()]


@LOWLEVELS
class TestDequeImplementations:
    """Owner LIFO pop, thief FIFO steal, and no pushed entry is lost."""

    def test_owner_pop_is_lifo(self, lowlevel):
        deque_ = lowlevel.make_deque()
        for value in range(10):
            deque_.push(value)
        assert [deque_.pop() for _ in range(10)] == list(range(9, -1, -1))
        assert deque_.pop() is None
        assert not deque_

    def test_steal_is_fifo(self, lowlevel):
        deque_ = lowlevel.make_deque()
        for value in range(10):
            deque_.push(value)
        assert [deque_.steal() for _ in range(10)] == list(range(10))
        assert deque_.steal() is None

    def test_interleaved_push_pop_steal(self, lowlevel):
        deque_ = lowlevel.make_deque()
        deque_.push("a")
        deque_.push("b")
        assert deque_.steal() == "a"
        deque_.push("c")
        assert deque_.pop() == "c"
        assert deque_.pop() == "b"
        assert deque_.pop() is None
        deque_.push("d")  # reusable after emptiness
        assert deque_.steal() == "d"

    def test_concurrent_owner_and_thieves_lose_nothing(self, lowlevel):
        """One owner pushing and popping, three thieves stealing: every
        value comes out, and from the mutex deque exactly once (the
        seam only promises no loss: ``claim()`` gates execution)."""
        deque_ = lowlevel.make_deque()
        total = 3000
        taken = []
        taken_lock = threading.Lock()
        stop = threading.Event()

        def owner():
            got = []
            for value in range(total):
                deque_.push(value)
                if value % 3 == 0:
                    popped = deque_.pop()
                    if popped is not None:
                        got.append(popped)
            while (popped := deque_.pop()) is not None:
                got.append(popped)
            with taken_lock:
                taken.extend(got)
            stop.set()

        def thief():
            got = []
            while not stop.is_set():
                stolen = deque_.steal()
                if stolen is not None:
                    got.append(stolen)
            # Drain whatever the owner left behind.
            while (stolen := deque_.steal()) is not None:
                got.append(stolen)
            with taken_lock:
                taken.extend(got)

        _run_threads(4, lambda index: thief() if index else owner())
        assert sorted(taken) == list(range(total))


@LOWLEVELS
class TestSlotCreation:
    def test_single_winner_under_contention(self, lowlevel):
        table: dict = {}
        lock = lowlevel.make_mutex()
        created = []
        results = []

        def factory():
            created.append(1)
            return object()

        def contender(_):
            results.append(lowlevel.slot_get_or_create(
                table, lock, "key", factory))

        _run_threads(12, contender)
        assert len(created) == 1
        assert all(slot is table["key"] for slot in results)


class TestSeam:
    """Two independent runtimes on one primitive set."""

    def test_two_instances_of_one_engine_on_one_primitive_set(self):
        assert cruntime is not pure_runtime
        assert type(cruntime) is type(pure_runtime)
        assert (pure_runtime.name, cruntime.name) == ("runtime", "cruntime")
        assert type(cruntime.lowlevel) is type(pure_runtime.lowlevel)
        assert runtime_for(Mode.PURE) is pure_runtime
        assert all(runtime_for(mode) is cruntime
                   for mode in Mode if mode is not Mode.PURE)

    def test_a_region_on_one_leaves_the_others_pool_alone(self):
        for ran_on, other in ((pure_runtime, cruntime),
                              (cruntime, pure_runtime)):
            ran_on.parallel_run(lambda: None, num_threads=3)
            other.parallel_run(lambda: None, num_threads=3)
            before = other.pool().snapshot()
            members = []
            ran_on.parallel_run(
                lambda: members.append(threading.current_thread().name),
                num_threads=3)
            after = other.pool().snapshot()
            assert (after["spawned"], after["reused"]) == \
                (before["spawned"], before["reused"])
            helpers = [name for name in members
                       if name != threading.current_thread().name]
            assert len(helpers) == 2
            assert all(name.startswith(f"omp-{ran_on.name}-pool-")
                       for name in helpers)

    def test_a_thread_of_one_is_an_initial_thread_to_the_other(self):
        seen = []

        def member():
            seen.append((pure_runtime.get_num_threads(),
                         cruntime.get_num_threads(),
                         cruntime.in_parallel()))

        pure_runtime.parallel_run(member, num_threads=2)
        assert seen == [(2, 1, False)] * 2
