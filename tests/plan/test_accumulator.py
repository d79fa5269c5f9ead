"""The plan kernels' per-thread partial-sum rows."""

import threading

import pytest

from repro.plan import CACHE_LINE_BYTES, PaddedAccumulator


class TestPaddedAccumulator:
    def test_rows_are_cache_line_aligned(self):
        acc = PaddedAccumulator(3, width=2)
        itemsize = 8
        assert (acc._stride * itemsize) % CACHE_LINE_BYTES == 0
        assert acc._stride >= acc.width

    def test_wide_rows_round_up_to_whole_lines(self):
        per_line = CACHE_LINE_BYTES // 8
        acc = PaddedAccumulator(2, width=per_line + 1)
        assert acc._stride == 2 * per_line

    def test_add_total_reduce_reset(self):
        acc = PaddedAccumulator(4, width=2)
        for thread in range(4):
            acc.add(thread, thread + 1.0)
            acc.add(thread, 0.5, index=1)
        assert acc.total() == 10.0
        assert acc.reduce() == [10.0, 2.0]
        acc.reset()
        assert acc.reduce() == [0.0, 0.0]

    def test_set_and_get_are_per_thread(self):
        acc = PaddedAccumulator(2)
        acc.set(0, 7.0)
        acc.set(1, 11.0)
        assert acc.get(0) == 7.0
        assert acc.get(1) == 11.0

    def test_validates_arguments(self):
        with pytest.raises(ValueError):
            PaddedAccumulator(0)
        with pytest.raises(ValueError):
            PaddedAccumulator(1, width=0)

    def test_concurrent_threads_never_interfere(self):
        acc = PaddedAccumulator(8)
        iterations = 2000

        def work(thread):
            for _ in range(iterations):
                acc.add(thread, 1.0)

        workers = [threading.Thread(target=work, args=(t,))
                   for t in range(8)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        assert acc.total() == 8 * iterations
