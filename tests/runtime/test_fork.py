"""The runtimes survive ``os.fork``: a child starts cold and correct.

Only the forking thread exists in a child, so a pool that still lists
the parent's parked workers hangs the first region there, and a lock a
vanished thread held stays locked.  The child of every test arms
``SIGALRM`` and so ends by that signal rather than hanging the suite.
"""

from __future__ import annotations

import os
import signal
import threading

import pytest

from repro.cruntime import cruntime
from repro.ompt.hooks import ToolHooks
from repro.runtime import pure_runtime

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"),
                                reason="needs os.fork")

CHILD_TIMEOUT_S = 20


def _team_sizes(runtime, threads: int) -> list[int]:
    seen = []
    runtime.parallel_run(
        lambda: seen.append(runtime.get_num_threads()),
        num_threads=threads)
    return seen


def _exit_status_of_fork(child) -> int:
    """Fork, run ``child()`` there, and return how the child ended:
    its exit code, or minus the signal that killed it."""
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            signal.alarm(CHILD_TIMEOUT_S)
            child()
            status = 0
        finally:
            os._exit(status)
    _, status = os.waitpid(pid, 0)
    return os.waitstatus_to_exitcode(status)


@pytest.mark.parametrize("runtime", [pure_runtime, cruntime],
                         ids=lambda runtime: runtime.name)
def test_child_runs_a_region_after_the_parent_did(runtime):
    assert _team_sizes(runtime, 3) == [3, 3, 3]
    assert runtime.pool().idle_count() >= 2  # parked: gone in a child

    def child():
        assert runtime._pool is None
        assert _team_sizes(runtime, 3) == [3, 3, 3]
        assert runtime.pool().snapshot()["spawned"] == 2

    assert _exit_status_of_fork(child) == 0
    # The parent's pool is untouched by the child's reset.
    assert _team_sizes(runtime, 3) == [3, 3, 3]


@pytest.mark.parametrize("runtime", [pure_runtime, cruntime],
                         ids=lambda runtime: runtime.name)
def test_child_drops_held_locks_and_attached_tools(runtime):
    tool = ToolHooks()
    holding, release = threading.Event(), threading.Event()

    def holder():
        runtime.critical_enter("held-at-fork")
        holding.set()
        release.wait(timeout=60)
        runtime.critical_exit("held-at-fork")

    thread = threading.Thread(target=holder)
    runtime.attach_tool(tool)
    thread.start()
    try:
        assert holding.wait(timeout=10)

        def child():
            assert runtime.tool is None
            runtime.critical_enter("held-at-fork")
            runtime.critical_exit("held-at-fork")
            assert _team_sizes(runtime, 2) == [2, 2]

        assert _exit_status_of_fork(child) == 0
    finally:
        release.set()
        thread.join(timeout=10)
        runtime.detach_tool(tool)
    assert not thread.is_alive()
    assert runtime.tool is None
