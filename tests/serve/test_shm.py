"""Shared-memory data plane: registry, handles, segment ownership."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import _posixshmem
import numpy as np
import pytest

import repro
from repro.errors import OmpError
from repro.serve.shm import (
    _PID_NS,
    SEGMENT_PREFIX,
    ArrayHandle,
    AttachedArrays,
    Segment,
    ShmRegistry,
    attach_array,
    leaked_segments,
    unlink,
)


@pytest.fixture
def registry():
    reg = ShmRegistry(tag="test")
    yield reg
    reg.close_all()


def test_create_view_roundtrip(registry):
    data = np.arange(257, dtype=np.float64)
    handle = registry.create_array(data)
    view = registry.view(handle)
    assert np.array_equal(view, data)
    # The view aliases the segment, not the source array.
    view[0] = -1.0
    assert registry.view(handle)[0] == -1.0
    assert data[0] == 0.0


def test_handle_wire_roundtrip():
    handle = ArrayHandle(segment="o4pserve_x", dtype="<f8",
                         shape=(4, 3), container="list",
                         read_only=True)
    again = ArrayHandle.from_wire(handle.to_wire())
    assert again == handle


def test_attach_zero_copy_vs_private_copy(registry):
    data = np.arange(128, dtype=np.float64)
    ro = registry.create_array(data, read_only=True)
    rw = registry.create_array(data, read_only=False)
    attached = AttachedArrays()
    try:
        ro_view = attached.materialize(ro)
        rw_copy = attached.materialize(rw)
        ro_view[0] = 42.0
        rw_copy[0] = 42.0
        assert registry.view(ro)[0] == 42.0  # zero-copy
        assert registry.view(rw)[0] == 0.0   # private copy
    finally:
        attached.close_all()


def test_release_unlinks_segment(registry):
    handle = registry.create_array(np.zeros(64))
    assert handle.segment in leaked_segments()
    registry.release(handle.segment)
    assert handle.segment not in leaked_segments()
    with pytest.raises(OmpError):
        registry.view(handle)


def _python_s(script: str, *arguments, **run) -> subprocess.CompletedProcess:
    """Run ``script`` under ``python -S`` on this process's import path
    (no ``.pth`` start-up hook imports anything first)."""
    package_root = str(Path(repro.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([package_root, *(
        entry for entry in sys.path if entry and entry != package_root)]))
    return subprocess.run(
        [sys.executable, "-S", "-c", textwrap.dedent(script),
         *map(str, arguments)],
        env=env, capture_output=True, text=True, timeout=60, **run)


_CREATE_ATTACH_RELEASE = """
    import json, os, sys
    import numpy as np
    from repro.serve.shm import AttachedArrays, ShmRegistry, attach_array

    registry = ShmRegistry(tag="test")
    handle = registry.create_array(np.arange(64.0))
    slab = registry.create_slab(16)
    attached = AttachedArrays()
    total = float(attached.get(handle).sum())
    attached.close_all()
    shm, view = attach_array(slab)
    del view
    shm.close()
    registry.close_all()
    children = []
    for entry in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as stat:
                parent = int(stat.read().rsplit(")", 1)[1].split()[1])
        except OSError:
            continue
        if parent == os.getpid():
            children.append(int(entry))
    print(json.dumps({"total": total, "children": children,
                      "modules": sorted(name for name in sys.modules
                                        if name.startswith("multi"))}))
"""


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads /proc")
def test_segments_start_no_process_and_no_tracker():
    """Creating, attaching and releasing segments is the registry's and
    the mapping's business alone: no helper process, no
    ``multiprocessing.resource_tracker`` (which the stdlib's
    ``SharedMemory`` starts)."""
    out = _python_s(_CREATE_ATTACH_RELEASE, check=True)
    doc = json.loads(out.stdout.splitlines()[-1])
    assert doc["total"] == sum(range(64))
    assert doc["children"] == []
    assert "multiprocessing.resource_tracker" not in doc["modules"]
    assert out.stderr == ""


def test_an_independent_attacher_leaves_the_segment(registry):
    handle = registry.create_array(np.arange(64.0), read_only=True)
    out = _python_s("""
        import sys
        from repro.serve.shm import ArrayHandle, AttachedArrays, attach_array
        handle = ArrayHandle(sys.argv[1], "<f8", (64,), read_only=True)
        shm, view = attach_array(handle)
        attached = AttachedArrays()
        print(float(view.sum()) + float(attached.get(handle)[63]))
        del view
        shm.close()
        attached.close_all()
        """, handle.segment, check=True)
    assert float(out.stdout) == sum(range(64)) + 63
    assert out.stderr == ""
    assert handle.segment in leaked_segments()
    assert registry.view(handle)[63] == 63.0


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_that_attaches_and_closes_leaves_the_segment(
        registry):
    handle = registry.create_array(np.arange(64.0))
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            attached = AttachedArrays()
            value = attached.get(handle)[7]
            attached.close_all()
            shm, view = attach_array(handle)
            value += view[8]
            del view
            shm.close()
            code = 0 if value == 15.0 else 2
        finally:
            os._exit(code)
    assert os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 0
    assert handle.segment in leaked_segments()
    assert registry.view(handle)[7] == 7.0


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_new_registry_sweeps_what_a_dead_owner_left(registry):
    """A registry whose process died without ``close_all`` leaves its
    segments; the next registry in the pid namespace unlinks them, and
    leaves those of a live owner and names it did not mint."""
    ours = registry.create_array(np.zeros(8)).segment
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            name = ShmRegistry(tag="test").create_array(np.ones(8)).segment
            os.write(write, name.encode())
        finally:
            os._exit(0)
    os.close(write)
    with os.fdopen(read, "rb") as pipe:
        theirs = pipe.read().decode()
    os.waitpid(pid, 0)
    # The dead pid again, but as another pid namespace would spell it.
    foreign = Segment(theirs.replace(f"_{_PID_NS}_", "_1_"), create_size=8)
    try:
        assert {ours, theirs, foreign.name} <= set(leaked_segments())
        ShmRegistry(tag="test")
        assert theirs not in leaked_segments()
        assert {ours, foreign.name} <= set(leaked_segments())
    finally:
        foreign.close()
        unlink(foreign.name)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_sweep_leaves_what_it_may_not_unlink(monkeypatch):
    """``/dev/shm`` is sticky: a dead owner of another user left
    segments only that user may unlink.  A new registry leaves them
    and starts all the same."""
    pid = os.fork()
    if pid == 0:
        os._exit(0)
    os.waitpid(pid, 0)
    theirs = Segment(f"{SEGMENT_PREFIX}_test_{_PID_NS}_{pid}_1",
                     create_size=8)

    def shm_unlink(name):
        raise PermissionError(1, "Operation not permitted", name)

    try:
        monkeypatch.setattr(_posixshmem, "shm_unlink", shm_unlink)
        ShmRegistry(tag="test")
        monkeypatch.undo()
        assert theirs.name in leaked_segments()
    finally:
        monkeypatch.undo()
        theirs.close()
        unlink(theirs.name)


def test_close_all_leaves_nothing(registry):
    for _ in range(3):
        registry.create_array(np.zeros(64))
    names = registry.names()
    assert len(names) == 3
    registry.close_all()
    assert registry.names() == []
    assert not set(names) & set(leaked_segments())


def test_two_registries_in_one_process_never_share_a_name():
    """Two servers in one process both use the default tag."""
    first, second = ShmRegistry(), ShmRegistry()
    try:
        one = first.create_array(np.zeros(8))
        two = second.create_array(np.ones(8))
        assert one.segment != two.segment
        assert first.view(one)[0] == 0.0 and second.view(two)[0] == 1.0
    finally:
        first.close_all()
        second.close_all()
    assert leaked_segments() == []


def _fds() -> int:
    return len(os.listdir("/proc/self/fd"))


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="counts /proc fds")
def test_attached_lru_closes_the_least_recently_used_mapping(registry):
    handles = [registry.create_array(np.full(64, float(index)))
               for index in range(4)]
    names = [handle.segment for handle in handles]
    attached = AttachedArrays()
    attached.capacity = 2
    before = _fds()
    try:
        attached.get(handles[0])
        attached.get(handles[1])
        assert attached.get(handles[0])[0] == 0.0  # a hit refreshes 0
        attached.get(handles[2])
        assert attached.names() == [names[0], names[2]]
        assert attached.evictions == 1
        # Two mappings of one fd each, whatever was mapped before.
        assert _fds() == before + 2
        # A live view defers the close of its mapping to a later miss.
        view = attached.get(handles[0])
        attached.get(handles[3])
        attached.get(handles[1])
        assert attached.names() == [names[3], names[1]]
        assert _fds() == before + 3
        assert view[5] == 0.0
        del view
        attached.get(handles[2])
        assert _fds() == before + 2
    finally:
        attached.close_all()
    assert _fds() == before


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="counts /proc fds")
def test_each_kept_segment_costs_one_fd(registry):
    """Server side (the registry's inputs and slabs) and worker side
    (the input LRU and the slab mapping) alike: ``mmap``'s duplicate is
    the only fd a kept segment holds."""
    before = _fds()
    handles = [registry.create_array(np.arange(64.0)),
               registry.create_slab(1024)]
    assert _fds() == before + 2
    attached = AttachedArrays()
    try:
        attached.get(handles[0])
        assert _fds() == before + 3
        slab_shm, slab = attach_array(handles[1])
        assert _fds() == before + 4
        del slab
        slab_shm.close()
        assert _fds() == before + 3
    finally:
        attached.close_all()
    assert _fds() == before + 2
    for handle in handles:
        registry.release(handle.segment)
    assert _fds() == before


def _rss_kib(segment: str) -> int:
    """Resident KiB of this process's mapping of ``segment``."""
    path = f"/dev/shm/{segment}"
    with open("/proc/self/smaps", encoding="utf-8",
              errors="replace") as smaps:
        inside = False
        for line in smaps:
            fields = line.split()
            if not fields:
                continue
            if "-" in fields[0] and not fields[0].endswith(":"):
                inside = fields[-1] == path
            elif inside and fields[0] == "Rss:":
                return int(fields[1])
    raise AssertionError(f"{path} is not mapped")


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads smaps")
def test_a_fresh_slab_is_not_written(registry):
    """A response slab costs no resident memory until values pass
    through it: a fresh segment already reads as zeros."""
    from repro.serve.fleet import SLAB_FLOATS
    handle = registry.create_slab(SLAB_FLOATS)
    assert (handle.shape, handle.dtype) == ((SLAB_FLOATS,), "<f8")
    assert _rss_kib(handle.segment) == 0
    assert not registry.view(handle).any()
