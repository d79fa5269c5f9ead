"""Shared-memory data plane: registry, handles, tracker discipline."""

from __future__ import annotations

import os
from multiprocessing import resource_tracker, shared_memory

import numpy as np
import pytest

from repro.errors import OmpError
from repro.serve.shm import (
    ArrayHandle,
    AttachedArrays,
    ShmRegistry,
    attach_array,
    attach_unregister,
    leaked_segments,
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
    assert again.nbytes == 4 * 3 * 8


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


def test_creator_reattach_keeps_registration(registry):
    # The creator's own pid is embedded in the name; re-attaching from
    # the creator process must not strip the create-registration.
    handle = registry.create_array(np.zeros(64))
    shm, _view = attach_array(handle)
    try:
        assert attach_unregister(shm) is False
    finally:
        shm.close()


def test_inherited_tracker_is_left_alone(registry, monkeypatch):
    # Simulate a spawned worker: the tracker has a borrowed fd and no
    # pid of its own.  attach_unregister must refuse to touch it even
    # for a foreign-named segment.
    handle = registry.create_array(np.zeros(64))
    shm = shared_memory.SharedMemory(name=handle.segment)
    try:
        tracker = resource_tracker._resource_tracker
        monkeypatch.setattr(tracker, "_fd", 99, raising=False)
        monkeypatch.setattr(tracker, "_pid", None, raising=False)
        assert attach_unregister(shm) is False
    finally:
        shm.close()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_leaves_the_shared_tracker_alone(registry):
    # A real fork copies the tracker's fd *and* its pid, so the child
    # looks like the owner of a private tracker — and the segment's
    # name embeds the parent's pid, not the child's.  It is still the
    # parent's tracker: an unregister would strip the registration.
    handle = registry.create_array(np.zeros(64))
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            shm = shared_memory.SharedMemory(name=handle.segment)
            code = 0 if attach_unregister(shm) is False else 2
        finally:
            os._exit(code)
    assert os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 0


def test_independent_attacher_unregisters():
    # A segment whose name embeds a *different* pid looks like another
    # process's property: the attacher must drop its own tracker claim
    # so its exit does not unlink data the owner still serves.
    name = "o4pserve_test_999999_77"
    owner = shared_memory.SharedMemory(create=True, size=64, name=name)
    try:
        other = shared_memory.SharedMemory(name=name)
        try:
            assert attach_unregister(other) is True
            # This process is the creator as well: the unregister took
            # the create-registration ``owner.unlink()`` is to drop.
            resource_tracker.register(other._name, "shared_memory")
        finally:
            other.close()
    finally:
        owner.close()
        owner.unlink()
    assert name not in leaked_segments()


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
    resource_tracker.ensure_running()  # its pipe is no segment's fd
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
