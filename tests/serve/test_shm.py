"""Shared-memory data plane: registry, handles, tracker discipline."""

from __future__ import annotations

import os
from multiprocessing import shared_memory

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
    from multiprocessing import resource_tracker
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
