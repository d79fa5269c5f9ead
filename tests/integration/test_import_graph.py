"""The transformer sits behind the cache miss.

What a program imports to run cached kernels — ``repro`` itself, the
apps, the measuring harness, the serving chain up to a worker that has
answered a request — holds nothing of the directive parser, the
rewriter or the compiler; a miss imports them on demand, in whichever
process it happens.  Each check runs in a fresh interpreter twice over
one cache directory: the first pass is the cold one.  The footprint of
``import repro`` itself is measured in an interpreter started without
``site`` (``python -S``), so that modules a start-up hook (a ``.pth``
file in site-packages) loads before the script's first line are not
counted as ``repro``'s.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from importlib.util import find_spec
from pathlib import Path

import pytest

import repro
from repro.cruntime.native import find_compiler

_TRANSFORMER = ("repro.transform.rewriter", "repro.transform.constructs",
                "repro.directives", "repro.compiler")

_PROGRAM = f"""
import json, sys
import repro.apps, repro.decorator, repro.analysis.timing, repro.serve

def transformer():
    return sorted(name for name in sys.modules
                  if name.startswith({_TRANSFORMER!r}))

report = {{"imported": transformer()}}
from repro.apps import get_app
from repro.modes import Mode
pi = get_app("pi")
variants = [pi.variant(mode) for mode in Mode]
report["cached"] = [variant.__omp_cached__ for variant in variants]
report["native"] = [list(v.__omp_native__) for v in variants]
for mode, variant in zip(Mode, variants):
    dt = mode is Mode.COMPILED_DT
    assert pi.verify(variant(threads=2, **pi.inputs("test", dt=dt)),
                     pi.sequential(**pi.inputs("test")))
report["called"] = transformer()
print(json.dumps(report))
"""

_SERVER = f"""
import json, sys, time
import repro.serve.fleet
from repro.serve import ServeServer
from repro.serve.worker import worker_entry

def transformer():
    return sorted(name for name in sys.modules
                  if name.startswith({_TRANSFORMER!r}))

def probed_worker(conn, config):
    class Probe:
        def send(self, message):
            op = message.get("op")
            if op in ("ready", "result"):
                with open(sys.argv[1], "a", encoding="utf-8") as handle:
                    handle.write(json.dumps([op, transformer()]) + "\\n")
            conn.send(message)

        def recv(self):
            return conn.recv()

    worker_entry(Probe(), config)

if __name__ == "__main__":
    repro.serve.fleet.worker_entry = probed_worker
    server = ServeServer(workers=1, queue_capacity=4, max_batch=1,
                         tenants={{"default": 2}}, job_timeout=60.0)
    server.start()
    try:
        reply = server.submit({{"app": "jacobi", "mode": "hybrid",
                               "threads": 2}})
    finally:
        server.stop()
    print(json.dumps({{"ok": reply["ok"], "verified": reply["verified"],
                      "server": transformer()}}))
"""


def _run(script: str, cache, *arguments, site: bool = True) -> dict:
    """Run ``script`` in a fresh interpreter and parse its last line.
    ``site=False`` starts it as ``python -S`` on this process's import
    path, the directory holding the imported ``repro`` first: it finds
    the same ``repro`` and NumPy, but no ``.pth`` start-up hook runs
    before the script."""
    flags, env = [], {**os.environ, "OMP4PY_CACHE": str(cache)}
    if not site:
        package_root = str(Path(repro.__file__).parents[1])
        flags.append("-S")
        env["PYTHONPATH"] = os.pathsep.join([package_root, *(
            entry for entry in sys.path if entry and entry != package_root)])
    out = subprocess.run(
        [sys.executable, *flags, "-c", script, *map(str, arguments)],
        env=env, check=True, capture_output=True, text=True, timeout=180)
    return json.loads(out.stdout.splitlines()[-1])


def test_a_program_on_a_warm_cache_never_loads_the_transformer(tmp_path):
    cold = _run(_PROGRAM, tmp_path / "cache")
    assert cold["imported"] == []
    assert cold["cached"] == [False] * 4
    assert "repro.transform.rewriter" in cold["called"]
    # CompiledDT pi binds its kernel, where there is a compiler.
    assert cold["native"] == [[], [], [], ["L4"] if find_compiler()[0]
                              else []]

    warm = _run(_PROGRAM, tmp_path / "cache")
    assert warm["cached"] == [True] * 4
    assert warm["imported"] == warm["called"] == []
    # Native kernels or interpreted loops, a hit runs what the miss built.
    assert warm["native"] == cold["native"]


def test_importing_the_package_loads_what_it_always_did(tmp_path):
    """``import repro`` and ``import repro.decorator`` stay what they
    were before there was a native tier: no loader, no ``ctypes``, no
    ``subprocess``, no ``shutil``, no NumPy.  The child starts without
    ``site``, so what a ``.pth`` start-up hook imports is not counted;
    it must still be able to find NumPy, or "no NumPy" would hold only
    because NumPy is out of its reach."""
    script = ("import json, sys, repro, repro.decorator\n"
              "loaded = sorted(name for name in sys.modules\n"
              "    if name.split('.')[0] in ('repro', 'numpy', 'ctypes',\n"
              "                              'subprocess', 'shutil'))\n"
              "import importlib.util\n"
              "print(json.dumps({'loaded': loaded, 'numpy_found':\n"
              "    importlib.util.find_spec('numpy') is not None}))\n")
    report = _run(script, tmp_path / "cache", site=False)
    assert report["loaded"] == [
        "repro", "repro.api", "repro.decorator", "repro.env",
        "repro.errors", "repro.modes", "repro.transform",
        "repro.transform.api_map"]
    if find_spec("numpy") is not None:
        assert report["numpy_found"]


def test_a_served_request_on_a_warm_cache_never_loads_it(tmp_path):
    """The same through ``repro.serve``: the fork hands a worker no
    transformer, a worker that misses imports it for itself and still
    answers verified, a worker that hits never does."""
    passes = {}
    for name in ("cold", "warm"):
        probe = tmp_path / f"{name}.jsonl"
        reply = _run(_SERVER, tmp_path / "cache", probe)
        assert reply == {"ok": True, "verified": True, "server": []}
        passes[name] = dict(
            json.loads(line) for line in
            probe.read_text(encoding="utf-8").splitlines())
    assert passes["cold"]["ready"] == []
    assert "repro.transform.rewriter" in passes["cold"]["result"]
    assert passes["warm"] == {"ready": [], "result": []}


_WORKER_STACK = ("repro.runtime", "repro.cruntime", "repro.diagnostics",
                 "repro.arming", "repro.serve.worker")

_LEAN_SERVER = f"""
import json, sys
import repro.serve.fleet
from repro.serve import ServeServer

def worker_stack():
    return sorted(name for name in sys.modules
                  if name.startswith({_WORKER_STACK!r}))

def probed_worker(conn, config):
    with open(sys.argv[1], "w", encoding="utf-8") as handle:
        json.dump(worker_stack(), handle)
    from repro.serve.worker import worker_entry
    worker_entry(conn, config)

if __name__ == "__main__":
    repro.serve.fleet.worker_entry = probed_worker
    server = ServeServer(workers=1, queue_capacity=4, max_batch=1,
                         tenants={{"default": 2}}, job_timeout=60.0)
    server.start()
    try:
        reply = server.submit({{"app": "jacobi", "mode": "hybrid",
                               "threads": 2}})
        held = worker_stack()
    finally:
        server.stop()
    print(json.dumps({{"ok": reply["ok"], "verified": reply["verified"],
                      "server": held}}))
"""


def test_only_the_workers_hold_the_worker_stack(tmp_path):
    """The server process answers a request without ever importing
    the runtimes, the watchdog, the arming or the worker module; its
    nursery imports them before the first fork, so a worker starts
    with all of them loaded, before it warms its pools."""
    probe = tmp_path / "worker.json"
    reply = _run(_LEAN_SERVER, tmp_path / "cache", probe)
    assert reply == {"ok": True, "verified": True, "server": []}
    at_entry = json.loads(probe.read_text(encoding="utf-8"))
    assert {"repro.runtime", "repro.runtime.pool", "repro.cruntime",
            "repro.diagnostics.watchdog", "repro.arming",
            "repro.serve.worker"} <= set(at_entry)


def test_the_second_runtime_brings_no_primitive_set_of_its_own(tmp_path):
    """``repro.cruntime`` is the engine over ``repro.runtime.lowlevel``
    again: nothing named ``atomics`` rides in with it."""
    script = ("import json, sys, repro.cruntime\n"
              "print(json.dumps({'atomics': sorted(\n"
              "    name for name in sys.modules if 'atomics' in name),\n"
              "    'lowlevel': sorted(name for name in sys.modules\n"
              "                       if name.endswith('lowlevel'))}))\n")
    assert _run(script, tmp_path / "cache") == {
        "atomics": [], "lowlevel": ["repro.runtime.lowlevel"]}


_NATIVE_FLEET = """
import json, os, sys, threading, time
import repro.serve.fleet, repro.serve.worker
from repro.serve import ServeServer
from repro.serve.worker import worker_entry

CACHE = os.environ["OMP4PY_CACHE"]

def kernels_mapped(pid):
    with open(f"/proc/{pid}/maps", encoding="ascii") as maps:
        return sorted({line.split()[-1] for line in maps
                       if CACHE in line and line.rstrip().endswith(".so")})

def probed_worker(conn, config):
    # The served modes are pure and hybrid; this fleet's workers run
    # every request on the app's CompiledDT variant instead.
    execute = repro.serve.worker.execute
    repro.serve.worker.execute = lambda app, mode, *rest: execute(
        app, "compileddt", *rest)
    at_fork = kernels_mapped(os.getpid())

    class Probe:
        def send(self, message):
            if message.get("op") == "result":
                from repro.apps import get_app
                from repro.modes import Mode
                variant = get_app("pi").variant(Mode.COMPILED_DT)
                with open(sys.argv[1], "a", encoding="utf-8") as handle:
                    handle.write(json.dumps({
                        "pid": os.getpid(),
                        "cached": variant.__omp_cached__,
                        "native": list(variant.__omp_native__),
                        "at_fork": at_fork,
                        "mapped": kernels_mapped(os.getpid()),
                        "nursery": kernels_mapped(os.getppid())}) + "\\n")
            conn.send(message)

        def recv(self):
            return conn.recv()

    worker_entry(Probe(), config)

def burst(server, count):
    replies = []
    clients = [threading.Thread(target=lambda: replies.append(
        server.submit({"app": "pi", "mode": "hybrid", "threads": 2})))
        for _ in range(count)]
    for client in clients:
        client.start()
    for client in clients:
        client.join(timeout=120)
    return replies

def wait_for(condition):
    deadline = time.monotonic() + 60
    while not condition() and time.monotonic() < deadline:
        time.sleep(0.02)
    assert condition()

if __name__ == "__main__":
    repro.serve.fleet.worker_entry = probed_worker
    server = ServeServer(workers=2, queue_capacity=32, max_batch=1,
                         tenants={"default": 4}, job_timeout=60.0)
    server.start()
    try:
        wait_for(lambda: server.fleet.idle_workers() == 2)
        replies = [server.submit({"app": "pi", "mode": "hybrid",
                                  "threads": 2})]
        replies += burst(server, 8)
        victim = replies[0]["worker"]
        before = server.fleet.pids()[victim]
        assert server.fleet.kill_worker(victim)
        wait_for(lambda: server.fleet.pids()[victim] not in (None, before)
                 and server.fleet.idle_workers() == 2)
        replies += burst(server, 8)
    finally:
        server.stop()
    print(json.dumps({
        "ok": all(r["ok"] and r["verified"] for r in replies),
        "replies": len(replies), "builder": before,
        "objects": sorted(name for name in os.listdir(CACHE)
                          if name.endswith(".so"))}))
"""


def test_a_fleet_builds_a_kernel_once_and_never_maps_it_in_the_nursery(
        tmp_path):
    """A CompiledDT request builds its shared object in the worker that
    meets it first; the other worker and a respawn of the builder hit
    the cache entry and run the same object; and since an object is
    opened by the first kernel call — in a worker, after the fork — the
    nursery the workers are forked from never maps one."""
    if not find_compiler()[0]:
        pytest.skip("no C compiler")
    probe = tmp_path / "results.jsonl"
    reply = _run(_NATIVE_FLEET, tmp_path / "cache", probe)
    assert reply["ok"] and reply["replies"] == 17
    (object_,) = reply["objects"]
    path = str(tmp_path / "cache" / object_)
    records = [json.loads(line) for line in
               probe.read_text(encoding="utf-8").splitlines()]
    assert len(records) == 17
    assert all(record["native"] == ["L4"] and record["mapped"] == [path]
               and record["at_fork"] == [] and record["nursery"] == []
               for record in records)
    first_by_pid = {}
    for record in records:
        first_by_pid.setdefault(record["pid"], record["cached"])
    # Two workers and the respawn: one of them built, the others hit.
    assert len(first_by_pid) == 3
    assert first_by_pid[reply["builder"]] is False
    assert sorted(first_by_pid.values()) == [False, True, True]
