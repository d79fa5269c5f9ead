"""The transformer sits behind the cache miss.

What a program imports to run cached kernels — ``repro`` itself, the
apps, the measuring harness, the serving chain up to a worker that has
answered a request — holds nothing of the directive parser, the
rewriter or the compiler; a miss imports them on demand, in whichever
process it happens.  Each check runs in a fresh interpreter twice over
one cache directory: the first pass is the cold one.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

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
report["kernels"] = ["__omp_k__" in v.__omp_source__ for v in variants]
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


def _run(script: str, cache, *arguments) -> dict:
    out = subprocess.run(
        [sys.executable, "-c", script, *map(str, arguments)],
        env={**os.environ, "OMP4PY_CACHE": str(cache)},
        check=True, capture_output=True, text=True, timeout=180)
    return json.loads(out.stdout.splitlines()[-1])


def test_a_program_on_a_warm_cache_never_loads_the_transformer(tmp_path):
    cold = _run(_PROGRAM, tmp_path / "cache")
    assert cold["imported"] == []
    assert cold["cached"] == [False] * 4
    assert "repro.transform.rewriter" in cold["called"]
    assert cold["kernels"][-1]  # CompiledDT pi binds the kernel namespace

    warm = _run(_PROGRAM, tmp_path / "cache")
    assert warm["cached"] == [True] * 4
    assert warm["imported"] == warm["called"] == []
    assert warm["kernels"] == cold["kernels"]


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
