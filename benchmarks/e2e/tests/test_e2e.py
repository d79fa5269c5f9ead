"""Self-tests of the benchmark (``pytest benchmarks/e2e/tests``).

Not part of the repository's tier-1 suite: they start servers and run
the benchmark's quick mode, a few seconds each.
"""

from __future__ import annotations

import json
import os
import pathlib
import random
import signal
import subprocess
import sys
import time

import pytest

E2E = pathlib.Path(__file__).resolve().parents[1]
ROOT = E2E.parents[1]
sys.path[0:0] = [str(E2E.parent), str(ROOT / "src")]

from e2e import compare, serving  # noqa: E402
from e2e.workloads import WORKLOADS  # noqa: E402
from repro.serve.shm import leaked_segments  # noqa: E402

SPEC = compare.load_spec()
RUN = [sys.executable, str(E2E / "run.py")]


def _left_behind() -> dict:
    """Processes this (orphan-adopting) process has become the parent
    of: what a benchmark run or a server it waited for left running or
    unreaped, the way the driver sees it."""
    deadline = time.monotonic() + 2
    while not serving._children() and time.monotonic() < deadline:
        time.sleep(0.1)  # an orphan takes a moment to show up
    return serving._children()


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"),
                                            (1, "per_layer")])
def test_quick_prints_exactly_the_declared_metrics(trace, section):
    begin = time.perf_counter()
    serving.adopt_orphans()
    done = subprocess.run(
        RUN + ["--workload", "finegrain", "--seed", "4", "--quick",
               "--trace", str(trace)],
        capture_output=True, text=True, timeout=120)
    elapsed = time.perf_counter() - begin
    assert done.returncode == 0, done.stderr
    assert _left_behind() == {}
    assert elapsed < 15
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == declared
    # The human-readable table names every metric too.
    for name in declared:
        assert any(line.startswith(name + " ")
                   for line in done.stdout.splitlines())


def test_spec_lists_every_workload_with_its_reason():
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == \
        {w.name: w.why for w in WORKLOADS.values()}


def test_seed_decides_inputs_and_request_order():
    workload = WORKLOADS["irregular"]

    def qsort_data(seed):
        return next(term for term in workload.terms(seed, quick=True)
                    if term.name == "qsort").inputs["data"]
    assert qsort_data(1) == qsort_data(1)
    assert qsort_data(1) != qsort_data(2)

    def order(seed):
        return [doc["app"] for doc in workload.requests(seed, 2, 40)]
    assert order(1) == order(1)
    assert order(1) != order(2)
    # Every window holds the same work whatever the seed.
    assert sorted(order(1)[:40]) == sorted(order(2)[40:])


def test_firstcall_requests_never_repeat_an_input():
    docs = WORKLOADS["firstcall"].requests(3, 4, 50)
    keys = {(doc["app"], doc["overrides"]["seed"]) for doc in docs}
    assert len(keys) == len(docs)


#: Metrics of the shape ``compare.judge`` reads, one of each direction
#: (the real file's list changes when a metric is demoted; what is
#: tested here is the judging).
JUDGED = [
    {"name": "time_s", "unit": "s", "better": "lower", "bound": 0.06},
    {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.10}]


def _synthetic(scale: float = 1.0, only: str | None = None) -> dict:
    rng = random.Random(7)
    samples = {}
    for index, metric in enumerate(JUDGED):
        factor = scale if only in (None, metric["name"]) else 1.0
        samples[metric["name"]] = [
            (index + 1) * factor * (1 + rng.uniform(-0.01, 0.01))
            for _ in range(5)]
    return samples


def test_compare_passes_aa_and_flags_a_slowdown():
    _rows, failures = compare.judge(JUDGED, _synthetic(), _synthetic(),
                                    same_code=True)
    assert failures == []
    # A slowdown well past the bound is flagged, on that metric only ...
    _rows, failures = compare.judge(
        JUDGED, _synthetic(), _synthetic(1.20, only="time_s"),
        same_code=False)
    assert len(failures) == 1 and failures[0].startswith("time_s:")
    # ... one inside it is not.
    _rows, failures = compare.judge(
        JUDGED, _synthetic(), _synthetic(1.03, only="time_s"),
        same_code=False)
    assert failures == []
    # Throughput is better when higher: a drop is the regression ...
    _rows, failures = compare.judge(
        JUDGED, _synthetic(), _synthetic(0.80, only="rate"),
        same_code=False)
    assert len(failures) == 1 and failures[0].startswith("rate:")
    # ... and a gain of the same size is none when B is a change,
    # but is a disagreement when B is a rerun of the same code.
    _rows, failures = compare.judge(
        JUDGED, _synthetic(), _synthetic(1.20, only="rate"),
        same_code=False)
    assert failures == []
    _rows, failures = compare.judge(
        JUDGED, _synthetic(), _synthetic(1.20, only="rate"),
        same_code=True)
    assert len(failures) == 1


def test_a_metric_without_a_bound_is_reported_not_judged():
    unbounded = [{"name": "time_s", "unit": "s", "better": "lower"}]
    rows, failures = compare.judge(
        unbounded, _synthetic(), _synthetic(1.5), same_code=False)
    assert failures == []
    (_name, _unit, _a, _b, change, wins, bound), = rows
    assert change > 0.4 and wins == 0 and bound is None


def test_only_set_up_time_has_a_bound_above_a_tenth():
    assert [metric["name"] for metric in SPEC["end_to_end"]
            if metric["bound"] > 0.10] == ["setup_s"]


def test_server_subprocess_leaves_nothing_behind(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    server = serving.ServerProcess(env, tmp_path)
    server.start()
    try:
        pid = server.process.pid
        status, body = serving.post(server.port, WORKLOADS[
            "finegrain"].requests(1, 1, 3)[0])
        assert status == 200 and body["verified"] is True
        assert leaked_segments()  # the worker slabs exist while serving
    finally:
        server.stop()
    assert leaked_segments() == []
    assert not os.path.exists(f"/proc/{pid}")
    assert _left_behind() == {}
    assert list(tmp_path.iterdir()) == []


def test_ctrl_c_stops_the_server_and_unlinks_its_segments():
    serving.adopt_orphans()
    process = subprocess.Popen(
        RUN + ["--workload", "numeric", "--seed", "2", "--quick"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True)
    try:
        port_file = E2E / "out" / f"port-{process.pid}"
        deadline = time.monotonic() + 60
        while not port_file.exists() and time.monotonic() < deadline:
            time.sleep(0.05)
        assert port_file.exists(), "the server never came up"
        time.sleep(0.3)
        os.killpg(process.pid, signal.SIGINT)  # what a terminal sends
        process.communicate(timeout=60)
    finally:
        if process.poll() is None:
            os.killpg(process.pid, signal.SIGKILL)
            process.wait()
    assert process.returncode == 130
    assert _left_behind() == {}
    assert leaked_segments() == []
