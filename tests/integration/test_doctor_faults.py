"""End-to-end doctor runs over the seeded faults in ``examples/faults``.

Each fault is executed in a subprocess via ``python -m repro.doctor run``
with an aggressive watchdog, wrapped in a generous timeout.  The
acceptance bar from the issue: the process terminates with the deadlock
exit code (86) instead of hanging, and the JSON report names the exact
cycle participants — thread ids, directive kinds, and user source lines.

Note the CLI flag order: ``run`` collects everything after the script
path as the *script's* argv (``argparse.REMAINDER``), so doctor options
must precede the script.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

REPO = pathlib.Path(__file__).resolve().parent.parent.parent
FAULTS = REPO / "examples" / "faults"
WATCHDOG = "0.5"
#: Hard cap: each fault blocks ~0.2s before deadlocking, the watchdog
#: must fire within 2x its interval, and interpreter startup rides on
#: top.  Far below this means the doctor worked; hitting it means hang.
TIMEOUT = 60


def run_doctor(script: pathlib.Path, report: pathlib.Path,
               extra=()):  # -> subprocess.CompletedProcess
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    env.pop("OMP4PY_WATCHDOG", None)
    env.pop("OMP4PY_FLIGHT", None)
    return subprocess.run(
        [sys.executable, "-m", "repro.doctor", "run",
         "--watchdog", WATCHDOG, "--report", str(report), *extra,
         str(script)],
        capture_output=True, text=True, timeout=TIMEOUT, env=env,
        cwd=str(REPO))


def load_report(path: pathlib.Path) -> dict:
    report = json.loads(path.read_text(encoding="utf-8"))
    assert report["schema"] == "omp4py-doctor-report/1"
    assert report["verdict"] == "deadlock"
    return report


def cycle_text(report: dict) -> str:
    return " | ".join(step["describe"]
                      for cycle in report["cycles"] for step in cycle)


class TestSeededFaults:
    def test_lock_inversion_names_both_threads_and_locks(self, tmp_path):
        report_path = tmp_path / "report.json"
        proc = run_doctor(FAULTS / "lock_inversion.py", report_path)
        assert proc.returncode == 86, proc.stderr[-2000:]
        report = load_report(report_path)
        (cycle,) = report["cycles"]
        threads = [s for s in cycle if s["node"] == "thread"]
        locks = [s for s in cycle if s["node"] == "lock"]
        assert len(threads) == 2 and len(locks) == 2
        assert {t["thread_num"] for t in threads} == {0, 1}
        assert all(t["wait"] == "lock" for t in threads)
        # User source lines of the two blocked omp_set_lock calls.
        assert all("lock_inversion.py:" in (t.get("source") or "")
                   for t in threads)

    def test_lock_inversion_flight_tails_show_the_last_sleep(self, tmp_path):
        """Each cycle thread's ring goes on past ``mutex_wait`` to the
        ``wait`` it never woke from (``doctor run`` flies the recorder
        by default)."""
        report_path = tmp_path / "report.json"
        proc = run_doctor(FAULTS / "lock_inversion.py", report_path)
        assert proc.returncode == 86, proc.stderr[-2000:]
        report = load_report(report_path)
        (cycle,) = report["cycles"]
        slept_on = set()
        for step, wanted in zip(cycle, cycle[1:] + cycle[:1]):
            if step["node"] != "thread":
                continue
            events = report["flight"][str(step["id"])]["events"]
            blocked = max(index for index, event in enumerate(events)
                          if event["kind"] == "mutex_wait"
                          and event["detail"][2] == wanted["id"])
            sleeps = [event["detail"] for event in events[blocked + 1:]
                      if event["kind"] == "wait_begin"]
            assert sleeps and all(kind == "lock" for _, kind, _ in sleeps)
            slept_on.update(ident for _, _, ident in sleeps)
        assert len(slept_on) == 2  # one mutex each
        assert "mutex_wait wait_begin" in proc.stderr

    def test_unmatched_barrier_is_unsatisfiable(self, tmp_path):
        report_path = tmp_path / "report.json"
        proc = run_doctor(FAULTS / "unmatched_barrier.py", report_path)
        assert proc.returncode == 86, proc.stderr[-2000:]
        report = load_report(report_path)
        assert report["unsatisfiable"], report
        entry = report["unsatisfiable"][0]
        assert "left the region" in entry["reason"]
        assert entry["barrier"]["node"] == "barrier"
        (blocked,) = report["threads"]
        assert blocked["wait"] == "barrier"
        assert "unmatched_barrier.py:" in (
            blocked["blocked"][-1].get("source") or "")

    def test_task_dependence_cycle_crosses_taskwait(self, tmp_path):
        report_path = tmp_path / "report.json"
        proc = run_doctor(FAULTS / "task_dependence_cycle.py", report_path)
        assert proc.returncode == 86, proc.stderr[-2000:]
        report = load_report(report_path)
        text = cycle_text(report)
        assert "taskwait" in text
        assert "task 0x" in text
        assert "lock" in text
        waits = {t["wait"] for t in report["threads"]}
        assert "taskwait" in waits and "lock" in waits

    def test_no_exit_keeps_reporting_without_code_86(self, tmp_path):
        """``--no-exit``: the run itself never returns (the script is
        deadlocked), so only check the flag parses and arms — by running
        a *healthy* script to completion under it."""
        healthy = tmp_path / "healthy.py"
        healthy.write_text(
            "from repro import omp, omp_get_thread_num\n"
            "@omp\n"
            "def region():\n"
            "    hits = []\n"
            "    with omp('parallel num_threads(2)'):\n"
            "        hits.append(omp_get_thread_num())\n"
            "    return sorted(hits)\n"
            "assert region() == [0, 1]\n",
            encoding="utf-8")
        proc = run_doctor(healthy, tmp_path / "unused.json",
                          extra=("--no-exit",))
        assert proc.returncode == 0, proc.stderr[-2000:]


class TestDoctorCLI:
    def test_env_json(self):
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "repro.doctor", "env", "--json",
             "--runtime", "pure"],
            capture_output=True, text=True, timeout=TIMEOUT, env=env,
            cwd=str(REPO))
        assert proc.returncode == 0, proc.stderr[-2000:]
        payload = json.loads(proc.stdout)
        assert "runtime" in payload
        assert payload["icvs"]["_OPENMP"] == "200805"

    def test_dump_rejects_bogus_pid(self):
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "repro.doctor", "dump", "999999999"],
            capture_output=True, text=True, timeout=TIMEOUT, env=env,
            cwd=str(REPO))
        assert proc.returncode != 0


@pytest.mark.slow
class TestSeededFaultsCRuntime:
    """The same inversion fault on the C-accelerated runtime path."""

    def test_lock_inversion(self, tmp_path):
        report_path = tmp_path / "report.json"
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "repro.doctor", "run",
             "--watchdog", WATCHDOG, "--report", str(report_path),
             str(FAULTS / "lock_inversion.py")],
            capture_output=True, text=True, timeout=TIMEOUT, env=env,
            cwd=str(REPO))
        assert proc.returncode == 86, proc.stderr[-2000:]
        assert load_report(report_path)["cycles"]
