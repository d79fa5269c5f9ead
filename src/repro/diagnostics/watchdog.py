"""The stall watchdog: progress monitoring, diagnosis, and reports.

A :class:`Watchdog` owns a daemon thread that polls its runtime's
:class:`~repro.diagnostics.state.DiagnosticsState` at half its
configured interval.  When the progress counter has not moved for a
full interval *and* at least one thread holds a block record that old,
it snapshots the state, builds the wait-for graph
(:mod:`repro.diagnostics.waitgraph`), and emits a structured report:

* **deadlock** — the graph has a cycle or an unsatisfiable barrier.
  The report names every cycle participant: thread idents and team
  thread numbers, the directive kind each is blocked in, and the user
  source line (mapped through the transform's origin registry).
  Reported once; optionally the process is terminated
  (``exit_on_deadlock``, exit code :data:`DEADLOCK_EXIT_CODE`) so CI
  harnesses can run seeded faults under a timeout.
* **stall** — no cycle: per-thread wait kinds and ages plus the flight
  recorder tail, reported once per stall episode (re-armed when
  progress resumes).

The polling thread never takes runtime locks: it reads the diagnostics
tables racily and relies on the graph builder's sleeping-flag
discipline for soundness, so an armed watchdog adds zero contention to
the runtime hot paths.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time

from repro.diagnostics.envreport import icv_snapshot
from repro.diagnostics.state import install, uninstall
from repro.diagnostics.waitgraph import build_wait_graph

DEFAULT_INTERVAL = 5.0
#: Exit status used by ``exit_on_deadlock`` (and asserted by the
#: seeded-fault CI job): distinct from common tool exit codes.
DEADLOCK_EXIT_CODE = 86


class Watchdog:
    """Arm a runtime with diagnostics and watch it for lost progress."""

    def __init__(self, runtime, interval: float = DEFAULT_INTERVAL, *,
                 report_path: str | None = None,
                 exit_on_deadlock: bool = False,
                 on_report=None, flight=None, stream=None):
        if interval <= 0:
            raise ValueError("watchdog interval must be positive")
        self.runtime = runtime
        self.interval = interval
        self.report_path = report_path
        self.exit_on_deadlock = exit_on_deadlock
        self.on_report = on_report
        self.flight = flight
        self.stream = stream if stream is not None else sys.stderr
        #: Every report this watchdog emitted (tests read this).
        self.reports: list[dict] = []
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()
        #: The diagnostics state ``start()`` installed (``None`` when
        #: the runtime already had one), for ``stop()`` to remove.
        self._installed = None
        self._deadlock_reported = False
        self._stall_reported = False

    # -- lifecycle --------------------------------------------------------

    def start(self) -> "Watchdog":
        if self._thread is not None:
            return self
        self._installed = install(self.runtime)
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name=f"omp-watchdog-{self.runtime.name}",
            daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=self.interval * 4)
            self._thread = None
        uninstall(self.runtime, self._installed)
        self._installed = None

    # -- polling loop -----------------------------------------------------

    def _run(self) -> None:
        diag = self.runtime.diag
        tick = self.interval / 2.0
        last_progress = diag.progress
        last_change = time.perf_counter()
        while not self._stop.wait(tick):
            progress = diag.progress
            now = time.perf_counter()
            if progress != last_progress:
                last_progress = progress
                last_change = now
                self._stall_reported = False
                continue
            if (not any(diag.blocked.values())
                    or now - last_change < self.interval):
                continue
            self.check_now(stalled_for=now - last_change)
            if self._deadlock_reported:
                return

    # -- analysis ---------------------------------------------------------

    def check_now(self, stalled_for: float | None = None) -> dict | None:
        """Analyze immediately; returns the report it emitted, if any.

        Also the entry point for on-demand diagnosis (SIGUSR1, doctor).
        """
        diag = self.runtime.diag
        if diag is None:
            return None
        snapshot = diag.snapshot()
        graph = build_wait_graph(snapshot)
        verdict = graph.verdict()
        if verdict == "deadlock":
            if self._deadlock_reported:
                return None
            self._deadlock_reported = True
        else:
            if not snapshot.blocked or self._stall_reported:
                return None
            self._stall_reported = True
        report = build_report(self.runtime, snapshot, graph,
                              interval=self.interval,
                              stalled_for=stalled_for,
                              flight=self.flight)
        self._emit(report)
        if verdict == "deadlock" and self.exit_on_deadlock:
            os._exit(DEADLOCK_EXIT_CODE)
        return report

    def _emit(self, report: dict) -> None:
        self.reports.append(report)
        if self.report_path:
            try:
                with open(self.report_path, "w", encoding="utf-8") as out:
                    json.dump(report, out, indent=2)
            except OSError as error:
                print(f"omp4py watchdog: cannot write report to "
                      f"{self.report_path}: {error}", file=self.stream)
        print(format_report(report), file=self.stream, flush=True)
        if self.on_report is not None:
            try:
                self.on_report(report)
            except Exception:  # noqa: BLE001 - observer must not kill us
                pass


# ----------------------------------------------------------------------
# Report construction


def build_report(runtime, snapshot, graph, *, interval=None,
                 stalled_for=None, flight=None, reason="watchdog") -> dict:
    """The structured diagnosis document (JSON-able)."""
    threads = []
    for ident, records in sorted(snapshot.blocked.items()):
        innermost = records[-1]
        threads.append({
            "ident": ident,
            "name": snapshot.thread_names.get(ident, "?"),
            "blocked": [record.describe() for record in records],
            "wait": innermost.kind,
            "wait_age_s": round(snapshot.taken_at - innermost.since, 6),
        })
    cycles = graph.find_cycles()
    report = {
        "schema": "omp4py-doctor-report/1",
        "reason": reason,
        "runtime": runtime.name,
        "verdict": graph.verdict(),
        "interval_s": interval,
        "stalled_for_s": (round(stalled_for, 6)
                          if stalled_for is not None else None),
        "threads": threads,
        "cycles": [[_node_doc(graph, node) for node in cycle]
                   for cycle in cycles],
        "unsatisfiable": [
            {"barrier": _node_doc(graph, barrier_node),
             "missing": _node_doc(graph, member_node),
             "reason": why}
            for barrier_node, member_node, why in graph.unsatisfiable],
        "icvs": icv_snapshot(runtime, verbose=True),
    }
    if flight is not None:
        report["flight"] = flight.dump(tail=16)
    sampler = getattr(runtime, "sampler", None)
    if sampler is not None:
        # Profiler evidence: what each thread was actually executing
        # in the moments before the stall (last folded stacks).
        report["sampler"] = sampler.status(recent=5)
    return report


def _node_doc(graph, node) -> dict:
    kind, key = node
    doc = {"node": kind,
           "id": key if isinstance(key, (str, int)) else repr(key),
           "describe": graph.describe_node(node)}
    doc.update({name: value for name, value in
                graph.meta.get(node, {}).items()
                if isinstance(value, (str, int, float, bool))
                or value is None})
    return doc


def format_report(report: dict) -> str:
    """Human-readable rendering for stderr."""
    lines = [
        "=" * 66,
        f"omp4py {report['reason']}: verdict {report['verdict'].upper()} "
        f"(runtime {report['runtime']})",
    ]
    if report.get("stalled_for_s") is not None:
        lines.append(f"no progress for {report['stalled_for_s']:.3f}s "
                     f"(interval {report['interval_s']}s)")
    if report["cycles"]:
        lines.append("wait-for cycle(s):")
        for cycle in report["cycles"]:
            for step in cycle:
                lines.append(f"  -> {step['describe']}")
            lines.append("  -> (back to start)")
    for entry in report["unsatisfiable"]:
        lines.append(f"unsatisfiable: {entry['barrier']['describe']} — "
                     f"{entry['reason']}")
    lines.append("blocked threads:")
    if not report["threads"]:
        lines.append("  (none)")
    for thread in report["threads"]:
        innermost = thread["blocked"][-1]
        where = innermost.get("source") or "?"
        lines.append(
            f"  {thread['name']} (ident {thread['ident']}): "
            f"{thread['wait']} for {thread['wait_age_s']:.3f}s at {where}")
    flight = report.get("flight")
    if flight:
        lines.append("flight recorder tails:")
        for ident, entry in sorted(flight.items()):
            tail = entry["events"][-4:]
            kinds = " ".join(event["kind"] for event in tail) or "(empty)"
            lines.append(f"  {entry['thread']} (ident {ident}): "
                         f"... {kinds}")
    sampler = report.get("sampler")
    if sampler:
        lines.append(
            f"sampler: {'armed' if sampler['armed'] else 'stopped'} at "
            f"{sampler['hz']:g} Hz, {sampler['samples']} sample(s) "
            f"{sampler['by_state']}")
        for thread, stacks in sorted(
                sampler.get("recent_stacks", {}).items()):
            if not stacks:
                continue
            lines.append(f"  {thread} last sampled at:")
            for stack in stacks[-3:]:
                lines.append(f"    {stack}")
    lines.append("=" * 66)
    return "\n".join(lines)
