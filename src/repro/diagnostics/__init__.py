"""Runtime diagnostics: flight recorder, stall watchdog, wait-for
graphs, and hang reports (``docs/observability.md``, "Diagnosing
hangs").

Three pieces, all optional and all following the runtime's one
attribute-read-when-disabled cost discipline:

* :class:`~repro.diagnostics.flight.FlightRecorder` — always-cheap
  per-thread ring buffers of the last N sync/work events: a tool on
  the runtime's one event channel (:mod:`repro.ompt.hooks`).
* :class:`~repro.diagnostics.state.DiagnosticsState` +
  :mod:`~repro.diagnostics.waitgraph` — a second tool on that channel
  keeping a blocking record for every thread inside a wait, assembled
  into a wait-for graph with cycle detection.
* :class:`~repro.diagnostics.watchdog.Watchdog` — a daemon thread that
  notices lost progress and emits a structured *deadlock* or *stall*
  report.

Arm everything from the environment (``OMP4PY_FLIGHT``,
``OMP4PY_WATCHDOG`` — see :mod:`repro.env`), programmatically
(:func:`repro.arming.arm`), or from the command line
(``python -m repro.doctor``).
"""

from repro.diagnostics.envreport import format_display_env, icv_snapshot
from repro.diagnostics.flight import FlightRecorder
from repro.diagnostics.origin import (format_location, register_origin,
                                      resolve)
from repro.diagnostics.state import BlockRecord, DiagnosticsState
from repro.diagnostics.waitgraph import WaitGraph, build_wait_graph
from repro.diagnostics.watchdog import (DEADLOCK_EXIT_CODE, Watchdog,
                                        build_report, format_report)

__all__ = [
    "BlockRecord", "DEADLOCK_EXIT_CODE", "DiagnosticsState",
    "FlightRecorder", "WaitGraph", "Watchdog", "build_report",
    "build_wait_graph", "format_display_env", "format_location",
    "format_report", "icv_snapshot", "register_origin", "resolve",
]
