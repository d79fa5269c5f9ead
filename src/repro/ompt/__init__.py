"""OMPT-style observability for the OMP4Py runtimes.

The package mirrors, in spirit, the OMPT tools interface of native
OpenMP runtimes (cf. the OMP4Py paper's measurement methodology): a
pluggable callback surface (:mod:`repro.ompt.hooks`), a thread-safe
metrics registry and the standard metrics tool
(:mod:`repro.ompt.metrics`), exporters for Chrome trace-event JSON,
Prometheus text, and the structured JSON report
(:mod:`repro.ompt.exporters`), and the ``python -m repro.profile`` CLI
(:mod:`repro.ompt.cli`).  Arming from the environment or from code is
:mod:`repro.arming`'s job, for this package and every other consumer
of the event stream.

The hang-diagnosis subsystem (:mod:`repro.diagnostics`) plugs into the
same callback surface: its :class:`FlightRecorder` is a
:class:`ToolHooks` tool (re-exported here), and ``python -m
repro.doctor`` is its CLI.

Quickstart::

    from repro.cruntime import cruntime
    from repro.ompt import MetricsTool, chrome_trace, metrics_report

    tool = MetricsTool()
    cruntime.attach_tool(tool)
    cruntime.tracer.start()
    run_workload()
    events = cruntime.tracer.stop()
    cruntime.detach_tool(tool)
    report = metrics_report(tool.registry, cruntime.stats.snapshot())
    trace = chrome_trace(events, dropped=events.dropped)

See docs/observability.md for the full walkthrough.
"""

import importlib

#: Public name -> module.  Resolved on first access (PEP 562): the
#: runtime core subclasses :class:`ToolHooks` (``repro.runtime.trace``),
#: so importing :mod:`repro.ompt.hooks` must not load the exporters and
#: the metrics registry into every program.
_EXPORTS = {
    "CALLBACK_NAMES": "repro.ompt.hooks",
    "ToolDispatcher": "repro.ompt.hooks",
    "ToolHooks": "repro.ompt.hooks",
    "Counter": "repro.ompt.metrics", "Gauge": "repro.ompt.metrics",
    "Histogram": "repro.ompt.metrics",
    "MetricsRegistry": "repro.ompt.metrics",
    "MetricsTool": "repro.ompt.metrics",
    "chrome_trace": "repro.ompt.exporters",
    "chrome_trace_events": "repro.ompt.exporters",
    "metrics_report": "repro.ompt.exporters",
    "prometheus_text": "repro.ompt.exporters",
    "validate_chrome_trace": "repro.ompt.exporters",
    "write_chrome_trace": "repro.ompt.exporters",
    "FlightRecorder": "repro.diagnostics.flight",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value
