"""Arming the observability stack on a runtime: one table, one
``arm``/``disarm``.

Everything that consumes the runtime's event stream — the tracer, the
metrics tool and its live HTTP endpoint, the flight recorder, the stall
watchdog with its blocking records, the sampling profiler — is switched
on here and nowhere else.  :func:`arm_from_env` is what the ``@omp``
decorator calls for every runtime it binds; it reads the ``OMP4PY_*``
observability knobs (:mod:`repro.env`):

* ``OMP4PY_TRACE`` / ``OMP4PY_METRICS`` / ``OMP4PY_PROFILE`` are each
  off, on (collect in memory), or an output *path* — collect and write
  the artifact at interpreter exit (Chrome trace JSON; Prometheus text,
  or the JSON report for a ``.json`` path; collapsed stacks, or
  speedscope JSON for a ``.json`` path).  ``OMP4PY_PROFILE_HZ`` sets
  the sampling rate.
* ``OMP4PY_METRICS_PORT`` arms tracer and metrics and serves live
  ``/metrics``, ``/explain`` and ``/profile`` over HTTP
  (:class:`repro.explain.live.MetricsServer`); port ``0`` binds an
  ephemeral port, announced on stderr.
* ``OMP4PY_FLIGHT`` / ``OMP4PY_WATCHDOG`` arm the hang diagnostics and
  the SIGUSR1 dump: ``kill -USR1 <pid>`` makes an armed process write
  its flight-recorder tails and current wait-for diagnosis to stderr
  without stopping.  The handler runs on the main thread, which the
  runtime's bounded-backoff waits guarantee wakes regularly even while
  blocked — so the dump works on a process that is already deadlocked.

The CLIs (``repro.profile``, ``repro.explain``, ``repro.doctor``) and
the serve workers call :func:`arm` with the same switches spelled as
arguments.  Consumers are imported only when switched on, so arming
the watchdog alone loads neither the HTTP server nor the sampler.
"""

from __future__ import annotations

import atexit
import contextlib
import dataclasses
import json
import os
import signal
import sys
import threading

from repro import env


@dataclasses.dataclass
class Armed:
    """What :func:`arm` switched on for one runtime (``None``/``False``
    for what it did not), which is exactly what :func:`disarm` undoes."""

    runtime: object
    #: ``arm`` started the tracer (a tracer the user started by hand is
    #: not ours to stop).
    tracing: bool = False
    tool: object = None        # MetricsTool
    server: object = None      # MetricsServer
    diag: object = None        # the DiagnosticsState arm installed
    recorder: object = None    # FlightRecorder
    watchdog: object = None
    sampler: object = None
    #: :func:`arm_from_env` already ran for this runtime.
    from_env: bool = False


#: id(runtime) -> Armed for every armed runtime (identity-keyed:
#: runtimes are singletons that must not be kept alive through hashing
#: semantics).
_active: dict[int, Armed] = {}
_signal_installed = False

# A forked child's runtimes start cold (``runtime.engine``): the tools
# are detached and their threads gone, so nothing is armed there.
os.register_at_fork(after_in_child=_active.clear)


def armed(runtime) -> Armed:
    """The runtime's :class:`Armed` record — an empty one when nothing
    is armed, so ``armed(rt).server`` reads ``None`` either way."""
    return _active.get(id(runtime)) or Armed(runtime)


def arm(runtime, *, trace: bool = False, metrics: bool = False,
        port: int | None = None, sample_hz: float | None = None,
        flight: bool = False, flight_capacity: int | None = None,
        watchdog_interval: float | None = None,
        report_path: str | None = None,
        exit_on_deadlock: bool = False) -> Armed:
    """Switch on the named consumers for ``runtime``.

    Arming is per runtime and additive: what an earlier ``arm`` already
    switched on is left as it is, so repeating a call is a no-op.
    ``port`` implies ``trace`` and ``metrics``; ``flight`` or
    ``watchdog_interval`` attach the blocking-record tool the wait-for
    graph is built from.
    """
    entry = _active.setdefault(id(runtime), Armed(runtime))
    if (trace or port is not None) and not runtime.tracer.enabled:
        runtime.tracer.start()
        entry.tracing = True
    if (metrics or port is not None) and entry.tool is None:
        from repro.ompt.metrics import MetricsTool
        entry.tool = MetricsTool()
        runtime.attach_tool(entry.tool)
    if port is not None and entry.server is None:
        from repro.explain.live import MetricsServer
        server = MetricsServer(runtime, registry=entry.tool.registry,
                               port=port)
        try:
            server.start()
        except OSError as error:
            print(f"omp4py: cannot serve metrics on port {port}: "
                  f"{error}", file=sys.stderr)
        else:
            print(f"omp4py: live metrics ({runtime.name}) at "
                  f"{server.url}/metrics (explain at /explain)",
                  file=sys.stderr)
            entry.server = server
    if (flight or watchdog_interval is not None) and entry.diag is None:
        from repro.diagnostics.state import install
        entry.diag = install(runtime)
    if flight and entry.recorder is None:
        from repro.diagnostics.flight import FlightRecorder
        entry.recorder = (FlightRecorder(flight_capacity)
                          if flight_capacity else FlightRecorder())
        runtime.attach_tool(entry.recorder)
    if watchdog_interval is not None and entry.watchdog is None:
        from repro.diagnostics.watchdog import Watchdog
        entry.watchdog = Watchdog(runtime, watchdog_interval,
                                  report_path=report_path,
                                  exit_on_deadlock=exit_on_deadlock,
                                  flight=entry.recorder)
        entry.watchdog.start()
    if sample_hz is not None and entry.sampler is None:
        from repro.sampling.sampler import Sampler
        # The sampler feeds the metrics registry when one is armed.
        entry.sampler = Sampler(
            runtime, interval=1.0 / sample_hz,
            registry=entry.tool.registry if entry.tool else None)
        entry.sampler.start()
    return entry


def disarm(runtime) -> None:
    """Undo what :func:`arm` did to ``runtime`` — and nothing else."""
    entry = _active.pop(id(runtime), None)
    if entry is None:
        return
    if entry.sampler is not None:
        entry.sampler.stop()
    if entry.watchdog is not None:
        entry.watchdog.stop()
    if entry.recorder is not None:
        runtime.detach_tool(entry.recorder)
    if entry.diag is not None:
        from repro.diagnostics.state import uninstall
        uninstall(runtime, entry.diag)
    if entry.server is not None:
        entry.server.stop()
    if entry.tool is not None:
        runtime.detach_tool(entry.tool)
    if entry.tracing:
        runtime.tracer.stop()


@contextlib.contextmanager
def session(runtime, *, trace_capacity: int | None = None, **switches):
    """``arm(runtime, **switches)`` for the length of a ``with`` block
    and ``disarm`` after it — how the CLIs instrument one run.
    ``trace_capacity`` bounds the tracer's buffer for the block."""
    tracer = runtime.tracer
    old_capacity = tracer.capacity
    if trace_capacity is not None:
        tracer.capacity = trace_capacity
    try:
        yield arm(runtime, **switches)
    finally:
        disarm(runtime)
        tracer.capacity = old_capacity


def arm_from_env(runtime) -> None:
    """Honour the ``OMP4PY_*`` observability knobs for ``runtime``
    (once per runtime; a few environment reads when all are off)."""
    entry = _active.get(id(runtime))
    if entry is not None and entry.from_env:
        return
    trace = env.trace_spec()
    metrics = env.metrics_spec()
    port = env.metrics_port()
    profile = env.profile_spec()
    flight = env.flight_spec()
    watchdog = env.watchdog_spec()
    if (trace is None and metrics is None and port is None
            and profile is None and flight is None and watchdog is None):
        return
    entry = arm(
        runtime, trace=trace is not None, metrics=metrics is not None,
        port=port,
        sample_hz=env.profile_hz() if profile is not None else None,
        flight=flight is not None,
        flight_capacity=flight.capacity if flight else None,
        watchdog_interval=watchdog.interval if watchdog else None,
        report_path=watchdog.path if watchdog else None,
        exit_on_deadlock=bool(watchdog and watchdog.exit_on_deadlock))
    entry.from_env = True
    # Path-valued knobs write their artifact at interpreter exit.
    if trace not in (None, "1"):
        _at_exit("trace", trace, _write_trace, runtime)
    if metrics not in (None, "1"):
        _at_exit("metrics", metrics, _write_metrics, runtime, entry.tool)
    if entry.server is not None:
        _at_exit_here(entry.server.stop)
    if profile not in (None, "1"):
        _at_exit("samples", profile, _write_samples, entry.sampler)
    if flight is not None and flight.path:
        _at_exit("flight record", flight.path, _write_flight,
                 entry.recorder)
    if flight is not None or watchdog is not None:
        install_signal_dump()


# ----------------------------------------------------------------------
# SIGUSR1 dump


def install_signal_dump() -> bool:
    """Install the SIGUSR1 dump handler (main thread only; idempotent).

    Returns ``True`` when the handler is in place.
    """
    global _signal_installed
    if _signal_installed:
        return True
    if threading.current_thread() is not threading.main_thread():
        return False
    if not hasattr(signal, "SIGUSR1"):  # pragma: no cover - windows
        return False
    try:
        signal.signal(signal.SIGUSR1, _on_sigusr1)
    except ValueError:  # pragma: no cover - exotic embedding
        return False
    _signal_installed = True
    return True


def _on_sigusr1(_signum, _frame) -> None:
    from repro.diagnostics.waitgraph import build_wait_graph
    from repro.diagnostics.watchdog import build_report, format_report
    for entry in list(_active.values()):
        runtime = entry.runtime
        print(f"omp4py: SIGUSR1 dump for runtime {runtime.name}",
              file=sys.stderr)
        if entry.recorder is not None:
            print(entry.recorder.format_text(), file=sys.stderr)
        if runtime.diag is not None:
            snapshot = runtime.diag.snapshot()
            report = build_report(runtime, snapshot,
                                  build_wait_graph(snapshot),
                                  flight=entry.recorder, reason="sigusr1")
            print(format_report(report), file=sys.stderr, flush=True)


# ----------------------------------------------------------------------
# Exit-time artifact writers


def _at_exit_here(fn) -> None:
    """``atexit`` for the process that armed only: the tools belong to
    it, and a forked child that exits normally must neither overwrite
    its artifacts nor stop servers whose threads it never had."""
    armed_in = os.getpid()

    def run() -> None:
        if os.getpid() == armed_in:
            fn()
    atexit.register(run)


def _at_exit(what: str, path: str, write, *args) -> None:
    """Run ``write(*args, path)`` at interpreter exit.  Best effort:
    the process is going away, so an unwritable path is reported on
    stderr, not raised."""
    def run() -> None:
        try:
            write(*args, path)
        except OSError as error:  # pragma: no cover - exit-time
            print(f"omp4py: cannot write {what} to {path}: {error}",
                  file=sys.stderr)
    _at_exit_here(run)


def _rank_path(path: str, rank: int) -> str:
    """``trace.json`` → ``trace.rank<k>.json`` (suffix-preserving)."""
    stem, extension = os.path.splitext(path)
    return f"{stem}.rank{rank}{extension}"


def _write_trace(runtime, path: str) -> None:
    from repro.ompt.exporters import write_chrome_trace
    events = runtime.tracer.stop()
    metadata = {"runtime": runtime.name}
    # Under an external MPI launcher every rank process would clobber
    # the same file; shard by rank and record it so
    # ``python -m repro.profile --merge`` can rebuild one timeline.
    from repro.mpi.launcher import env_rank
    rank = env_rank()
    if rank is not None:
        path = _rank_path(path, rank)
        metadata["rank"] = rank
    write_chrome_trace(path, events, dropped=events.dropped,
                       metadata=metadata)


def _write_metrics(runtime, tool, path: str) -> None:
    from repro.ompt.exporters import metrics_report, prometheus_text
    with open(path, "w", encoding="utf-8") as handle:
        if path.endswith(".json"):
            json.dump(metrics_report(tool.registry,
                                     runtime.stats.snapshot()),
                      handle, indent=2)
        else:
            handle.write(prometheus_text(tool.registry))


def _write_samples(sampler, path: str) -> None:
    from repro.sampling.exporters import (write_collapsed,
                                          write_speedscope)
    sampler.stop()
    if path.endswith(".json"):
        write_speedscope(path, sampler.store, interval=sampler.interval,
                         name=sampler.runtime.name)
    else:
        write_collapsed(path, sampler.store)


def _write_flight(recorder, path: str) -> None:
    with open(path, "w", encoding="utf-8") as out:
        json.dump({"schema": "omp4py-flight/1",
                   "threads": recorder.dump()}, out, indent=2)
