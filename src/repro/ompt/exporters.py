"""Exporters: Chrome trace-event JSON, Prometheus text, JSON report.

Three output formats, one per consumer:

* :func:`chrome_trace` — the Trace Event Format consumed by Perfetto
  and ``chrome://tracing``: parallel regions, barriers, and tasks as
  duration (``B``/``E``) events, chunk dispatches and task submissions
  as instant events, per-thread name metadata.
* :func:`prometheus_text` — the text exposition format for a
  :class:`~repro.ompt.metrics.MetricsRegistry` snapshot.
* :func:`metrics_report` — the structured JSON block merged into the
  benchmark harness rows and written by ``python -m repro.profile``.
"""

from __future__ import annotations

import json

#: Phase codes accepted by the trace-event schema validator.
_KNOWN_PHASES = frozenset("BEXiIMCbensftPNOD")

#: Trace event kinds that open/close a duration slice, per thread.
_DURATION_NAMES = {
    "region_fork": ("B", "parallel region"),
    "region_join": ("E", "parallel region"),
    "barrier_enter": ("B", "barrier"),
    "barrier_release": ("E", "barrier"),
    "task_start": ("B", "task"),
    "task_finish": ("E", "task"),
}


def chrome_trace_events(events, *, pid: int = 1) -> list[dict]:
    """Convert :class:`~repro.runtime.trace.TraceEvent` records to
    trace-event dicts (timestamps in µs, rebased to the first event)."""
    if not events:
        return []
    base = min(event.timestamp for event in events)
    rows: list[dict] = []
    threads = sorted({event.thread for event in events})
    for thread in threads:
        rows.append({"name": "thread_name", "ph": "M", "pid": pid,
                     "tid": thread, "ts": 0,
                     "args": {"name": f"omp thread {thread}"}})
    for event in events:
        ts = (event.timestamp - base) * 1e6
        duration = _DURATION_NAMES.get(event.kind)
        if duration is not None:
            phase, name = duration
            row = {"name": name, "cat": "omp", "ph": phase, "ts": ts,
                   "pid": pid, "tid": event.thread}
            if event.kind == "region_fork" and event.detail:
                row["args"] = {"team_size": event.detail[0]}
            elif event.kind == "barrier_release" and event.detail:
                row["args"] = {"wait_s": event.detail[0]}
            elif event.kind in ("task_start", "task_finish") \
                    and event.detail:
                row["args"] = {"task": event.detail[0]}
            rows.append(row)
        elif event.kind == "chunk":
            low, high = (event.detail[:2] if len(event.detail) >= 2
                         else (0, 0))
            rows.append({"name": "chunk", "cat": "omp", "ph": "i",
                         "s": "t", "ts": ts, "pid": pid,
                         "tid": event.thread,
                         "args": {"low": low, "high": high}})
        else:  # task_submit and any future instant kinds
            row = {"name": event.kind, "cat": "omp", "ph": "i", "s": "t",
                   "ts": ts, "pid": pid, "tid": event.thread}
            if event.detail:
                row["args"] = {"detail": list(event.detail)}
            rows.append(row)
    return rows


def chrome_trace(events, *, dropped: int = 0, metadata=None) -> dict:
    """Full Perfetto-loadable trace document (JSON object format).

    ``otherData`` carries enough to correlate the trace with the world
    outside the process: the execution backend, the number of distinct
    threads observed, and — when the event log has an epoch anchor
    (:attr:`repro.runtime.trace.TraceLog.anchor`) — the monotonic→unix
    offset plus the absolute start time, so trace timestamps can be
    lined up against wall-clock logs and Prometheus scrapes.
    """
    other = {"producer": "repro.ompt",
             "events": len(events),
             "dropped_events": dropped,
             "threads_observed":
                 len({event.thread for event in events})}
    from repro.runtime.gilstate import current_backend
    other["backend"] = current_backend().value
    anchor = getattr(events, "anchor", None)
    if anchor is not None:
        unix_s, monotonic_s = anchor
        offset = unix_s - monotonic_s
        other["monotonic_to_unix_offset_s"] = offset
        if events:
            base = min(event.timestamp for event in events)
            other["epoch_start_unix_s"] = base + offset
    payload = {
        "traceEvents": chrome_trace_events(events),
        "displayTimeUnit": "ms",
        "otherData": other,
    }
    if metadata:
        payload["otherData"].update(metadata)
    return payload


def write_chrome_trace(path, events, *, dropped: int = 0,
                       metadata=None) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(chrome_trace(events, dropped=dropped,
                               metadata=metadata), handle)


def validate_chrome_trace(payload) -> list[str]:
    """Schema-check a trace document; returns problems ([] == valid).

    Checks the JSON object format: a ``traceEvents`` list whose rows
    carry ``name``/``ph``/``ts``/``pid``/``tid`` with sane types, known
    phase codes, scoped instant events, and per-thread ``B``/``E``
    nesting discipline.
    """
    problems: list[str] = []
    if not isinstance(payload, dict):
        return [f"top level must be an object, got {type(payload).__name__}"]
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents must be a list"]
    stacks: dict[tuple, list[str]] = {}
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        for field, types in (("name", str), ("ph", str),
                             ("ts", (int, float)), ("pid", int),
                             ("tid", int)):
            if not isinstance(event.get(field), types):
                problems.append(f"{where}: missing/invalid {field!r}")
        phase = event.get("ph")
        if isinstance(phase, str) and phase not in _KNOWN_PHASES:
            problems.append(f"{where}: unknown phase {phase!r}")
        if isinstance(event.get("ts"), (int, float)) and event["ts"] < 0:
            problems.append(f"{where}: negative timestamp")
        if phase == "i" and event.get("s") not in (None, "g", "p", "t"):
            problems.append(f"{where}: invalid instant scope "
                            f"{event.get('s')!r}")
        key = (event.get("pid"), event.get("tid"))
        if phase == "B":
            stacks.setdefault(key, []).append(event.get("name", ""))
        elif phase == "E":
            stack = stacks.setdefault(key, [])
            if not stack:
                problems.append(f"{where}: E without matching B on "
                                f"pid/tid {key}")
            else:
                stack.pop()
    for key, stack in stacks.items():
        if stack:
            problems.append(f"unclosed B event(s) {stack!r} on "
                            f"pid/tid {key}")
    return problems


def merge_chrome_traces(payloads) -> dict:
    """Union per-rank trace documents into one timeline.

    Each input is a full trace document (typically the per-rank
    ``trace.rank<k>.json`` files :mod:`repro.arming` writes under
    MPI).  Ranks become processes: payload ``k`` keeps its events with
    ``pid`` remapped to ``k`` (or its recorded ``otherData.rank``) and
    gains a ``process_name`` metadata row.  When every payload carries
    an ``epoch_start_unix_s`` anchor, timestamps are shifted onto a
    common base (the earliest rank's start) so cross-rank ordering is
    real; anchorless payloads are merged unshifted with a note in
    ``otherData.unaligned_ranks``.
    """
    rows: list[dict] = []
    other: dict = {"producer": "repro.ompt.merge",
                   "ranks": len(payloads), "unaligned_ranks": []}
    anchors = [payload.get("otherData", {}).get("epoch_start_unix_s")
               for payload in payloads]
    known = [anchor for anchor in anchors if anchor is not None]
    base = min(known) if known else None
    dropped = 0
    for number, payload in enumerate(payloads):
        data = payload.get("otherData", {})
        rank = data.get("rank", number)
        dropped += data.get("dropped_events", 0)
        shift_us = 0.0
        if base is not None and anchors[number] is not None:
            shift_us = (anchors[number] - base) * 1e6
        elif base is not None:
            other["unaligned_ranks"].append(rank)
        rows.append({"name": "process_name", "ph": "M", "pid": rank,
                     "tid": 0, "ts": 0,
                     "args": {"name": f"mpi rank {rank}"}})
        for event in payload.get("traceEvents", []):
            row = dict(event)
            row["pid"] = rank
            if row.get("ph") != "M":
                row["ts"] = row.get("ts", 0) + shift_us
            rows.append(row)
    other["events"] = len(rows)
    other["dropped_events"] = dropped
    if base is not None:
        other["epoch_start_unix_s"] = base
    backends = {payload.get("otherData", {}).get("backend")
                for payload in payloads}
    backends.discard(None)
    if len(backends) == 1:
        other["backend"] = backends.pop()
    return {"traceEvents": rows, "displayTimeUnit": "ms",
            "otherData": other}


# ---------------------------------------------------------------------------
# Prometheus text exposition


def _format_labels(labels: dict, extra: dict | None = None) -> str:
    merged = dict(labels)
    if extra:
        merged.update(extra)
    if not merged:
        return ""
    parts = []
    for key in sorted(merged):
        value = str(merged[key]).replace("\\", r"\\").replace(
            '"', r'\"').replace("\n", r"\n")
        parts.append(f'{key}="{value}"')
    return "{" + ",".join(parts) + "}"


def prometheus_text(registry) -> str:
    """Text exposition format dump of a metrics registry."""
    lines: list[str] = []
    seen: set[str] = set()
    for name, labels, instrument in registry.collect():
        if name not in seen:
            seen.add(name)
            help_text = registry.help_text(name)
            if help_text:
                lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} {instrument.kind}")
        if instrument.kind == "histogram":
            cumulative = 0
            for bound, count in zip((*instrument.bounds, "+Inf"),
                                    instrument.buckets):
                cumulative += count
                lines.append(
                    f"{name}_bucket"
                    f"{_format_labels(labels, {'le': bound})} "
                    f"{cumulative}")
            lines.append(f"{name}_sum{_format_labels(labels)} "
                         f"{instrument.total}")
            lines.append(f"{name}_count{_format_labels(labels)} "
                         f"{instrument.count}")
        else:
            value = instrument.value
            rendered = repr(value) if isinstance(value, float) \
                and not value.is_integer() else str(int(value))
            lines.append(f"{name}{_format_labels(labels)} {rendered}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Structured JSON report


def _histogram_summary(registry, name: str) -> dict:
    families = [instr for metric, _labels, instr in registry.collect()
                if metric == name]
    count = sum(h.count for h in families)
    total = sum(h.total for h in families)
    maxima = [h.max for h in families if h.max is not None]
    return {"count": count, "sum_s": total,
            "mean_s": (total / count) if count else 0.0,
            "max_s": max(maxima) if maxima else None}


def _per_thread_counter(registry, name: str) -> dict:
    totals: dict[str, float] = {}
    for metric, labels, instrument in registry.collect():
        if metric == name and "thread" in labels:
            key = str(labels["thread"])
            totals[key] = totals.get(key, 0) + instrument.value
    return {thread: int(value) for thread, value in sorted(
        totals.items(), key=lambda item: int(item[0]))}


def metrics_report(registry=None, stats_records=()) -> dict:
    """The structured observability block (profile CLI + bench rows).

    Always contains the acceptance-relevant keys — per-thread chunks
    and iterations, barrier wait, task latency, and per-region
    projection imbalance — even when a section is empty.
    """
    report: dict = {
        "per_thread": {"chunks": {}, "iterations": {}, "tasks": {}},
        "barrier_wait": {"count": 0, "sum_s": 0.0, "mean_s": 0.0,
                         "max_s": None, "per_thread_s": {}},
        "task_latency": {"count": 0, "sum_s": 0.0, "mean_s": 0.0,
                         "max_s": None},
        "task_duration": {"count": 0, "sum_s": 0.0, "mean_s": 0.0,
                          "max_s": None},
        "mutex": {"acquisitions": {}, "contended": {},
                  "wait_s": {}},
        "regions": [],
        "imbalance": {"max": None, "mean": None},
    }
    if registry is not None:
        report["per_thread"]["chunks"] = _per_thread_counter(
            registry, "omp_chunks_total")
        report["per_thread"]["iterations"] = _per_thread_counter(
            registry, "omp_iterations_total")
        report["per_thread"]["tasks"] = _per_thread_counter(
            registry, "omp_tasks_executed_total")
        report["task_latency"] = _histogram_summary(
            registry, "omp_task_latency_seconds")
        report["task_duration"] = _histogram_summary(
            registry, "omp_task_duration_seconds")
        barrier = _histogram_summary(registry, "omp_sync_wait_seconds")
        per_thread_wait: dict[str, float] = {}
        for metric, labels, instrument in registry.collect():
            if metric == "omp_sync_wait_seconds" and "thread" in labels:
                key = str(labels["thread"])
                per_thread_wait[key] = per_thread_wait.get(key, 0.0) \
                    + instrument.total
        barrier["per_thread_s"] = dict(sorted(
            per_thread_wait.items(), key=lambda item: int(item[0])))
        report["barrier_wait"] = barrier
        for metric, labels, instrument in registry.collect():
            kind = labels.get("kind")
            if kind is None:
                continue
            if metric == "omp_mutex_acquisitions_total":
                report["mutex"]["acquisitions"][kind] = int(
                    instrument.value)
            elif metric == "omp_mutex_contended_total":
                report["mutex"]["contended"][kind] = int(instrument.value)
            elif metric == "omp_mutex_wait_seconds":
                report["mutex"]["wait_s"][kind] = instrument.total
        report["metrics"] = registry.as_dict()
    records = list(stats_records)
    if records:
        report["regions"] = [
            {"size": record.size, "sum_cpu_s": record.sum_cpu,
             "max_cpu_s": record.max_cpu,
             "imbalance": record.imbalance}
            for record in records]
        imbalances = [record.imbalance for record in records]
        report["imbalance"] = {
            "max": max(imbalances),
            "mean": sum(imbalances) / len(imbalances)}
    return report
