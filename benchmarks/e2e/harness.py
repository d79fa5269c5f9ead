"""One benchmark run: set-up, then rounds and serving windows in turn.

The phases and their spans::

    run
    ├─ setup ── 3 x {interpreter, apps.inputs, apps.sequential,
    │                decorator.transform, serve.fleet_start}
    ├─ warm-up round + warm-up requests
    └─ 8 x ┬─ modes ── apps.<kernel>.<mode> ── analysis.measure
           └─ serve.phase ── serve.request ── serve.exec

Set-up runs ``SETUP_REPEATS`` times and ``setup_s`` is the sum over its
steps of each step's best time: one pass is a single 2-4 s sample that
follows every hiccup of the host, and it is the one timing a run cannot
otherwise repeat.

Rounds and serving windows alternate instead of running as two blocks:
the host changes speed for seconds at a time, and a best-of estimator
only works if its samples are spread over more time than that.

CPU placement of the rounds.  With two cores and a 2-thread team the
OS decides whether the team shares a core or spans both, and under the
GIL that hidden state moves sync-heavy kernels by 5-10x (README.md,
"Placement").  A per-mode metric is the best over the rounds, so the
rounds sample both placements: one round in ``FREE_EVERY`` runs with
the full affinity mask (all that code which releases the GIL needs to
overlap), the others with every thread of the process confined to one
CPU (the placement the OS reaches by itself only now and then).  The
server, its workers and the clients always have every CPU.

An untraced run (``traced=False``) keeps the span recorder off from
start to finish and reports the end-to-end metrics.  A traced run arms
it for set-up, for every second round and for every second serving
window, reports the layer ledger (``layers.py``) and, from the plain
versus recorded halves, what the recorder itself cost.
"""

from __future__ import annotations

import collections
import contextlib
import dataclasses
import os
import resource
import subprocess
import sys
import time

from repro.modes import ALL_MODES, Mode

from e2e import layers, modes, serving
from e2e.trace import Recorder

SETUP_REPEATS = 3
#: Every term gets at least this many timed rounds, and more while they
#: fit into what ``--seconds`` leaves after the serving windows.
ROUNDS_MIN = 10
ROUNDS_MAX = 40
#: One round in this many runs with the full affinity mask.
FREE_EVERY = 5
WINDOWS = 8
WINDOW_REQUESTS = 200
#: ``--quick``: same code path and metric names, toy counts.
QUICK_ROUNDS = 2
QUICK_WINDOWS = 2
QUICK_WINDOW_REQUESTS = 24


@dataclasses.dataclass
class Outcome:
    metrics: dict
    attempted: int
    failed: int
    rounds: int
    windows: int


@contextlib.contextmanager
def _confined(cpus):
    """Run the body with every thread of this process (and every
    thread or process started meanwhile) confined to ``cpus``."""
    before = os.sched_getaffinity(0)
    _place(cpus)
    try:
        yield
    finally:
        _place(before)


def _place(cpus) -> None:
    for task in os.listdir("/proc/self/task"):
        try:
            os.sched_setaffinity(int(task), cpus)
        except ProcessLookupError:
            pass  # the thread ended since the listing


@contextlib.contextmanager
def _half(rec, name: str, recording: bool):
    """One round or serving window of a traced run: recorded in full
    under ``name``, or — the plain half the recorded one is compared
    with — run with the recorder off inside one ``unrecorded`` span, so
    its time is not booked as somebody's self time."""
    with rec.span(name if recording else "unrecorded") as span:
        armed, rec.enabled = rec.enabled, recording
        try:
            yield span
        finally:
            rec.enabled = armed


def _best_windows(windows: list[dict]) -> dict:
    return {"serve_rps": max(w["rps"] for w in windows),
            "serve_p50_ms": min(w["p50_ms"] for w in windows),
            "serve_p95_ms": min(w["p95_ms"] for w in windows)}


#: What a run imports of the program before it can set anything up.
IMPORTS = ("import repro.apps, repro.decorator, repro.analysis.timing, "
           "repro.serve")


def _set_up(workload, seed, quick, rec, server, env):
    """Set up ``SETUP_REPEATS`` times; return the last pass's terms and
    variants, and per step the best time over the passes."""
    passes = collections.defaultdict(list)

    def timed(step, call):
        begin = time.perf_counter()
        result = call()
        passes[step].append(time.perf_counter() - begin)
        return result

    for _ in range(1 if quick else SETUP_REPEATS):
        with rec.span("interpreter"):
            timed("interpreter", lambda: subprocess.run(
                [sys.executable, "-c", IMPORTS], env=env, check=True))
        terms = timed("inputs", lambda: modes.build_inputs(
            workload, seed, quick, rec))
        timed("references", lambda: modes.run_references(terms, rec))
        variants = None if workload.fresh_transform else timed(
            "transform", lambda: modes.transform_all(terms, rec))
        server.stop()
        with rec.span("serve.fleet_start"):
            timed("fleet", server.start)
    return terms, variants, {step: min(times)
                             for step, times in passes.items()}


def run(workload, *, seed: int, seconds: float, traced: bool,
        quick: bool, env: dict, out) -> Outcome:
    rec = Recorder()
    rec.enabled = traced
    floor, ceiling = (QUICK_ROUNDS,) * 2 if quick \
        else (ROUNDS_MIN, ROUNDS_MAX)
    nwindows, per_window = (QUICK_WINDOWS, QUICK_WINDOW_REQUESTS) \
        if quick else (WINDOWS, WINDOW_REQUESTS)
    # A traced run records every second round and keeps those samples
    # apart, so it needs twice the rounds for the same estimator.
    step = 2 if traced else 1
    server = serving.ServerProcess(env, out)
    every_cpu = os.sched_getaffinity(0)
    one_cpu = {max(every_cpu)}
    warm, plain, recorded = (modes.Samples() for _ in range(3))
    replies, windows = [], []
    with rec.span("run"):
        try:
            with rec.span("setup"):
                terms, variants, setup = _set_up(
                    workload, seed, quick, rec, server, env)
            with rec.span("warmup") as warm_span:
                with _confined(one_cpu):
                    modes.run_round(terms, variants, warm, rec, False)
                docs = workload.requests(seed, nwindows + 1, per_window)
                warm_docs = docs[:per_window // 2]
                warm_begin, warm_replies = serving.drive(
                    server.port, warm_docs, rec, warm_span)

            rounds = 0
            rounds_s = 0.0
            # Seconds per served request so far, to tell what the
            # remaining windows (a fixed number of requests) will take.
            request_s = (warm_replies[-1].end - warm_begin) \
                / len(warm_docs)
            for window in range(1, nwindows + 1):
                # This window's share of the rounds: the floor always,
                # more while they fit into what ``seconds`` leaves
                # once the serving windows have had their time.
                share = step * window / nwindows
                budget_s = step * (seconds
                                   - nwindows * per_window * request_s)
                while rounds < floor * share or (
                        rounds < ceiling * share
                        and rounds_s * (rounds + step) / rounds
                        <= budget_s * window / nwindows):
                    recording = traced and rounds % 2 == 1
                    free = rounds // step % FREE_EVERY == 1
                    round_begin = time.perf_counter()
                    with _half(rec, "modes", recording), \
                            _confined(every_cpu if free else one_cpu):
                        modes.run_round(
                            terms, variants,
                            recorded if recording else plain, rec, free)
                    rounds_s += time.perf_counter() - round_begin
                    rounds += 1
                recording = traced and window % 2 == 0
                with _half(rec, "serve.phase", recording) as phase:
                    phase_begin, block = serving.drive(
                        server.port,
                        docs[window * per_window:][:per_window], rec,
                        phase)
                stats = serving.window_stats(block, phase_begin)
                stats["traced"] = recording
                windows.append(stats)
                replies += block
                request_s = sum(w["elapsed_s"] for w in windows) \
                    / len(replies)
            counters = server.counters()
        finally:
            server.stop()
    if traced:
        with _confined(one_cpu):
            ledger = layers.ledger(
                workload=workload, terms=terms, samples=plain,
                replies=replies, windows=windows, counters=counters,
                setup=setup, quick=quick)

    attempted = warm.calls + plain.calls + recorded.calls \
        + len(warm_replies) + len(replies)
    failed = sum(not reply.ok for reply in warm_replies + replies)
    metrics = _user_metrics(setup, plain, windows)
    if traced:
        metrics.update(ledger)
        metrics.update(_recorder_cost(plain, recorded, windows))
        _write_trace(rec, out / f"trace-{workload.name}-{seed}.json")
    return Outcome(metrics, attempted, failed, plain.rounds(),
                   len(windows))


def _user_metrics(setup: dict, samples, windows) -> dict:
    """What a user of the system sees.  ``BENCHMARK.json`` says which
    of these are end-to-end metrics with a bound and which were demoted
    to the per-layer list (README.md, "Bounds")."""
    metrics = {"setup_s": (sum(setup.values()), "s")}
    for mode in ALL_MODES:
        metrics[f"{mode.value}_s"] = (samples.best_s(mode), "s")
    metrics["projected_s"] = (samples.projected_s(Mode.HYBRID), "s")
    served = _best_windows(windows)
    metrics["serve_rps"] = (served["serve_rps"], "1/s")
    metrics["serve_p50_ms"] = (served["serve_p50_ms"], "ms")
    metrics["serve_p95_ms"] = (served["serve_p95_ms"], "ms")
    # The server has been reaped: RUSAGE_CHILDREN holds the largest
    # resident set among it and its workers.
    metrics["peak_rss_mb"] = ((
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024,
        "MiB")
    return metrics


def _recorder_cost(plain, recorded, windows) -> dict:
    """``trace_overhead_pct.<metric>``: the recorded half of a traced
    run against its plain half, positive when recording made it worse."""
    plain_served = _best_windows([w for w in windows if not w["traced"]])
    traced_served = _best_windows([w for w in windows if w["traced"]])
    pairs = [(f"{mode.value}_s", plain.best_s(mode),
              recorded.best_s(mode)) for mode in ALL_MODES]
    pairs.append(("projected_s", plain.projected_s(Mode.HYBRID),
                  recorded.projected_s(Mode.HYBRID)))
    pairs += [(name, plain_served[name], traced_served[name])
              for name in plain_served]
    return {f"trace_overhead_pct.{name}": (
        (with_recorder - base) / base * (-100 if name == "serve_rps"
                                         else 100), "%")
        for name, base, with_recorder in pairs}


def _write_trace(rec, path) -> None:
    rec.write(path)
    print(f"[e2e] Chrome trace: {path} ({len(rec.spans)} spans)")
    print(f"{'layer':12s} {'spans':>7s} {'total_s':>10s} {'self_s':>10s}")
    for layer, row in sorted(rec.self_times().items()):
        print(f"{layer:12s} {row['spans']:7d} {row['total_s']:10.4f} "
              f"{row['self_s']:10.4f}")
