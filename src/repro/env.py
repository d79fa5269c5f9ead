"""Environment-variable handling for OpenMP ICVs and decorator defaults.

Two families of variables are honoured, mirroring the paper:

* ``OMP_*`` — the standard OpenMP environment variables that seed the
  initial values of internal control variables (ICVs):
  ``OMP_NUM_THREADS``, ``OMP_SCHEDULE``, ``OMP_DYNAMIC``, ``OMP_NESTED``,
  ``OMP_THREAD_LIMIT``, ``OMP_MAX_ACTIVE_LEVELS``, ``OMP_STACKSIZE``
  (accepted and recorded but without effect on Python threads),
  ``OMP_WAIT_POLICY`` (``active`` spins briefly before parking at the
  pool's fork/join points, ``passive`` parks immediately — see
  :mod:`repro.runtime.pool`), ``OMP_PLACES`` and ``OMP_PROC_BIND``
  (thread affinity — see :mod:`repro.affinity` and docs/affinity.md).
* ``OMP4PY_*`` — listed once, in :data:`KNOBS`: the defaults for the
  ``omp`` decorator arguments (:func:`decorator_default`), the
  observability and hang-diagnostics knobs that :mod:`repro.arming`
  arms on each runtime the ``@omp`` decorator binds (see
  docs/observability.md), the hot-team pool and execution-backend
  knobs (:mod:`repro.runtime.pool`, :mod:`repro.runtime.gilstate`) and
  the ``python -m repro.serve`` defaults.  The function reading a knob
  documents its grammar; README's environment table has a row for each.
"""

from __future__ import annotations

import dataclasses
import os

from repro.errors import OmpError

#: Scheduling kinds accepted by ``OMP_SCHEDULE`` and ``schedule(...)``.
SCHEDULE_KINDS = ("static", "dynamic", "guided", "auto", "runtime")

#: Every ``OMP4PY_*`` variable this module reads, once: what a
#: diagnostic report echoes (:mod:`repro.diagnostics.envreport`) and
#: what README's environment table documents.
KNOBS = (
    # decorator-argument defaults
    "OMP4PY_CACHE", "OMP4PY_DUMP", "OMP4PY_DEBUG", "OMP4PY_COMPILE",
    "OMP4PY_FORCE", "OMP4PY_MODE", "OMP4PY_LINT",
    # observability and hang diagnostics
    "OMP4PY_TRACE", "OMP4PY_METRICS", "OMP4PY_METRICS_PORT",
    "OMP4PY_PROFILE", "OMP4PY_PROFILE_HZ",
    "OMP4PY_FLIGHT", "OMP4PY_WATCHDOG", "OMP4PY_WATCHDOG_EXIT",
    # pool, backend, serving
    "OMP4PY_POOL_IDLE_TIMEOUT", "OMP4PY_BACKEND",
    "OMP4PY_SERVE_PORT", "OMP4PY_SERVE_WORKERS", "OMP4PY_SERVE_QUEUE",
)

_TRUE_STRINGS = frozenset({"1", "true", "yes", "on"})
_FALSE_STRINGS = frozenset({"0", "false", "no", "off"})


def _parse_bool(name: str, value: str) -> bool:
    lowered = value.strip().lower()
    if lowered in _TRUE_STRINGS:
        return True
    if lowered in _FALSE_STRINGS:
        return False
    raise OmpError(f"{name} must be a boolean value, got {value!r}")


def _parse_positive_int(name: str, value: str) -> int:
    try:
        parsed = int(value)
    except ValueError:
        raise OmpError(f"{name} must be an integer, got {value!r}") from None
    if parsed <= 0:
        raise OmpError(f"{name} must be positive, got {parsed}")
    return parsed


def parse_schedule(value: str) -> tuple[str, int | None]:
    """Parse an ``OMP_SCHEDULE``-style string like ``"dynamic,4"``.

    Returns ``(kind, chunk)`` where ``chunk`` is ``None`` when omitted.
    ``runtime`` is rejected here because an ICV cannot point at itself.
    """
    text = value.strip().lower()
    chunk: int | None = None
    if "," in text:
        kind_text, chunk_text = text.split(",", 1)
        kind = kind_text.strip()
        chunk = _parse_positive_int("OMP_SCHEDULE chunk", chunk_text.strip())
    else:
        kind = text
    if kind not in SCHEDULE_KINDS or kind == "runtime":
        raise OmpError(f"invalid OMP_SCHEDULE kind {kind!r}")
    return kind, chunk


def available_cpus() -> int:
    """CPUs actually usable by this process.

    Prefers ``os.process_cpu_count()`` (3.13+), which honours CPU
    affinity masks and cgroup-style restrictions, over the raw machine
    count — on a shared CI runner the two can differ wildly, and team
    sizing / ``omp_get_num_procs`` must not oversubscribe the cores the
    scheduler will actually grant.  Falls back to the affinity mask and
    finally ``os.cpu_count()`` on older interpreters.
    """
    process_count = getattr(os, "process_cpu_count", None)
    if process_count is not None:
        count = process_count()
        if count:
            return count
    affinity = getattr(os, "sched_getaffinity", None)
    if affinity is not None:
        try:
            return len(affinity(0)) or 1
        except OSError:  # pragma: no cover - platform without affinity
            pass
    return os.cpu_count() or 1


def default_num_threads() -> int:
    """Initial ``nthreads-var``: ``OMP_NUM_THREADS`` or the CPU count."""
    raw = os.environ.get("OMP_NUM_THREADS")
    if raw:
        # OpenMP allows a comma-separated list (one value per nesting
        # level); we honour the first entry like most implementations.
        return _parse_positive_int("OMP_NUM_THREADS", raw.split(",")[0])
    return available_cpus()


def default_schedule() -> tuple[str, int | None]:
    """Initial ``run-sched-var`` from ``OMP_SCHEDULE`` (default static)."""
    raw = os.environ.get("OMP_SCHEDULE")
    if raw:
        return parse_schedule(raw)
    return "static", None


def default_dynamic() -> bool:
    raw = os.environ.get("OMP_DYNAMIC")
    return _parse_bool("OMP_DYNAMIC", raw) if raw else False


def default_nested() -> bool:
    raw = os.environ.get("OMP_NESTED")
    return _parse_bool("OMP_NESTED", raw) if raw else False


def default_thread_limit() -> int:
    raw = os.environ.get("OMP_THREAD_LIMIT")
    if raw:
        return _parse_positive_int("OMP_THREAD_LIMIT", raw)
    return 2**31 - 1


def default_max_active_levels() -> int:
    raw = os.environ.get("OMP_MAX_ACTIVE_LEVELS")
    if raw:
        return _parse_positive_int("OMP_MAX_ACTIVE_LEVELS", raw)
    return 2**31 - 1


#: Wait policies accepted by ``OMP_WAIT_POLICY``.
WAIT_POLICIES = ("active", "passive")

#: ``OMP_PROC_BIND`` values after normalization (``master`` is the
#: deprecated spelling of ``primary``; ``true`` binds like ``close``).
PROC_BIND_KINDS = ("false", "primary", "close", "spread")


def default_wait_policy() -> str:
    """Initial ``wait-policy-var`` from ``OMP_WAIT_POLICY``.

    ``passive`` (the default) parks pool workers on events immediately;
    ``active`` spins briefly first, trading CPU for fork/join latency.
    """
    raw = os.environ.get("OMP_WAIT_POLICY")
    if not raw:
        return "passive"
    policy = raw.strip().lower()
    if policy not in WAIT_POLICIES:
        raise OmpError(f"OMP_WAIT_POLICY must be one of {WAIT_POLICIES}, "
                       f"got {raw!r}")
    return policy


def places_spec() -> str | None:
    """Raw ``OMP_PLACES`` value, or ``None`` when unset/empty.

    Parsing lives in :func:`repro.affinity.places.parse_places`; this
    only decides whether affinity is requested at all.
    """
    raw = os.environ.get("OMP_PLACES")
    if raw is None or not raw.strip():
        return None
    return raw.strip()


def default_proc_bind() -> str:
    """Initial ``bind-var`` from ``OMP_PROC_BIND``, normalized.

    ``master`` (deprecated) maps to ``primary`` and ``true`` to
    ``close``.  Per OpenMP 4.0, setting ``OMP_PLACES`` without
    ``OMP_PROC_BIND`` implies binding, so the default is ``close`` when
    places are defined and ``false`` otherwise.
    """
    raw = os.environ.get("OMP_PROC_BIND")
    if not raw:
        return "close" if places_spec() is not None else "false"
    policy = raw.strip().lower()
    if policy == "master":
        policy = "primary"
    elif policy == "true":
        policy = "close"
    if policy not in PROC_BIND_KINDS:
        raise OmpError(
            f"OMP_PROC_BIND must be one of "
            f"{PROC_BIND_KINDS + ('true', 'master')}, got {raw!r}")
    return policy


#: Values accepted by ``OMP4PY_BACKEND``.
BACKEND_SPECS = ("auto", "gil", "nogil")


def backend_spec() -> str:
    """``OMP4PY_BACKEND``: the execution-backend request, normalized.

    ``auto`` (the default) detects free-threading at import
    (:mod:`repro.runtime.gilstate`); ``gil`` forces the projection
    accounting even on a free-threaded interpreter; ``nogil`` asserts
    true parallelism and is an error on a GIL-enabled interpreter (the
    assertion failing loudly beats silently reporting projected numbers
    as measured ones).
    """
    raw = os.environ.get("OMP4PY_BACKEND")
    if raw is None or not raw.strip():
        return "auto"
    spec = raw.strip().lower()
    if spec not in BACKEND_SPECS:
        raise OmpError(f"OMP4PY_BACKEND must be one of {BACKEND_SPECS}, "
                       f"got {raw!r}")
    return spec


def pool_idle_timeout() -> float:
    """``OMP4PY_POOL_IDLE_TIMEOUT``: seconds a parked pool worker waits
    for its next region before trimming itself (default 30)."""
    raw = os.environ.get("OMP4PY_POOL_IDLE_TIMEOUT")
    if not raw:
        return 30.0
    try:
        timeout = float(raw)
    except ValueError:
        raise OmpError(f"OMP4PY_POOL_IDLE_TIMEOUT must be a number of "
                       f"seconds, got {raw!r}") from None
    if timeout <= 0:
        raise OmpError(f"OMP4PY_POOL_IDLE_TIMEOUT must be positive, "
                       f"got {timeout}")
    return timeout


def _observability_spec(name: str) -> str | None:
    """Parse an on/off/path observability knob.

    Returns ``None`` when unset or explicitly off, the sentinel ``"1"``
    for bare enablement, or the output path the artifact should be
    written to at interpreter exit.
    """
    raw = os.environ.get(name)
    if raw is None:
        return None
    value = raw.strip()
    if not value or value.lower() in _FALSE_STRINGS:
        return None
    if value.lower() in _TRUE_STRINGS:
        return "1"
    return value


def trace_spec() -> str | None:
    """``OMP4PY_TRACE``: ``None`` / ``"1"`` / an output path."""
    return _observability_spec("OMP4PY_TRACE")


def metrics_spec() -> str | None:
    """``OMP4PY_METRICS``: ``None`` / ``"1"`` / an output path."""
    return _observability_spec("OMP4PY_METRICS")


def profile_spec() -> str | None:
    """``OMP4PY_PROFILE``: ``None`` / ``"1"`` / an output path.

    Arms the sampling profiler (:mod:`repro.sampling`) on every
    runtime the ``@omp`` decorator binds; a path writes the folded
    stacks at interpreter exit (speedscope JSON for ``.json`` paths,
    collapsed text otherwise).
    """
    return _observability_spec("OMP4PY_PROFILE")


#: Default sampling rate: 200 Hz == one sample per 5 ms.
DEFAULT_PROFILE_HZ = 200.0


def profile_hz() -> float:
    """``OMP4PY_PROFILE_HZ``: sampling rate in samples per second.

    Default 200 (5 ms interval); capped at 10 kHz because a pure-Python
    sampler cannot honour more and would only burn the GIL trying.
    """
    raw = os.environ.get("OMP4PY_PROFILE_HZ")
    if raw is None or not raw.strip():
        return DEFAULT_PROFILE_HZ
    try:
        hz = float(raw)
    except ValueError:
        raise OmpError(f"OMP4PY_PROFILE_HZ must be a sampling rate in "
                       f"Hz, got {raw!r}") from None
    if hz <= 0:
        raise OmpError(f"OMP4PY_PROFILE_HZ must be positive, got {hz}")
    return min(hz, 10_000.0)


def metrics_port() -> int | None:
    """``OMP4PY_METRICS_PORT``: serve live ``/metrics`` + ``/explain``.

    ``None`` when unset/off; otherwise a TCP port for the in-process
    observability endpoint (:mod:`repro.explain.live`).  ``0`` binds an
    ephemeral port (announced on stderr when it is armed).
    """
    raw = os.environ.get("OMP4PY_METRICS_PORT")
    if raw is None:
        return None
    value = raw.strip()
    # "0" is a valid request (bind an ephemeral port), so unlike the
    # other knobs only the word-y false spellings disable this one.
    if not value or value.lower() in ("false", "no", "off"):
        return None
    try:
        port = int(value)
    except ValueError:
        raise OmpError(f"OMP4PY_METRICS_PORT must be a TCP port number, "
                       f"got {raw!r}") from None
    if not 0 <= port <= 65535:
        raise OmpError(f"OMP4PY_METRICS_PORT must be in [0, 65535], "
                       f"got {port}")
    return port


@dataclasses.dataclass(frozen=True)
class FlightSpec:
    """Parsed ``OMP4PY_FLIGHT``: ring capacity and optional dump path."""

    capacity: int = 256
    path: str | None = None


@dataclasses.dataclass(frozen=True)
class WatchdogSpec:
    """Parsed ``OMP4PY_WATCHDOG`` (+ ``OMP4PY_WATCHDOG_EXIT``)."""

    interval: float = 5.0
    path: str | None = None
    exit_on_deadlock: bool = False


def flight_spec() -> FlightSpec | None:
    """``OMP4PY_FLIGHT``: ``None`` when off, else capacity and path.

    Accepted forms: a true/false string, a ring capacity (``512``), a
    dump path (``flight.json``), or ``capacity:path``.
    """
    raw = os.environ.get("OMP4PY_FLIGHT")
    if raw is None:
        return None
    value = raw.strip()
    if not value or value.lower() in _FALSE_STRINGS:
        return None
    if value.lower() in _TRUE_STRINGS:
        return FlightSpec()
    head, _sep, tail = value.partition(":")
    try:
        capacity = int(head)
    except ValueError:
        return FlightSpec(path=value)
    if capacity <= 0:
        raise OmpError(f"OMP4PY_FLIGHT capacity must be positive, "
                       f"got {capacity}")
    return FlightSpec(capacity=capacity, path=tail or None)


def watchdog_spec() -> WatchdogSpec | None:
    """``OMP4PY_WATCHDOG``: ``None`` when off, else interval/path/exit.

    Accepted forms: a true/false string (default 5 s interval), an
    interval in seconds (``0.5``), or ``interval:report-path``.  A
    truthy ``OMP4PY_WATCHDOG_EXIT`` makes a deadlock verdict terminate
    the process with :data:`repro.diagnostics.watchdog.DEADLOCK_EXIT_CODE`.
    """
    raw = os.environ.get("OMP4PY_WATCHDOG")
    if raw is None:
        return None
    value = raw.strip()
    if not value or value.lower() in _FALSE_STRINGS:
        return None
    exit_raw = os.environ.get("OMP4PY_WATCHDOG_EXIT")
    exit_on_deadlock = bool(
        exit_raw) and _parse_bool("OMP4PY_WATCHDOG_EXIT", exit_raw)
    if value.lower() in _TRUE_STRINGS:
        return WatchdogSpec(exit_on_deadlock=exit_on_deadlock)
    head, _sep, tail = value.partition(":")
    try:
        interval = float(head)
    except ValueError:
        raise OmpError(f"OMP4PY_WATCHDOG must be an interval in seconds "
                       f"(optionally ':report-path'), got {raw!r}") from None
    if interval <= 0:
        raise OmpError(f"OMP4PY_WATCHDOG interval must be positive, "
                       f"got {interval}")
    return WatchdogSpec(interval=interval, path=tail or None,
                        exit_on_deadlock=exit_on_deadlock)


#: Default TCP port for ``python -m repro.serve``.
DEFAULT_SERVE_PORT = 8571


def serve_port() -> int:
    """``OMP4PY_SERVE_PORT``: default port for the serving front door.

    ``0`` binds an ephemeral port (announced on stdout by the CLI).
    """
    raw = os.environ.get("OMP4PY_SERVE_PORT")
    if raw is None or not raw.strip():
        return DEFAULT_SERVE_PORT
    try:
        port = int(raw.strip())
    except ValueError:
        raise OmpError(f"OMP4PY_SERVE_PORT must be a TCP port number, "
                       f"got {raw!r}") from None
    if not 0 <= port <= 65535:
        raise OmpError(f"OMP4PY_SERVE_PORT must be in [0, 65535], "
                       f"got {port}")
    return port


def serve_workers() -> int:
    """``OMP4PY_SERVE_WORKERS``: default worker-process count.

    Defaults to ``min(4, cpu count)`` — one warm runtime per worker is
    the unit of serving parallelism.
    """
    raw = os.environ.get("OMP4PY_SERVE_WORKERS")
    if raw is None or not raw.strip():
        return max(1, min(4, available_cpus()))
    return _parse_positive_int("OMP4PY_SERVE_WORKERS", raw.strip())


def serve_queue() -> int:
    """``OMP4PY_SERVE_QUEUE``: default admission-queue capacity.

    ``0`` is valid and means hand-off only: accept a request only when
    an idle worker can take it immediately, shed everything else.
    """
    raw = os.environ.get("OMP4PY_SERVE_QUEUE")
    if raw is None or not raw.strip():
        return 16
    try:
        capacity = int(raw.strip())
    except ValueError:
        raise OmpError(f"OMP4PY_SERVE_QUEUE must be an integer, "
                       f"got {raw!r}") from None
    if capacity < 0:
        raise OmpError(f"OMP4PY_SERVE_QUEUE must be >= 0, "
                       f"got {capacity}")
    return capacity


def decorator_default(name: str, fallback):
    """Default value of an ``omp`` decorator argument.

    ``name`` is the lowercase argument name; the environment variable is
    ``OMP4PY_<NAME>``.  Booleans are parsed leniently; strings pass
    through unchanged.
    """
    raw = os.environ.get("OMP4PY_" + name.upper())
    if raw is None:
        return fallback
    if isinstance(fallback, bool):
        return _parse_bool("OMP4PY_" + name.upper(), raw)
    return raw
