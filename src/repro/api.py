"""Public OMP4Py API: the ``omp`` decorator/marker and the OpenMP
runtime library functions.

``omp`` plays both roles, exactly as in the paper:

* ``omp("parallel for ...")`` — a directive marker.  At runtime it does
  nothing (the decorator removes every call during transformation); used
  in untransformed code it is an inert no-op context manager.
* ``@omp`` / ``@omp(compile=True, ...)`` — the decorator that processes
  the directives of a function or class.

The module-level ``omp_*`` functions mirror the OpenMP runtime library
and delegate to the session's default runtime (*Hybrid* by default, i.e.
the ``cruntime`` instance — like the paper's ``import omp4py``).
Inside decorated code, calls to these names are rebound to the runtime
the decorated object was compiled against.
"""

from __future__ import annotations

import inspect

from repro import env
from repro.decorator import transform
from repro.errors import OmpError
from repro.modes import Mode, default_mode
from repro.transform.api_map import OMP_API_METHODS


class _NoOpDirective:
    """``omp("...")`` outside transformed code: inert, per the paper."""

    __slots__ = ("directive",)

    def __init__(self, directive: str):
        self.directive = directive

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"omp({self.directive!r})"


def omp(target=None, /, **options):
    """Directive marker (string argument) or decorator (callable/None).

    Decorator options mirror the paper's Section III-F: ``compile``
    (Cython-analogue native compilation — annotations present make it
    *CompiledDT*), ``mode`` (explicit execution mode), ``cache`` (the
    directory generated code is kept in and reused from; the cache is
    on without it, under the user's cache directory — see
    :func:`repro.decorator.transform`), ``dump`` (print generated
    code), ``debug``, ``force`` (re-transform despite the cache),
    ``options`` (extra compiler flags), and ``lint``
    (``"warn"``/``"strict"`` — run the static race detector of
    :mod:`repro.lint` first).  Defaults come from ``OMP4PY_*``
    environment variables.
    """
    if isinstance(target, str):
        if options:
            raise OmpError("directive markers take no keyword options")
        return _NoOpDirective(target)
    if target is None:
        return lambda obj: _decorate(obj, options)
    if callable(target):
        return _decorate(target, options)
    raise OmpError(f"omp cannot be applied to {target!r}")


def _decorate(target, options: dict):
    compile_flag = options.pop(
        "compile", env.decorator_default("compile", False))
    mode = options.pop("mode", None)
    if mode is None:
        mode = Mode.COMPILED_DT if compile_flag else default_mode()
    dump = options.pop("dump", env.decorator_default("dump", False))
    debug = options.pop("debug", env.decorator_default("debug", False))
    # ``transform`` reads OMP4PY_CACHE and OMP4PY_FORCE itself: the
    # cache is on for every caller, not only for the decorator.
    cache = options.pop("cache", None)
    force = options.pop("force", False)
    lint = options.pop("lint", env.decorator_default("lint", None))
    extra = options.pop("options", None)
    if options:
        raise OmpError(f"unknown omp decorator options: "
                       f"{sorted(options)}")
    return transform(target, mode, dump=dump, debug=debug, cache=cache,
                     force=bool(force), options=extra, live_globals=True,
                     lint=lint)


# ----------------------------------------------------------------------
# Module-level runtime library, delegating to the default runtime.

def _default_runtime():
    from repro.cruntime import cruntime
    return cruntime


_active_runtime = None


def use_runtime(runtime_or_mode) -> None:
    """Select the runtime behind the module-level ``omp_*`` functions.

    Accepts a :class:`Mode`, a mode name, or a runtime instance.  The
    paper's ``import omp4py.pure`` corresponds to
    ``use_runtime("pure")``.
    """
    global _active_runtime
    if hasattr(runtime_or_mode, "parallel_run"):
        _active_runtime = runtime_or_mode
        return
    from repro.decorator import runtime_for
    _active_runtime = runtime_for(Mode.parse(runtime_or_mode))


def active_runtime():
    return _active_runtime if _active_runtime is not None \
        else _default_runtime()


def _make_api_function(public_name: str, method_name: str):
    def api_function(*args, **kwargs):
        return getattr(active_runtime(), method_name)(*args, **kwargs)

    api_function.__name__ = public_name
    api_function.__qualname__ = public_name
    api_function.__doc__ = (
        f"OpenMP runtime library function; delegates to the active "
        f"runtime's ``{method_name}``.")
    return api_function


_API_FUNCTIONS = {
    public: _make_api_function(public, method)
    for public, method in OMP_API_METHODS.items()
}
globals().update(_API_FUNCTIONS)

__all__ = ["Mode", "omp", "transform", "use_runtime", "active_runtime",
           *_API_FUNCTIONS]

# Keep linters honest about the dynamic exports.
assert all(name in globals() for name in __all__)
assert inspect.isfunction(globals()["omp_get_thread_num"])
