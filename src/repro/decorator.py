"""The ``@omp`` decorator driver: source → AST → transform → exec.

As described in the paper (Section III-A): the decorator extracts the
target's source with :mod:`inspect`, builds an AST, processes every
directive, strips the decorator (so the result is not reprocessed),
compiles the modified tree, and executes it so the transformed object
replaces the original.
"""

from __future__ import annotations

import ast
import hashlib
import inspect
import itertools
import os
import sys
import textwrap

from repro.errors import OmpTransformError
from repro.modes import Mode, default_mode
from repro.transform import transform_function_def
from repro.transform.context import TransformContext

_HANDLE_COUNTER = itertools.count()


def runtime_for(mode: Mode):
    """The runtime instance a mode binds as ``__omp__``.

    The ``OMP4PY_*`` observability knobs (trace, metrics, live
    endpoint, flight recorder, watchdog, sampling profiler) are
    honoured on the way out (:func:`repro.arming.arm_from_env`); unset
    knobs cost a few environment reads, nothing more.
    """
    if mode is Mode.PURE:
        from repro.runtime import pure_runtime
        runtime = pure_runtime
    else:
        from repro.cruntime import cruntime
        runtime = cruntime
    from repro.arming import arm_from_env
    arm_from_env(runtime)
    return runtime


def _is_omp_decorator(node: ast.expr) -> bool:
    target = node.func if isinstance(node, ast.Call) else node
    if isinstance(target, ast.Attribute):
        return target.attr == "omp"
    return isinstance(target, ast.Name) and target.id == "omp"


def _collect_identifiers(tree: ast.AST) -> set[str]:
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.arg):
            names.add(node.arg)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)):
            names.add(node.name)
    return names


def _fetch_source(target) -> tuple[str, tuple[str, int]]:
    """The target's source text and its origin ``(file, first line)``,
    from a single :mod:`inspect` lookup (each one tokenises the file)."""
    try:
        lines, first_line = inspect.getsourcelines(target)
        source_file = inspect.getsourcefile(target)
    except (TypeError, OSError) as error:
        raise OmpTransformError(
            f"cannot retrieve the source of {target!r}; the omp decorator "
            f"needs file-backed source code") from error
    return "".join(lines), (source_file or "<unknown>", first_line)


def _get_source_tree(target) -> ast.AST:
    return ast.parse(textwrap.dedent(_fetch_source(target)[0]))


def transform(target, mode: Mode | str | int | None = None, *,
              dump: bool = False, debug: bool = False,
              live_globals: bool = False, cache: str | None = None,
              force: bool = False, options: dict | None = None,
              lint: str | None = None):
    """Transform a function or class for the given execution mode.

    ``live_globals=True`` executes the result in the target's own module
    namespace (decorator behaviour); otherwise a snapshot namespace is
    used so several mode variants of one function can coexist.

    ``cache`` names a directory of generated sources, keyed by the
    original source text and mode: a hit skips the whole transformation
    (the paper's ``cache`` decorator option); ``force`` reprocesses and
    rewrites regardless.

    ``lint`` runs the static race/misuse detector (:mod:`repro.lint`)
    over the target first: ``"warn"`` turns findings into warnings,
    ``"strict"`` raises :class:`repro.errors.OmpLintError` on
    error-severity findings.
    """
    mode = Mode.parse(mode) if mode is not None else default_mode()
    if lint:
        from repro.lint import enforce
        enforce(target, lint)
    if inspect.isfunction(target):
        if target.__code__.co_freevars:
            raise OmpTransformError(
                f"{target.__qualname__} closes over "
                f"{target.__code__.co_freevars}; the omp decorator only "
                f"supports module-level functions and methods")
        globalns = target.__globals__
    elif inspect.isclass(target):
        globalns = sys.modules[target.__module__].__dict__
    else:
        raise OmpTransformError(
            f"omp can only decorate functions and classes, not {target!r}")

    # The generated code object keeps the (dedented) original linenos,
    # so mapping a runtime frame back to the user's file only needs the
    # source file and the def's first line (see repro.diagnostics.origin).
    # The module qualifies the synthetic filename: every app names its
    # kernel ``kernel``.
    source, origin = _fetch_source(target)
    filename = f"<omp4py:{target.__module__}.{target.__qualname__}>"
    from repro.diagnostics.origin import register_origin
    register_origin(filename, *origin)

    def bind(code, name: str, rt_name: str, needs_kernels: bool,
             **attributes):
        """Execute generated code; return what it defines as ``name``."""
        namespace = globalns if live_globals else dict(globalns)
        namespace[rt_name] = runtime_for(mode)
        if needs_kernels:
            from repro.compiler import kernels
            from repro.compiler.vectorize import KERNEL_HANDLE
            namespace[KERNEL_HANDLE] = kernels
        _MISSING = object()
        previous = namespace.get(name, _MISSING) if live_globals else None
        exec(code, namespace)  # noqa: S102 - the whole point of the decorator
        result = namespace[name]
        if live_globals:
            # Don't clobber the module binding here: the decorator
            # statement itself rebinds the name to our return value, and
            # a plain ``omp(fn)`` call must leave the original untouched.
            if previous is _MISSING:
                del namespace[name]
            else:
                namespace[name] = previous
        try:
            result.__omp_mode__ = mode
            result.__omp_origin__ = origin
            for key, value in attributes.items():
                setattr(result, key, value)
        except (AttributeError, TypeError):  # pragma: no cover - exotic
            pass
        return result

    cache_path = _cache_path(cache, target, mode, source) if cache else None
    if cache_path and not force:
        cached = _load_cache(cache_path)
        if cached is not None:
            code, rt_name, needs_kernels, generated = cached
            return bind(code, target.__name__, rt_name, needs_kernels,
                        __omp_source__=generated, __omp_cached__=True)

    tree = ast.parse(textwrap.dedent(source))
    node = tree.body[0]
    if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
        raise OmpTransformError(
            f"cannot transform {target!r}: its source is not a plain "
            f"def/class statement (lambdas are not supported)")
    node.decorator_list = []

    rt_name = f"__omp{next(_HANDLE_COUNTER)}__"
    ctx = TransformContext(
        rt_name=rt_name,
        module_globals=set(globalns),
        taken_names=_collect_identifiers(tree),
        filename=filename,
        module_name=target.__module__)

    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        transform_function_def(node, ctx)
    else:
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                transform_function_def(item, ctx)

    if mode.compiles_user_code:
        from repro.compiler import optimize
        node = optimize(node, ctx, typed=(mode is Mode.COMPILED_DT),
                        options=options or {}, debug=debug)

    # Every node is located by now (see transform_function_def; the
    # compiler passes locate what they add), so no pass is needed here.
    module = ast.Module(body=[node], type_ignores=[])
    generated = ast.unparse(module)
    if dump:
        print(f"# --- omp4py generated code ({mode.value}) ---",
              file=sys.stderr)
        print(generated, file=sys.stderr)
    needs_kernels = getattr(ctx, "needs_kernels", False)
    if cache_path and (force or not os.path.exists(cache_path)):
        # The header records what the loader must rebind: the runtime
        # handle name baked into the generated code and whether the
        # kernel namespace is referenced.
        os.makedirs(cache, exist_ok=True)
        with open(cache_path, "w", encoding="utf-8") as handle:
            handle.write(f"# omp4py-cache rt={rt_name} "
                         f"kernels={int(needs_kernels)} mode={mode.value}\n"
                         + generated)

    code = compile(module, filename=filename, mode="exec")
    return bind(code, node.name, rt_name, needs_kernels,
                __omp_source__=generated)


def _cache_path(cache_dir: str, target, mode: Mode, source: str) -> str:
    """Key the cache on the original source, so edits invalidate."""
    digest = hashlib.sha256(
        f"{target.__qualname__}:{mode.value}:{source}".encode()
    ).hexdigest()[:16]
    return os.path.join(cache_dir, f"omp4py_{digest}.py")


def _load_cache(path: str):
    """``(code, runtime handle, needs kernels, generated source)`` of a
    cache entry, or ``None`` when it is missing or corrupted (the
    caller then retransforms).

    The whole file is compiled under its own path — the header is a
    comment — so traceback lines match the file on disk.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except FileNotFoundError:
        return None
    header, _newline, body = text.partition("\n")
    try:
        fields = dict(part.split("=", 1) for part in header.split()
                      if "=" in part)
        return (compile(text, filename=path, mode="exec"), fields["rt"],
                fields.get("kernels") == "1", body)
    except (KeyError, ValueError, SyntaxError):
        return None
