"""The ``@omp`` decorator driver: source → AST → transform → compile →
exec, the first four once per source.

As described in the paper (Section III-A): the decorator extracts the
target's source with :mod:`inspect`, builds an AST, processes every
directive, strips the decorator (so the result is not reprocessed),
compiles the modified tree, and executes it so the transformed object
replaces the original.

What the pipeline produces up to ``exec`` — the code object, the
generated source and, for a CompiledDT variant with typed loops, the
shared object of its C kernels — is kept in a persistent,
content-addressed cache (the paper's ``cache`` option, on by default:
see :func:`transform`), so a process that meets a source some earlier
process has transformed only reads and executes.  The transformer
itself (:mod:`repro.transform.rewriter`, :mod:`repro.directives`,
:mod:`repro.compiler`) and the C compiler are needed by the first miss,
not by this module and not by a hit.
"""

from __future__ import annotations

import ast
import functools
import hashlib
import importlib.util
import inspect
import marshal
import os
import sys
import textwrap
import threading
import types

from repro import env
from repro.errors import OmpTransformError
from repro.modes import Mode, default_mode


def runtime_for(mode: Mode):
    """The runtime instance a mode binds as its handle.

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


def _handle_for(mode: Mode) -> str:
    """The identifier generated code reaches :func:`runtime_for` by.

    One name per runtime, not per transform: generated code outlives
    the process that generated it, and variants of one module bound to
    different runtimes must not meet on a name in its globals.
    """
    return "__omp0__" if mode is Mode.PURE else "__omp1__"


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


def _locate(target) -> tuple[list[str], tuple[str, int]]:
    """The lines of the file that defines ``target`` and the target's
    origin ``(file, first line)`` — no tokenising: cutting the target's
    own block out of the lines is left to whoever needs it."""
    try:
        lines, index = inspect.findsource(inspect.unwrap(target))
        source_file = inspect.getsourcefile(target)
    except (TypeError, OSError) as error:
        raise OmpTransformError(
            f"cannot retrieve the source of {target!r}; the omp decorator "
            f"needs file-backed source code") from error
    return lines, (source_file or "<unknown>", index + 1)


def _parse_block(lines: list[str]) -> ast.Module:
    """The tree of the definition that starts at ``lines[0]``."""
    return ast.parse(textwrap.dedent("".join(inspect.getblock(lines))))


def _get_source_tree(target) -> ast.Module:
    lines, (_file, first_line) = _locate(target)
    return _parse_block(lines[first_line - 1:])


def transform(target, mode: Mode | str | int | None = None, *,
              dump: bool = False, debug: bool = False,
              live_globals: bool = False, cache: str | None = None,
              force: bool = False, options: dict | None = None,
              lint: str | None = None):
    """Transform a function or class for the given execution mode.

    ``live_globals=True`` executes the result in the target's own module
    namespace (decorator behaviour); otherwise a snapshot namespace is
    used so several mode variants of one function can coexist.

    The generated code is looked up in a persistent cache first (the
    paper's ``cache`` decorator option) and a hit skips the whole
    transformation; apart from the time and ``__omp_cached__`` the
    result is the one a miss builds.  ``cache`` names the directory;
    left out, it is ``OMP4PY_CACHE``, else ``$XDG_CACHE_HOME/omp4py``,
    else ``~/.cache/omp4py``.  An entry is keyed by everything the
    generated code depends on (:func:`_entry_path`), so editing the
    source, changing an argument, upgrading Python or touching the
    transformer misses; a directory that cannot be written means no
    cache, silently.  ``force`` (or ``OMP4PY_FORCE``) reprocesses and
    rewrites regardless, and so does ``debug``, whose point is what
    the compiler prints on the way.  Nothing is ever evicted: deleting
    the directory is always safe.

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
    lines, origin = _locate(target)
    first_line = origin[1]
    filename = f"<omp4py:{target.__module__}.{target.__qualname__}>"
    from repro.diagnostics.origin import register_origin
    register_origin(filename, *origin)

    options = options or {}
    force = force or env.decorator_default("force", False)
    path = _entry_path(cache, target, mode, lines, first_line, globalns,
                       options, debug)
    entry = _load_entry(path) if path and not (force or debug) else None
    if entry is not None and not _native_current(entry[2], path):
        entry = None
    cached = entry is not None
    if not cached:
        entry = _generate(lines[first_line - 1:], mode, filename,
                          target.__module__, globalns, debug,
                          native_dir=os.path.dirname(path) if path else None)
        if path:
            _store_entry(path, entry)
    code, generated, native = entry
    if native is not None and "so" not in native:
        native = None  # interpreted loops, whatever the reason
    if dump:
        print(f"# --- omp4py generated code ({mode.value}) ---",
              file=sys.stderr)
        print(generated, file=sys.stderr)
        if native is not None:
            print("/* --- omp4py native kernels --- */", file=sys.stderr)
            print(native["c"], file=sys.stderr)

    # Execute the generated code; return what it defines.
    name = target.__name__
    namespace = globalns if live_globals else dict(globalns)
    namespace[_handle_for(mode)] = runtime_for(mode)
    if native is not None:
        from repro.cruntime.native import bind
        namespace[native["handle"]] = bind(
            os.path.join(os.path.dirname(path), native["so"]),
            native["sites"])
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
        result.__omp_source__ = generated
        result.__omp_cached__ = cached
        result.__omp_native__ = tuple(native["ids"]) if native else ()
    except (AttributeError, TypeError):  # pragma: no cover - exotic
        pass
    return result


def _generate(lines: list[str], mode: Mode, filename: str,
              module_name: str, globalns: dict, debug: bool,
              native_dir: str | None = None) -> tuple:
    """Run the pipeline over the definition that starts at
    ``lines[0]``: ``(code, generated source, native)``, which is also
    what a cache entry holds.

    ``native`` is ``None`` for a variant with no loop that has a C form,
    what :func:`repro.cruntime.native.bind` needs (``handle``, ``so``,
    ``sites``, plus the C text and the site ids) when its kernels were
    built into ``native_dir``, and ``{"pending": reason, "retry": …}``
    when they could not be: its loops then run interpreted.
    """
    from repro.transform.context import TransformContext
    from repro.transform.rewriter import transform_function_def

    tree = _parse_block(lines)
    node = tree.body[0]
    if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
        raise OmpTransformError(
            f"cannot transform {filename}: its source is not a plain "
            f"def/class statement (lambdas are not supported)")
    node.decorator_list = []

    ctx = TransformContext(
        rt_name=_handle_for(mode),
        module_globals=set(globalns),
        taken_names=_collect_identifiers(tree),
        filename=filename,
        module_name=module_name)

    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        transform_function_def(node, ctx)
    else:
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                transform_function_def(item, ctx)

    native = None
    if mode.compiles_user_code:
        from repro.compiler import NativeBuildFailed, optimize
        try:
            node = optimize(node, ctx, typed=(mode is Mode.COMPILED_DT),
                            debug=debug, native_dir=native_dir)
        except NativeBuildFailed as failure:
            # The tree was rewritten to call kernels that do not exist:
            # generate again without them, and let the entry say why so
            # the build is not retried on every transform.
            return (*_generate(lines, mode, filename, module_name,
                               globalns, debug)[:2],
                    {"pending": failure.reason, "retry": False})
        native = ctx.native

    # Every node is located by now (see transform_function_def; the
    # compiler passes locate what they add), so no pass is needed here.
    module = ast.Module(body=[node], type_ignores=[])
    return (compile(module, filename=filename, mode="exec"),
            ast.unparse(module), native)


# ----------------------------------------------------------------------
# The code cache: one file per key, ``MAGIC_NUMBER`` + marshal.  Entries
# are trusted the way ``__pycache__`` is: the directory is the user's.

#: What ``.pyc`` files start with: an entry written by an interpreter
#: whose bytecode differs is a miss, not a crash.
_MAGIC = importlib.util.MAGIC_NUMBER


@functools.cache
def _fingerprint() -> str:
    """Digest of the sources that decide what gets generated — this
    module and the transformer packages — so editing or upgrading any
    of them invalidates every entry.  Content, not mtimes: a fresh
    checkout of the same commit keeps its hits."""
    root = os.path.dirname(__file__)
    # The loader reads what the compiler wrote into the entry.
    paths = [__file__, os.path.join(root, "cruntime", "native.py")]
    for package in ("transform", "directives", "compiler"):
        for folder, _dirs, files in os.walk(os.path.join(root, package)):
            paths += [os.path.join(folder, name) for name in files
                      if name.endswith(".py")]
    digest = hashlib.sha256()
    for path in sorted(paths):
        digest.update(os.path.relpath(path, root).encode())
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()


def _entry_path(cache: str | None, target, mode: Mode, lines: list[str],
                first_line: int, globalns: dict, options: dict,
                debug: bool) -> str | None:
    """Where the entry of this transformation lives, or ``None`` when
    there is no cache to keep it in.

    The key covers what the generated code is a function of: the
    module and qualified name (the code's filename), the text of the
    defining file and the line the definition starts on (a superset of
    its source that costs no tokenising), the names the module defines
    (they decide ``global`` declarations; the handles earlier
    transforms left there are not the module's), the mode, the
    compiler arguments, the bytecode flavour, and the transformer
    itself.
    """
    directory = cache or env.decorator_default("cache", None)
    if not directory:
        base = os.environ.get("XDG_CACHE_HOME") \
            or os.path.expanduser("~/.cache")
        if not os.path.isabs(base):  # no home to expand: no cache
            return None
        directory = os.path.join(base, "omp4py")
    try:
        fingerprint = _fingerprint()
    except OSError:  # a sourceless install
        return None
    key = hashlib.sha256(repr((
        target.__module__, target.__qualname__, first_line, mode.value,
        sorted(name for name in globalns if not name.startswith("__omp")),
        sorted(options.items()), debug,
        sys.implementation.cache_tag, fingerprint)).encode())
    key.update("".join(lines).encode())
    return os.path.join(directory, key.hexdigest()[:32] + ".omp4py")


def _load_entry(path: str):
    """``(code, generated source, native)`` of a cache entry, or
    ``None`` when it is missing, cut short, garbage or another
    interpreter's (the caller then retransforms and overwrites it)."""
    try:
        with open(path, "rb") as handle:
            data = handle.read()
        if not data.startswith(_MAGIC):
            return None
        code, generated, native = marshal.loads(data[len(_MAGIC):])
    except (OSError, ValueError, EOFError, TypeError):
        return None
    if isinstance(code, types.CodeType) and isinstance(generated, str) \
            and isinstance(native, (dict, type(None))):
        return code, generated, native
    return None


def _native_current(native: dict | None, path: str) -> bool:
    """Does the entry's native half still hold?  Its shared object must
    be in place (one somebody deleted is rebuilt by the miss this turns
    the hit into), and an entry written where no compiler could be found
    is upgraded by the first process that finds one."""
    if native is None:
        return True
    if "so" in native:
        return os.path.exists(
            os.path.join(os.path.dirname(path), native["so"]))
    if native["retry"]:
        from repro.cruntime.native import find_compiler
        return find_compiler()[0] is None
    return True


def _store_entry(path: str, entry: tuple) -> None:
    """Write an entry so that readers only ever see it whole: a
    temporary file of this thread's own, then :func:`os.replace`.  A
    directory that cannot be created or written is not an error."""
    temp = f"{path}.{os.getpid()}-{threading.get_ident()}.tmp"
    try:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(temp, "wb") as handle:
            handle.write(_MAGIC + marshal.dumps(entry))
        os.replace(temp, path)
    except OSError:
        pass
    finally:
        try:
            os.unlink(temp)  # only still there when the above failed
        except OSError:
            pass
