"""Run-time half of the native CompiledDT tier.

The compiler (:mod:`repro.compiler.cbackend`) turns typed loops into C
functions and builds them into a shared object beside the definition's
cache entry; this module is everything a process needs to *run* them —
it lives beside the runtime the code runs on, so a cache hit loads
nothing of :mod:`repro.compiler` and needs no C compiler:

* :func:`find_compiler` — the one capability probe of the tier (the
  miss path asks it whether to emit C at all, ``repro.doctor env
  --verbose`` prints what it found);
* :func:`bind` — the kernels of one variant as callables.  The shared
  object is opened with :class:`ctypes.CDLL` at the *first call*, never
  at bind time: a forked serve worker maps it for itself and the
  nursery it was forked from never does.  ``CDLL`` functions release
  the GIL for the duration of the call, which is what lets two members
  of a team overlap inside their chunks.

A kernel call is guarded: operands that are not what the C text was
typed for (a list, another dtype, a read-only store target, a float in
an ``int`` name) make the call return ``None`` *before* anything ran,
and the generated code then runs the loop the kernel stands for, as
written.  So does an empty range, whose loop leaves every name as it
was (the kernel would pass back what it was given for the names it
only writes).  A shared object that cannot be loaded does the same for
every call, and is removed so the next miss rebuilds it.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
from time import perf_counter

import numpy as np

_INT64_MAX = 2 ** 63 - 1
_DTYPES = {"d": np.dtype(np.float64), "i": np.dtype(np.int64)}


# ----------------------------------------------------------------------
# The capability probe.


def find_compiler() -> tuple[list[str] | None, str]:
    """``(argv, "")`` of the C compiler to build kernels with, or
    ``(None, reason)``.  ``CC`` is honoured (and may carry options);
    without it ``gcc`` and ``cc`` are looked up on ``PATH``."""
    argv, reason = _find_compiler(os.environ.get("CC"),
                                  os.environ.get("PATH"))
    return (list(argv) if argv else None), reason


@functools.lru_cache(maxsize=8)
def _find_compiler(cc: str | None, path: str | None):
    import shlex
    import shutil
    if cc:
        words = shlex.split(cc)
        found = shutil.which(words[0], path=path) if words else None
        if found is None:
            return None, f"CC={cc!r} not found"
        return (found, *words[1:]), ""
    for name in ("gcc", "cc"):
        found = shutil.which(name, path=path)
        if found is not None:
            return (found,), ""
    return None, "no C compiler (gcc, cc) on PATH"


@functools.lru_cache(maxsize=8)
def compiler_identity(argv: tuple[str, ...]) -> str | None:
    """First line of ``<compiler> --version``; part of every shared
    object's name, so a compiler upgrade rebuilds instead of reusing."""
    import subprocess
    try:
        out = subprocess.run([*argv, "--version"], capture_output=True,
                             text=True, timeout=10, check=True,
                             stdin=subprocess.DEVNULL)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = out.stdout.splitlines()
    return lines[0].strip() if lines else None


def describe() -> str:
    """What ``[omp4py] native`` reports: compiler path and version, or
    ``none (<reason>)``."""
    argv, reason = find_compiler()
    if argv is None:
        return f"none ({reason})"
    identity = compiler_identity(tuple(argv))
    if identity is None:
        return f"none ({argv[0]} --version failed)"
    return f"{' '.join(argv)} ({identity})"


# ----------------------------------------------------------------------
# The loader.

_SEAL = b"\nomp4py-sha256:"


def seal(image: bytes) -> bytes:
    """What the build appends to a finished shared object (the dynamic
    loader ignores bytes after the last section): the digest of what
    precedes it."""
    return _SEAL + hashlib.sha256(image).hexdigest().encode()


def is_whole(path: str) -> bool:
    """Is the file a shared object exactly as the build left it?  The
    dynamic loader maps a file that was cut short without complaint and
    the process dies of ``SIGBUS`` on first touch, so nothing is handed
    to it unchecked.  ``OSError`` when the file cannot be read."""
    with open(path, "rb") as handle:
        data = handle.read()
    image, mark, digest = data.rpartition(_SEAL)
    return bool(mark) and seal(image) == mark + digest


class _Library:
    """One shared object, opened on first use — twice: through
    :class:`ctypes.CDLL`, whose functions release the GIL around the
    call, and through :class:`ctypes.PyDLL`, whose functions keep it
    (see :func:`_make_caller` for which call gets which)."""

    def __init__(self, path: str):
        self.path = path
        self._handles = None  # None: not tried; False: unusable

    @property
    def unusable(self) -> bool:
        return self._handles is False

    def functions(self, name: str):
        """``(GIL-holding, GIL-releasing)`` forms of the C function, or
        ``False`` when the object cannot serve it (missing, cut short,
        garbage, another architecture's)."""
        if self._handles is None:
            try:
                if not is_whole(self.path):
                    raise OSError("damaged shared object")
                self._handles = (ctypes.PyDLL(self.path),
                                 ctypes.CDLL(self.path))
            except OSError:
                self._handles = False
                try:
                    os.unlink(self.path)  # the next miss rebuilds it
                except OSError:
                    pass
        if self._handles is False:
            return False
        try:
            functions = tuple(getattr(handle, name)
                              for handle in self._handles)
        except AttributeError:
            return False
        for function in functions:
            function.argtypes = [ctypes.c_void_p, ctypes.c_void_p]
            function.restype = ctypes.c_int64
        return functions


#: A call predicted to run longer than this releases the GIL.  Handing
#: the GIL over and getting it back costs tens of microseconds when
#: another thread wants it, so a kernel of a few iterations (a
#: ``schedule(static, 1)`` chunk) is faster keeping it, while a chunk
#: worth overlapping is far above.
_RELEASE_S = 50e-6


def _make_caller(library: _Library, spec: tuple):
    """The Python side of one kernel, written out for its signature.

    ``caller(lo, hi, step, *scalars, *carried, *arrays)`` checks every
    operand against what the C text was typed for and returns ``None``
    — nothing has run — when one does not fit; otherwise it lays the
    operands out in the two vectors the kernel reads
    (``cbackend.SiteCompiler._assemble``), runs it and returns the
    carried values as a tuple.  Straight-line code instead of a loop
    over the spec halves the cost of a call, which is all there is to
    a one-iteration chunk.  The library is opened by the first call,
    and a library that cannot be opened makes every call return
    ``None``.
    """
    cname, scalars, arrays, carried = spec
    kinds = "iii" + scalars + carried
    names = [f"v{k}" for k in range(len(kinds))]
    ints = [name for name, kind in zip(names, kinds) if kind == "i"]
    doubles = [name for name, kind in zip(names, kinds) if kind == "d"]
    results = [f"{'dv' if kind == 'd' else 'iv'}"
               f"[{(doubles if kind == 'd' else ints).index(name)}]"
               for name, kind in list(zip(names, kinds))[-len(carried):]] \
        if carried else []
    lines = [f"def {cname}("
             + ", ".join(names + [f"a{k}" for k in range(len(arrays))])
             + "):",
             "    if not held:",
             "        if held is False or not load():",
             "            return None"]
    for name, kind in zip(names, kinds):
        lines += [f"    if type({name}) is not "
                  f"{'int' if kind == 'i' else 'float'}:",
                  f"        {name} = convert({kind!r}, {name})",
                  f"        if {name} is None:",
                  "            return None"]
        if kind == "i":  # ctypes would truncate it silently
            lines += [f"    if not -M <= {name} <= M:",
                      "        return None"]
    lines += ["    if v1 <= v0 if v2 > 0 else v0 <= v1:  # an empty range",
              "        return None"]
    error_at = len(ints)
    for k, (kind, ndim, stored) in enumerate(arrays):
        lines += [
            f"    if type(a{k}) is not ndarray or a{k}.ndim != {ndim} "
            f"or (a{k}.dtype is not dtype_{kind} "
            f"and a{k}.dtype != dtype_{kind}):",
            "        return None",
            f"    flags = a{k}.flags",
            "    if not flags.aligned"
            + (" or not flags.writeable" if stored else "") + ":",
            "        return None",
            "    try:  # the cheap way, for a contiguous writable buffer",
            f"        p{k} = addressof(byte.from_buffer(a{k}))",
            "    except (TypeError, ValueError):",
            f"        p{k} = a{k}.ctypes.data"]
        ints += [f"p{k}", f"*a{k}.shape", f"*a{k}.strides"]
        error_at += 1 + 2 * ndim
    lines += [
        f"    iv = IV({', '.join(ints)})",
        f"    dv = DV({', '.join(doubles)})" if doubles else "    dv = None",
        "    trips = (v1 - v0) // v2 if v2 else 0  # near enough to pace",
        # Keep the GIL for a call too short to be worth a hand-over (the
        # first call always does, to take the site's pace).
        "    free = pace[0] * trips > RELEASE_S",
        "    begin = perf_counter()",
        "    status = (released if free else held)(iv, dv)",
        "    if trips > 0:",
        # Waiting to get the GIL back is not the kernel's time: a call
        # that released it may lower the pace, not raise it.
        "        seconds = (perf_counter() - begin) / trips",
        "        if not free or seconds < pace[0]:",
        "            pace[0] = seconds",
        "    if status:",
        f"        fail(status, iv[{error_at}:{error_at + 3}])",
        f"    return ({''.join(result + ', ' for result in results)})"]
    namespace = {
        "convert": _convert, "M": _INT64_MAX, "ndarray": np.ndarray,
        "dtype_d": _DTYPES["d"], "dtype_i": _DTYPES["i"],
        "addressof": ctypes.addressof, "byte": ctypes.c_char,
        "IV": ctypes.c_int64 * (error_at + 3),
        "DV": ctypes.c_double * max(1, len(doubles)),
        "perf_counter": perf_counter, "RELEASE_S": _RELEASE_S,
        #: Seconds per iteration of the site's loop, as last measured.
        "pace": [0.0], "held": None, "released": None, "fail": _raise}

    def load() -> bool:
        functions = library.functions(cname)
        namespace["held"], namespace["released"] = functions or (False,
                                                                 False)
        return functions is not False

    namespace["load"] = load
    exec("\n".join(lines), namespace)  # noqa: S102 - text built above
    return namespace[cname]


def _convert(kind: str, value):
    """``value`` as what a C ``int64_t`` (``"i"``) or ``double``
    (``"d"``) parameter takes, or ``None`` when the name holds something
    its annotation did not promise.  An integer in a ``float`` name
    converts as Python's mixed arithmetic would; ``bool`` counts as the
    integer it is."""
    if kind == "i":
        return int(value) if isinstance(value, (int, np.integer)) else None
    if isinstance(value, (float, int, np.integer)):
        try:
            return float(value)
        except OverflowError:
            return None
    return None


def _raise(status: int, error) -> None:
    if status == 1:
        raise IndexError(f"index {error[0]} is out of bounds for axis "
                         f"{error[1]} with size {error[2]}")
    if status == 2:
        raise ZeroDivisionError("integer division or modulo by zero")
    if status == 3:
        raise ValueError("range() arg 3 must not be zero")
    raise RuntimeError(f"native kernel returned status {status}")


#: path -> library, so the variants of one process share a mapping.
_libraries: dict[str, _Library] = {}


class _Kernel:
    """One site's callable.  Its caller is written and compiled at the
    first call, not when the variant is bound: a transform that hits
    the cache stays a few attribute stores per site."""

    __slots__ = ("_library", "_spec", "_caller")

    def __init__(self, library: _Library, spec: tuple):
        self._library = library
        self._spec = spec
        self._caller = None

    def __call__(self, *operands):
        caller = self._caller
        if caller is None:
            caller = self._caller = _make_caller(self._library, self._spec)
        return caller(*operands)


def bind(path: str, specs) -> tuple:
    """The kernels of the shared object at ``path`` as callables, one
    per spec (see :class:`repro.compiler.cbackend.Site`), in site order.
    Nothing is opened, or compiled, until one of them is called."""
    library = _libraries.get(path)
    if library is None or library.unusable:  # rebuilt since, maybe
        library = _libraries[path] = _Library(path)
    return tuple(_Kernel(library, tuple(spec)) for spec in specs)
