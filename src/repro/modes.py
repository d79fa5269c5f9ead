"""Execution modes of the OMP4Py reproduction.

The paper defines four modes (Section III-B and IV):

* **Pure** — generated code calls the pure-Python ``runtime``.
* **Hybrid** — generated code calls the ``cruntime`` (native in the
  paper; here the second engine instance in :mod:`repro.cruntime`, on
  the same primitives as ``runtime``); user code stays interpreted.
  This is the default.
* **Compiled** — Hybrid plus compilation of the user's code.  In the
  paper this is Cython on unannotated code; here it runs Hybrid's
  generated code unchanged (CPython 3.11's specialising interpreter
  already removes what a bytecode pass could, see
  :mod:`repro.compiler`).
* **CompiledDT** — Compiled plus explicit ``int``/``float`` data-type
  annotations, which turn typed loops into C kernels
  (:mod:`repro.compiler.cbackend`).

Orthogonal to the four modes is the **execution backend**
(:mod:`repro.runtime.gilstate`): every mode runs unchanged on either a
GIL or a free-threaded interpreter, but the backend decides whether the
analysis stack reports projected or measured wall time.
:func:`execution_backend` is the mode layer's accessor.
"""

from __future__ import annotations

import enum

from repro import env
from repro.errors import OmpError


class Mode(enum.Enum):
    """One of the four execution modes described in the paper."""

    PURE = "pure"
    HYBRID = "hybrid"
    COMPILED = "compiled"
    COMPILED_DT = "compileddt"

    @classmethod
    def parse(cls, value: "Mode | str | int") -> "Mode":
        """Accept a ``Mode``, its name, or the paper's numeric CLI code.

        The artifact appendix numbers the modes 0 (Pure) through
        3 (CompiledDT); ``-1`` selects the PyOMP baseline and is rejected
        here because PyOMP is a separate package.
        """
        if isinstance(value, cls):
            return value
        if isinstance(value, int) and not isinstance(value, bool):
            try:
                return _NUMERIC_MODES[value]
            except KeyError:
                raise OmpError(f"unknown mode number {value}") from None
        text = str(value).strip().lower().replace("_", "").replace("-", "")
        for mode in cls:
            if mode.value == text:
                return mode
        if text in ("dt", "compiledwithdatatypes"):
            return cls.COMPILED_DT
        raise OmpError(f"unknown execution mode {value!r}")


_NUMERIC_MODES = {
    0: Mode.PURE,
    1: Mode.HYBRID,
    2: Mode.COMPILED,
    3: Mode.COMPILED_DT,
}

#: Order used by the reports, matching the paper's figures.
ALL_MODES = (Mode.PURE, Mode.HYBRID, Mode.COMPILED, Mode.COMPILED_DT)


def default_mode() -> Mode:
    """Session default: ``OMP4PY_MODE`` or *Hybrid* (as in the paper)."""
    return Mode.parse(env.decorator_default("mode", Mode.HYBRID.value))


def execution_backend():
    """The process-wide execution backend (``Backend.GIL``/``NOGIL``).

    Imported lazily so the mode table stays importable in contexts that
    never touch the runtime (the lint CLI, directive parsing).
    """
    from repro.runtime.gilstate import current_backend
    return current_backend()
