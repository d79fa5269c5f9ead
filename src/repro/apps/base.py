"""Common application plumbing: specs, variant caching, registry."""

from __future__ import annotations

import dataclasses
import importlib
from collections.abc import Callable

from repro.decorator import transform
from repro.errors import OmpError
from repro.modes import Mode

#: Registry: app name -> module path (module must define ``SPEC``).
_APP_MODULES = {
    "pi": "repro.apps.pi",
    "jacobi": "repro.apps.jacobi",
    "lu": "repro.apps.lu",
    "md": "repro.apps.md",
    "fft": "repro.apps.fft",
    "qsort": "repro.apps.qsort",
    "bfs": "repro.apps.bfs",
    "clustering": "repro.apps.clustering",
    "wordcount": "repro.apps.wordcount",
}


@dataclasses.dataclass
class AppSpec:
    """Everything the harness needs to run one paper benchmark.

    ``kernel`` is the untyped source function (Pure/Hybrid/Compiled);
    ``kernel_dt`` carries the explicit ``int``/``float`` annotations of
    the paper's *CompiledDT* variant and may expect NumPy inputs (its
    ``make_input`` counterpart is ``make_input_dt`` when the two
    representations differ).  Kernels take ``(threads, **inputs)``.

    ``pyomp`` describes the baseline: a source function when PyOMP
    supports the program, or the string reason it cannot run
    ("compile_error: ..." / "runtime_error: ...") per Section IV-B.
    """

    name: str
    title: str
    make_input: Callable[..., dict]
    sequential: Callable[..., object]
    kernel: Callable[..., object]
    kernel_dt: Callable[..., object]
    verify: Callable[[object, object], bool]
    sizes: dict[str, dict]
    make_input_dt: Callable[..., dict] | None = None
    pyomp: Callable[..., object] | str = "compile_error: unsupported"
    #: Static characteristics row for Table I (features, sync columns).
    table1: tuple[str, str] | None = None
    _variants: dict = dataclasses.field(default_factory=dict)

    def source(self, mode: Mode):
        """The source function a mode transforms."""
        return self.kernel_dt if mode is Mode.COMPILED_DT else self.kernel

    def variant(self, mode: Mode):
        """Transformed kernel for a mode (cached)."""
        cached = self._variants.get(mode)
        if cached is None:
            cached = transform(self.source(mode), mode)
            self._variants[mode] = cached
        return cached

    def pyomp_variant(self):
        """The compiled PyOMP baseline, or raise its documented error."""
        from repro.pyomp import PyOMPCompileError, njit
        if isinstance(self.pyomp, str):
            kind, _sep, reason = self.pyomp.partition(":")
            if kind == "compile_error":
                raise PyOMPCompileError(reason.strip())
            from repro.pyomp import PyOMPInternalError
            raise PyOMPInternalError(reason.strip())
        cached = self._variants.get("pyomp")
        if cached is None:
            cached = njit(self.pyomp)
            self._variants["pyomp"] = cached
        return cached

    def inputs(self, profile: str = "test", dt: bool = False,
               **overrides) -> dict:
        params = dict(self.sizes[profile])
        params.update(overrides)
        maker = self.make_input_dt if dt and self.make_input_dt else \
            self.make_input
        return maker(**params)

    def run(self, mode: Mode, threads: int, profile: str = "test",
            **overrides):
        """Convenience: build inputs, run the mode variant, verify."""
        dt = mode is Mode.COMPILED_DT
        inputs = self.inputs(profile, dt=dt, **overrides)
        return self.variant(mode)(threads=threads, **inputs)


def list_apps() -> list[str]:
    return list(_APP_MODULES)


def get_app(name: str) -> AppSpec:
    module_path = _APP_MODULES.get(name)
    if module_path is None:
        raise OmpError(f"unknown app {name!r}; available: "
                       f"{', '.join(_APP_MODULES)}")
    module = importlib.import_module(module_path)
    return module.SPEC
