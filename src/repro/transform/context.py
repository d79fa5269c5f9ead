"""Transformation state: symbol generation, scope frames, loop stack."""

from __future__ import annotations

import ast
import dataclasses
import itertools

from repro.errors import OmpSyntaxError
from repro.transform import scope


class SymbolGen:
    """Fresh ``__omp_``-prefixed names with collision avoidance.

    As in the paper: internal symbols use the ``__omp_`` prefix plus a
    numeric suffix; existing identifiers in the source are excluded so
    generated names never collide with user names.
    """

    def __init__(self, taken: set[str]):
        self._taken = set(taken)
        self._counter = itertools.count()

    def fresh(self, base: str) -> str:
        while True:
            name = f"__omp_{base}_{next(self._counter)}"
            if name not in self._taken:
                self._taken.add(name)
                return name


@dataclasses.dataclass
class ScopeFrame:
    """One Python function scope the rewriter is generating into.

    ``params`` are names bound unconditionally (parameters, generated
    privates/accumulators); ``stmts`` is the scope's statement list as
    the user wrote it, walked once when the frame is pushed, so binding
    queries can *discount* a directive block's own sites — a name
    assigned only inside the block moves into the generated inner
    function and is not a binding of this scope afterwards.
    """

    params: set[str]
    stmts: list

    def __post_init__(self):
        self.bindings = scope.bindings(self.stmts)


@dataclasses.dataclass
class LoopFrame:
    """Worksharing-loop state needed by nested ``ordered`` regions."""

    bounds_name: str
    index_name: str
    has_ordered: bool
    collapsed: bool


class TransformContext:
    """All state threaded through one function's transformation."""

    def __init__(self, rt_name: str, module_globals: set[str],
                 taken_names: set[str], filename: str = "<omp4py>",
                 module_name: str = "__main__"):
        #: Identifier the generated code uses for the runtime handle.
        self.rt_name = rt_name
        self.module_globals = module_globals
        #: Qualifies threadprivate storage keys.
        self.module_name = module_name
        self.symbols = SymbolGen(taken_names | {rt_name})
        self.scopes: list[ScopeFrame] = []
        self.construct_stack: list[str] = []
        self.loop_stack: list[LoopFrame] = []
        #: threadprivate variable name -> storage key.
        self.threadprivate: dict[str, str] = {}
        self.filename = filename

    # Scope management --------------------------------------------------

    def push_scope(self, params: set[str], stmts: list) -> ScopeFrame:
        frame = ScopeFrame(set(params), stmts)
        self.scopes.append(frame)
        return frame

    def pop_scope(self) -> None:
        self.scopes.pop()

    def enclosing_bound(self, body: list, block) -> set[str]:
        """The locals of every enclosing function scope, not counting
        binding sites inside the block ``body`` (``block`` is
        ``scope.bindings(body)``)."""
        bound: set[str] = set()
        for frame in self.scopes:
            bound |= frame.params
            bound |= frame.bindings.bound_outside(body, block)
        return bound

    # Construct nesting --------------------------------------------------

    def enter_construct(self, name: str):
        self.construct_stack.append(name)
        return _ConstructGuard(self)

    def innermost_construct(self) -> str | None:
        return self.construct_stack[-1] if self.construct_stack else None

    def require_not_inside(self, directive: str,
                           forbidden: tuple[str, ...]) -> None:
        for construct in self.construct_stack:
            if construct in forbidden:
                raise OmpSyntaxError(
                    f"directive may not be nested inside {construct!r}",
                    directive=directive)

    # Errors ---------------------------------------------------------------

    @staticmethod
    def error(message: str, directive: str,
              node: ast.AST | None = None) -> OmpSyntaxError:
        lineno = getattr(node, "lineno", None)
        return OmpSyntaxError(message, directive=directive, lineno=lineno)


class _ConstructGuard:
    def __init__(self, ctx: TransformContext):
        self._ctx = ctx

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._ctx.construct_stack.pop()
        return False
