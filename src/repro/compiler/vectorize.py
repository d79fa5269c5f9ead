"""Typed loop lowering: the *CompiledDT* tier.

Typed Cython turns annotated numeric loops into native loops.  This
pass finds the ``for i in range(...)`` loops whose bodies type-check —
every scalar ``int``/``float``-annotated, a loop variable, or a
generated reduction accumulator — and lowers each one to a **C
kernel** (:mod:`repro.compiler.cbackend`) that runs the whole chunk,
inner loops included.  The loop itself stays behind the call as its
guard branch, for operands the kernel was not typed for; it is the
code *Compiled* mode runs.

Worksharing drivers are untouched, so chunks still flow through the
OpenMP schedulers; only the per-chunk execution changes.

The pass is conservative exactly where Cython is: one untyped scalar
or one unsupported statement leaves the loop interpreted (the measured
gap between the paper's *Compiled* and *CompiledDT* modes).  Without a
target — no C compiler, or no cache directory to keep the shared
object in — every loop stays interpreted, and the pass only counts the
loops that have a C form (:attr:`VectorizePass.pending`), so that the
first process with a compiler builds them.
"""

from __future__ import annotations

import ast
import collections
import copy

from repro.transform.context import TransformContext

_SCALAR_TYPES = {"int", "float", "complex", "bool"}


class VectorizePass:
    """Per-definition driver: every typed ``range`` loop, outermost
    first, becomes a kernel call or stays as written."""

    def __init__(self, ctx: TransformContext, debug: bool = False,
                 native=None):
        self.ctx = ctx
        self.debug = debug
        #: Where C kernels go (a ``cbackend.NativeTarget``); ``None``
        #: leaves every loop as it is.
        self.native = native
        #: (loop lineno, outcome) diagnostics, for tests and reports.
        self.report: list[tuple[int, str]] = []
        #: Loops with a C form left interpreted for want of a target.
        self.pending = 0
        #: Per name, how often the enclosing function reads it (as
        #: written); ``None`` for a global or nonlocal — read anywhere.
        self._reads: dict[str, int | None] = {}

    def run(self, node: ast.stmt) -> ast.stmt:
        annotations = _collect_annotations(node)
        annotations.update(_collect_reduction_accumulators(
            node, self.ctx.rt_name))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            node.body = self._process_function(node, dict(annotations))
        else:
            self._process_scopes(node, annotations)
        return node

    def _process_scopes(self, node: ast.AST, env: dict[str, str]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                child.body = self._process_function(child, dict(env))
            else:
                self._process_scopes(child, env)

    def _process_function(self, function: ast.AST,
                          env: dict[str, str]) -> list[ast.stmt]:
        outer = self._reads
        self._reads = {**_reads(function), **dict.fromkeys(
            name for node in ast.walk(function)
            if isinstance(node, (ast.Global, ast.Nonlocal))
            for name in node.names)}
        try:
            return self._process_block(function.body, env)
        finally:
            self._reads = outer

    def _process_block(self, stmts: list[ast.stmt],
                       env: dict[str, str]) -> list[ast.stmt]:
        out: list[ast.stmt] = []
        for stmt in stmts:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                stmt.body = self._process_function(stmt, dict(env))
            elif isinstance(stmt, ast.For) and range_parts(stmt) is not None:
                out.extend(self._process_loop(stmt, env))
                continue
            else:
                for field in ("body", "orelse", "finalbody"):
                    block = getattr(stmt, field, None)
                    if isinstance(block, list) and block and isinstance(
                            block[0], ast.stmt):
                        setattr(stmt, field,
                                self._process_block(block, env))
                for handler in getattr(stmt, "handlers", []):
                    handler.body = self._process_block(handler.body, env)
            out.append(stmt)
        return out

    def _process_loop(self, loop: ast.For,
                      env: dict[str, str]) -> list[ast.stmt]:
        from repro.compiler.cbackend import SiteCompiler, Unsupported
        if isinstance(loop.target, ast.Name):
            env[loop.target.id] = "int"
        lineno = getattr(loop, "lineno", 0)
        # What code outside the loop may read of what the loop leaves.
        mine = _reads(loop)
        live = {name for name, count in self._reads.items()
                if count is None or count > mine.get(name, 0)}
        try:
            if self.native is None:
                site = SiteCompiler(loop, env, 0, live).compile()
            else:
                site = self.native.compile_site(loop, env, live)
        except Unsupported as reject:
            self._note(lineno, f"not native: {reject.reason}", reject.reason)
            loop.body = self._process_block(loop.body, env)
            return [loop]
        if self.native is None:
            self.pending += 1
            self._note(lineno, "pending")
            return [loop]
        self._note(lineno, "native", site.cname)
        return _native_call(self.ctx, self.native, site, loop)

    def _note(self, lineno: int, outcome: str, shown: str = "") -> None:
        self.report.append((lineno, outcome))
        if self.debug:
            print(f"[omp4py:native] line {lineno}: {shown or outcome}")


def _reads(node: ast.AST) -> dict[str, int]:
    """How often each name is read in ``node``."""
    return dict(collections.Counter(
        child.id for child in ast.walk(node)
        if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load)))


def range_parts(loop: ast.For):
    call = loop.iter
    if not (isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
            and call.func.id == "range" and not call.keywords
            and 1 <= len(call.args) <= 3 and not loop.orelse):
        return None
    args = call.args
    if len(args) == 1:
        return ast.Constant(value=0), args[0], ast.Constant(value=1)
    if len(args) == 2:
        return args[0], args[1], ast.Constant(value=1)
    return args[0], args[1], args[2]


def _collect_annotations(node: ast.AST) -> dict[str, str]:
    """Scalar types from ``x: float`` declarations, plus inferred types
    for names only ever assigned literals (the counterpart of Cython's
    local type inference).

    An inferred type is the join of everything that flows into the
    name, not the type of its first literal: ``total = 0`` followed by
    ``total += x[i] * 0.5`` is a ``float`` (a C ``long`` accumulator
    would truncate every term), while ``count = 0`` with ``count += 1``
    stays an ``int``.
    """
    annotations: dict[str, str] = {}
    inferred: dict[str, str] = {}
    disqualified: set[str] = set()
    updates: list[ast.AugAssign] = []
    counters: set[str] = set()  # range() loop targets: ints
    for child in ast.walk(node):
        if isinstance(child, ast.arg) and isinstance(
                child.annotation, ast.Name) \
                and child.annotation.id in _SCALAR_TYPES:
            # Parameter annotations (def f(s: float, n: int)).
            annotations[child.arg] = child.annotation.id
        elif isinstance(child, ast.AnnAssign) and isinstance(
                child.target, ast.Name):
            label = None
            if isinstance(child.annotation, ast.Name):
                label = child.annotation.id
            elif isinstance(child.annotation, ast.Constant) and isinstance(
                    child.annotation.value, str):
                label = child.annotation.value
            if label in _SCALAR_TYPES:
                annotations[child.target.id] = label
        elif isinstance(child, ast.Assign) and len(child.targets) == 1 \
                and isinstance(child.targets[0], ast.Name):
            name = child.targets[0].id
            if isinstance(child.value, ast.Constant) and type(
                    child.value.value) in (int, float):
                label = type(child.value.value).__name__
                if inferred.setdefault(name, label) != label:
                    inferred[name] = "float"  # int ⊕ float
            elif not _is_self_minmax(child):
                disqualified.add(name)
        elif isinstance(child, ast.AugAssign) and isinstance(
                child.target, ast.Name):
            updates.append(child)
        elif isinstance(child, ast.For) and isinstance(
                child.target, ast.Name) and range_parts(child) is not None:
            counters.add(child.target.id)
    inferred = {name: label for name, label in inferred.items()
                if name not in disqualified and name not in annotations}
    # ``name op= value`` lifts an inferred int to float unless the value
    # is provably integral; to a fixed point, since the value may read
    # other inferred names.
    changed = True
    while changed:
        changed = False
        known = {**dict.fromkeys(counters, "int"), **inferred,
                 **annotations}
        for update in updates:
            name = update.target.id
            if inferred.get(name) == "int" and not (
                    isinstance(update.op, _INTEGRAL_OPS)
                    and _is_integral(update.value, known)):
                inferred[name] = "float"
                changed = True
    annotations.update(inferred)
    return annotations


_INTEGRAL_OPS = (ast.Add, ast.Sub, ast.Mult, ast.FloorDiv, ast.Mod,
                 ast.BitAnd, ast.BitOr, ast.BitXor, ast.LShift, ast.RShift)


def _is_integral(node: ast.expr, known: dict[str, str]) -> bool:
    """Is ``node`` an ``int`` whatever its operands hold at run time?"""
    if isinstance(node, ast.Constant):
        return type(node.value) in (int, bool)
    if isinstance(node, ast.Name):
        return known.get(node.id) in ("int", "bool")
    if isinstance(node, ast.BinOp):
        return isinstance(node.op, _INTEGRAL_OPS) \
            and _is_integral(node.left, known) \
            and _is_integral(node.right, known)
    if isinstance(node, ast.UnaryOp):
        return isinstance(node.op, (ast.USub, ast.UAdd, ast.Not)) \
            and _is_integral(node.operand, known)
    if isinstance(node, (ast.Compare, ast.BoolOp)):
        return isinstance(node, ast.Compare) or all(
            _is_integral(value, known) for value in node.values)
    if isinstance(node, ast.IfExp):
        return _is_integral(node.body, known) \
            and _is_integral(node.orelse, known)
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        if node.func.id == "int" and len(node.args) == 1:
            return True
        if node.func.id in ("abs", "min", "max") and node.args:
            return all(_is_integral(arg, known) for arg in node.args)
    return False


def _is_self_minmax(assign: ast.Assign) -> bool:
    """``x = min(x, ...)`` — the reduction shape; not a re-type."""
    value = assign.value
    target = assign.targets[0]
    return (isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
            and value.func.id in ("min", "max") and value.args
            and isinstance(value.args[0], ast.Name)
            and isinstance(target, ast.Name)
            and value.args[0].id == target.id)


def _collect_reduction_accumulators(node: ast.AST,
                                    rt_name: str) -> dict[str, str]:
    """Generated accumulators (``acc = __omp__.reduction_init(op)``)."""
    accumulators: dict[str, str] = {}
    for child in ast.walk(node):
        if isinstance(child, ast.Assign) and len(child.targets) == 1 \
                and isinstance(child.targets[0], ast.Name) \
                and isinstance(child.value, ast.Call) \
                and isinstance(child.value.func, ast.Attribute) \
                and child.value.func.attr == "reduction_init" \
                and isinstance(child.value.func.value, ast.Name) \
                and child.value.func.value.id == rt_name:
            # The built-in identities are integers (or the untyped
            # min/max sentinels): the accumulator's type is the join of
            # what the loop adds to it.  A declared reduction's identity
            # is the user's, typed "float".
            op = child.value.args[0] if child.value.args else None
            builtin = isinstance(op, ast.Constant) and op.value in (
                "+", "-", "*", "&", "|", "^", "&&", "||", "and", "or",
                "min", "max")
            accumulators[child.targets[0].id] = "int" if builtin \
                else "float"
    return accumulators


def _native_call(ctx: TransformContext, target, site,
                 loop: ast.For) -> list[ast.stmt]:
    """``r = handle[n](lo, hi, step, operands...)``; ``None`` means the
    kernel declined its operands and the loop itself runs, anything
    else is the tuple of carried values."""
    lo, hi, step = range_parts(loop)
    call = ast.Call(
        func=ast.Subscript(value=target.handle(),
                           slice=ast.Constant(value=site.number),
                           ctx=ast.Load()),
        args=[copy.deepcopy(arg) for arg in (lo, hi, step, *site.operands)],
        keywords=[])
    result: list[ast.stmt] = []
    unpack: list[ast.stmt] = []
    if site.carried:
        carrier = ctx.symbols.fresh("nr")
        result.append(ast.Assign(
            targets=[ast.Name(id=carrier, ctx=ast.Store())], value=call))
        call = ast.Name(id=carrier, ctx=ast.Load())
        unpack.append(ast.Assign(
            targets=[ast.Tuple(elts=[ast.Name(id=name, ctx=ast.Store())
                                     for name in site.carried],
                               ctx=ast.Store())],
            value=ast.Name(id=carrier, ctx=ast.Load())))
    result.append(ast.If(
        test=ast.Compare(left=call, ops=[ast.Is()],
                         comparators=[ast.Constant(value=None)]),
        body=[loop], orelse=unpack))
    for stmt in result:
        ast.copy_location(stmt, loop)
        ast.fix_missing_locations(stmt)
    return result
