"""Typed loop lowering: the *CompiledDT* tier, in two back ends.

Typed Cython turns annotated numeric loops into native loops.  This
pass finds the ``for i in range(...)`` loops whose bodies type-check —
every scalar ``int``/``float``-annotated, a loop variable, or a
generated reduction accumulator — and lowers each one

* to a **C kernel** (:mod:`repro.compiler.cbackend`) that runs the
  whole chunk, inner loops included, when the pass is given a
  :class:`~repro.compiler.cbackend.NativeTarget` (a C compiler and a
  cache directory exist).  The statements below stay behind the call as
  its guard branch, for operands the kernel was not typed for;
* to **NumPy vector statements** over the chunk's iteration vector
  otherwise — the tier this module has always been, and byte for byte
  what it generates when there is no target.

Worksharing drivers are untouched, so chunks still flow through the
OpenMP schedulers; only the per-chunk execution changes.

The pass is conservative exactly where Cython is: one untyped scalar,
one unsupported statement, or (NumPy) one potentially-aliasing store
makes the loop fall back to the next tier down (the measured gap
between the paper's *Compiled* and *CompiledDT* modes).
"""

from __future__ import annotations

import ast
import copy

from repro.cruntime.kernels import HANDLE as KERNEL_HANDLE
from repro.transform.context import TransformContext

_SCALAR_TYPES = {"int", "float", "complex", "bool"}

_MATH_UFUNCS = {
    "sqrt": "sqrt", "sin": "sin", "cos": "cos", "tan": "tan",
    "exp": "exp", "log": "log", "log2": "log2", "log10": "log10",
    "floor": "floor", "ceil": "ceil", "fabs": "abs", "atan": "arctan",
    "asin": "arcsin", "acos": "arccos", "atan2": "arctan2",
    "sinh": "sinh", "cosh": "cosh", "tanh": "tanh", "pow": "power",
    "hypot": "hypot", "copysign": "copysign", "fmod": "fmod",
}

_REDUCIBLE_AUG = {ast.Add: "add", ast.Sub: "add", ast.Mult: "multiply",
                  ast.BitAnd: "bitwise_and", ast.BitOr: "bitwise_or",
                  ast.BitXor: "bitwise_xor"}

VEC = "vec"
SCALAR = "scalar"


class _Reject(Exception):
    """Internal: this loop cannot be vectorized; fall back."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class VectorizePass:
    """Per-definition driver: bottom-up loop vectorization."""

    def __init__(self, ctx: TransformContext, options: dict | None = None,
                 debug: bool = False, native=None):
        self.ctx = ctx
        self.debug = debug
        self.options = options or {}
        #: Where C kernels go (a ``cbackend.NativeTarget``); ``None``
        #: keeps the pass on the NumPy back end alone.
        self.native = native
        #: (loop lineno, outcome) diagnostics, for tests and reports.
        self.report: list[tuple[int, str]] = []

    def run(self, node: ast.stmt) -> ast.stmt:
        annotations = _collect_annotations(node)
        annotations.update(_collect_reduction_accumulators(
            node, self.ctx.rt_name))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            node.body = self._process_block(node.body, dict(annotations))
        else:
            self._process_scopes(node, annotations)
        return node

    def _process_scopes(self, node: ast.AST, env: dict[str, str]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                child.body = self._process_block(child.body, dict(env))
            else:
                self._process_scopes(child, env)

    def _process_block(self, stmts: list[ast.stmt],
                       env: dict[str, str]) -> list[ast.stmt]:
        out: list[ast.stmt] = []
        for stmt in stmts:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                stmt.body = self._process_block(stmt.body, dict(env))
                out.append(stmt)
                continue
            if isinstance(stmt, ast.For) and range_parts(stmt) is not None:
                out.extend(self._process_loop(stmt, env, ws_contract=False))
                continue
            if isinstance(stmt, ast.While) and self._is_chunk_driver(stmt):
                # The body of a worksharing chunk loop: its iterations
                # are independent by the OpenMP contract, so scatter
                # stores need not be provably one-to-one.
                new_body: list[ast.stmt] = []
                for inner in stmt.body:
                    if isinstance(inner, ast.For) and range_parts(
                            inner) is not None:
                        new_body.extend(self._process_loop(
                            inner, env, ws_contract=True))
                    else:
                        new_body.append(inner)
                stmt.body = new_body
                out.append(stmt)
                continue
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

    def _process_loop(self, loop: ast.For, env: dict[str, str],
                      ws_contract: bool) -> list[ast.stmt]:
        if isinstance(loop.target, ast.Name):
            env[loop.target.id] = "int"
        site = self._try_native(loop, env)
        if site is not None:
            # The guard branch is this loop as the NumPy tier alone
            # leaves it: no kernel inside a kernel's fallback.
            target, self.native = self.native, None
            try:
                guard = self._process_loop(loop, env, ws_contract)
            finally:
                self.native = target
            return _native_call(self.ctx, target, site, loop, guard)
        loop.body = self._process_block(loop.body, env)
        replacement = self._try_vectorize(loop, env, ws_contract)
        if replacement is not None:
            self.report.append((getattr(loop, "lineno", 0), "vectorized"))
            return replacement
        return [loop]

    def _try_native(self, loop: ast.For, env: dict[str, str]):
        """The loop's C kernel, or ``None`` (no target, or no C form)."""
        if self.native is None:
            return None
        from repro.compiler.cbackend import Unsupported
        lineno = getattr(loop, "lineno", 0)
        try:
            site = self.native.compile_site(loop, env)
        except Unsupported as reject:
            self.report.append((lineno, f"not native: {reject.reason}"))
            if self.debug:
                print(f"[omp4py:native] line {lineno}: {reject.reason}")
            return None
        self.report.append((lineno, "native"))
        if self.debug:
            print(f"[omp4py:native] line {lineno}: {site.cname}")
        return site

    def _is_chunk_driver(self, stmt: ast.While) -> bool:
        test = stmt.test
        return (isinstance(test, ast.Call)
                and isinstance(test.func, ast.Attribute)
                and test.func.attr == "for_next"
                and isinstance(test.func.value, ast.Name)
                and test.func.value.id == self.ctx.rt_name)

    def _try_vectorize(self, loop: ast.For, env: dict[str, str],
                       ws_contract: bool = False) -> list[ast.stmt] | None:
        try:
            builder = _KernelBuilder(self.ctx, env, loop,
                                     ws_contract=ws_contract)
            return builder.build()
        except _Reject as reject:
            self.report.append((getattr(loop, "lineno", 0),
                                f"fallback: {reject.reason}"))
            if self.debug:
                print(f"[omp4py:vectorize] line {loop.lineno}: "
                      f"{reject.reason}")
            return None


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
            # is the user's; "float" keeps it typed for the NumPy tier.
            op = child.value.args[0] if child.value.args else None
            builtin = isinstance(op, ast.Constant) and op.value in (
                "+", "-", "*", "&", "|", "^", "&&", "||", "and", "or",
                "min", "max")
            accumulators[child.targets[0].id] = "int" if builtin \
                else "float"
    return accumulators


def _native_call(ctx: TransformContext, target, site, loop: ast.For,
                 guard: list[ast.stmt]) -> list[ast.stmt]:
    """``r = handle[n](lo, hi, step, operands...)``; ``None`` means the
    kernel declined its operands and the guard statements run, anything
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
        body=guard, orelse=unpack))
    for stmt in result:
        ast.copy_location(stmt, loop)
        ast.fix_missing_locations(stmt)
    return result


def _body_assigned_names(stmts: list[ast.stmt]) -> set[str]:
    names: set[str] = set()
    for stmt in stmts:
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
            if isinstance(stmt.target, ast.Name):
                names.add(stmt.target.id)
    return names


def _k_attr(path: str) -> ast.expr:
    node: ast.expr = ast.Name(id=KERNEL_HANDLE, ctx=ast.Load())
    for part in path.split("."):
        node = ast.Attribute(value=node, attr=part, ctx=ast.Load())
    return node


def _k_call(path: str, args, keywords=()) -> ast.Call:
    return ast.Call(func=_k_attr(path), args=list(args),
                    keywords=[ast.keyword(arg=k, value=v)
                              for k, v in keywords])


class _KernelBuilder:
    """Translates one range-loop body into vector statements."""

    def __init__(self, ctx: TransformContext, env: dict[str, str],
                 loop: ast.For, ws_contract: bool = False):
        self.ctx = ctx
        self.env = env
        self.loop = loop
        #: Iterations independent by the worksharing contract: scatter
        #: stores need not be provably one-to-one.
        self.ws_contract = ws_contract
        if not isinstance(loop.target, ast.Name):
            raise _Reject("tuple loop target")
        self.loop_var = loop.target.id
        self.vector_name = ctx.symbols.fresh("iv")
        #: body temp name -> (mangled name, kind)
        self.temps: dict[str, tuple[str, str]] = {}
        #: hoisted array bases: dump(base expr) -> local name
        self.bases: dict[str, str] = {}
        #: dump(base) -> set of dump(index) seen in vector loads.
        self.load_indices: dict[str, set[str]] = {}
        self.preamble: list[ast.stmt] = []
        self.statements: list[ast.stmt] = []
        self.finalizers: list[ast.stmt] = []
        #: arrays written in this body (stores must not alias loads).
        self.stored_arrays: set[str] = set()
        #: names assigned anywhere in the body; reading one before its
        #: in-body assignment is a loop-carried dependence.
        self.body_assigned = _body_assigned_names(loop.body)

    # -- public ----------------------------------------------------------

    def build(self) -> list[ast.stmt]:
        for stmt in self.loop.body:
            self._translate_statement(stmt)
        if not self.statements and not self.finalizers:
            raise _Reject("empty or effect-free body")
        lo, hi, step = range_parts(self.loop)
        for part in (lo, hi, step):
            self._require_invariant(part, "loop bound")
        self.ctx.needs_kernels = True
        header = [ast.Assign(
            targets=[ast.Name(id=self.vector_name, ctx=ast.Store())],
            value=_k_call("arange", [lo, hi, step]))]
        result = header + self.preamble + self.statements + self.finalizers
        for stmt in result:
            ast.copy_location(stmt, self.loop)
            ast.fix_missing_locations(stmt)
        return result

    # -- statement translation --------------------------------------------

    def _translate_statement(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target = stmt.targets[0]
            if isinstance(target, ast.Name):
                self._translate_scalar_target(target.id, stmt.value)
                return
            if isinstance(target, ast.Subscript):
                self._translate_store(target, stmt.value)
                return
            raise _Reject("unsupported assignment target")
        if isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name) and stmt.value is not None:
            self._translate_scalar_target(stmt.target.id, stmt.value)
            return
        if isinstance(stmt, ast.AugAssign):
            self._translate_augassign(stmt)
            return
        raise _Reject(f"unsupported statement {type(stmt).__name__}")

    def _translate_scalar_target(self, name: str, value: ast.expr) -> None:
        reduction = self._match_minmax_reduction(name, value)
        if reduction is not None:
            return
        translated, kind = self._expr(value)
        mangled = self.temps.get(name, (None, None))[0]
        if mangled is None:
            mangled = self.ctx.symbols.fresh(f"t_{name}")
        self.temps[name] = (mangled, kind)
        self.statements.append(ast.Assign(
            targets=[ast.Name(id=mangled, ctx=ast.Store())],
            value=translated))

    def _match_minmax_reduction(self, name: str, value: ast.expr):
        """``acc = min(acc, expr)`` / ``acc = max(acc, expr)``."""
        if not (isinstance(value, ast.Call)
                and isinstance(value.func, ast.Name)
                and value.func.id in ("min", "max")
                and len(value.args) == 2 and not value.keywords):
            return None
        first, second = value.args
        if not (isinstance(first, ast.Name) and first.id == name):
            return None
        if name in self.temps or self.env.get(name) not in (
                "int", "float"):
            raise _Reject(f"min/max reduction on untyped {name!r}")
        translated, kind = self._expr(second)
        if kind is SCALAR:
            raise _Reject("min/max reduction of invariant value")
        ufunc = "minimum" if value.func.id == "min" else "maximum"
        self.finalizers.append(ast.Assign(
            targets=[ast.Name(id=name, ctx=ast.Store())],
            value=_k_call(f"np.{ufunc}.reduce", [translated],
                          [("initial", ast.Name(id=name, ctx=ast.Load()))])))
        return True

    def _translate_augassign(self, stmt: ast.AugAssign) -> None:
        if isinstance(stmt.target, ast.Subscript):
            # x[i] += e  ->  store of load + e.
            load = ast.Subscript(value=stmt.target.value,
                                 slice=stmt.target.slice, ctx=ast.Load())
            self._translate_store(stmt.target, ast.BinOp(
                left=load, op=stmt.op, right=stmt.value))
            return
        if not isinstance(stmt.target, ast.Name):
            raise _Reject("unsupported augmented-assignment target")
        name = stmt.target.id
        if name in self.temps:
            # Vector temp update: t op= e.
            translated, _kind = self._expr(
                ast.BinOp(left=ast.Name(id=name, ctx=ast.Load()),
                          op=stmt.op, right=stmt.value))
            mangled, _old = self.temps[name]
            self.temps[name] = (mangled, VEC)
            self.statements.append(ast.Assign(
                targets=[ast.Name(id=mangled, ctx=ast.Store())],
                value=translated))
            return
        ufunc = _REDUCIBLE_AUG.get(type(stmt.op))
        if ufunc is None:
            raise _Reject(
                f"unsupported reduction operator "
                f"{type(stmt.op).__name__}")
        if self.env.get(name) not in ("int", "float", "complex"):
            raise _Reject(f"reduction on untyped scalar {name!r}")
        translated, kind = self._expr(stmt.value)
        if kind is SCALAR:
            if not isinstance(stmt.op, (ast.Add, ast.Sub)):
                raise _Reject("invariant value in non-additive reduction")
            translated = ast.BinOp(
                left=translated, op=ast.Mult(),
                right=_k_call("size",
                              [ast.Name(id=self.vector_name,
                                        ctx=ast.Load())]))
            reduced = translated
        else:
            reduced = _k_call(f"np.{ufunc}.reduce", [translated])
        # acc -= Σe, acc += Σe, acc *= Πe, ... : the partial results of
        # the chunk fold into the accumulator with the original operator.
        self.finalizers.append(ast.Assign(
            targets=[ast.Name(id=name, ctx=ast.Store())],
            value=ast.BinOp(left=ast.Name(id=name, ctx=ast.Load()),
                            op=type(stmt.op)(), right=reduced)))

    def _translate_store(self, target: ast.Subscript,
                         value: ast.expr) -> None:
        base, index = target.value, target.slice
        self._require_invariant(base, "store base")
        base_key = ast.dump(base)
        index_tr = self._store_index(index)
        # Translate the value BEFORE registering the store so the
        # elementwise ``A[i] = f(A[i])`` shape is checkable.
        value_tr, _kind = self._expr(value)
        # Storing into an array the body also gathers from is safe only
        # when every such load used the exact same index (element-wise
        # update, e.g. LU's row transformation); any other overlap could
        # be a loop-carried dependence.
        seen = self.load_indices.get(base_key, set())
        if any(load_index != ast.dump(index) for load_index in seen):
            raise _Reject(
                "store aliases a load with a different index")
        self.stored_arrays.add(base_key)
        self.statements.append(ast.Assign(
            targets=[ast.Subscript(value=base, slice=index_tr,
                                   ctx=ast.Store())],
            value=value_tr))

    def _store_index(self, index: ast.expr) -> ast.expr:
        """Store indices must provably hit distinct elements: the loop
        variable itself, or loop-var ± invariant offset."""
        if isinstance(index, ast.Tuple):
            elements = [self._store_index_component(e)
                        for e in index.elts]
            return ast.Tuple(elts=elements, ctx=ast.Load())
        return self._store_index_component(index)

    def _store_index_component(self, index: ast.expr) -> ast.expr:
        if self.ws_contract:
            translated, _kind = self._expr(index)
            return translated
        if isinstance(index, ast.Name) and index.id == self.loop_var:
            return ast.Name(id=self.vector_name, ctx=ast.Load())
        if isinstance(index, ast.BinOp) and isinstance(
                index.op, (ast.Add, ast.Sub)):
            left_is_var = (isinstance(index.left, ast.Name)
                           and index.left.id == self.loop_var)
            right_is_var = (isinstance(index.right, ast.Name)
                            and index.right.id == self.loop_var)
            if left_is_var:
                self._require_invariant(index.right, "store offset")
                translated, _ = self._expr(index)
                return translated
            if right_is_var and isinstance(index.op, ast.Add):
                self._require_invariant(index.left, "store offset")
                translated, _ = self._expr(index)
                return translated
        if self._is_invariant(index):
            return index
        raise _Reject("store index is not provably one-to-one")

    # -- expression translation -------------------------------------------

    def _expr(self, node: ast.expr) -> tuple[ast.expr, str]:
        if isinstance(node, ast.Constant):
            if isinstance(node.value, (int, float, complex, bool)):
                return node, SCALAR
            raise _Reject(f"non-numeric constant {node.value!r}")
        if isinstance(node, ast.Name):
            return self._name(node)
        if isinstance(node, ast.BinOp):
            left, lk = self._expr(node.left)
            right, rk = self._expr(node.right)
            if type(node.op) not in (ast.Add, ast.Sub, ast.Mult, ast.Div,
                                     ast.FloorDiv, ast.Mod, ast.Pow,
                                     ast.BitAnd, ast.BitOr, ast.BitXor,
                                     ast.LShift, ast.RShift):
                raise _Reject(
                    f"operator {type(node.op).__name__} not supported")
            kind = VEC if VEC in (lk, rk) else SCALAR
            return ast.BinOp(left=left, op=node.op, right=right), kind
        if isinstance(node, ast.UnaryOp):
            operand, kind = self._expr(node.operand)
            if isinstance(node.op, (ast.USub, ast.UAdd)):
                return ast.UnaryOp(op=node.op, operand=operand), kind
            if isinstance(node.op, ast.Not):
                return _k_call("np.logical_not", [operand]), kind
            raise _Reject("unsupported unary operator")
        if isinstance(node, ast.Compare):
            if len(node.ops) != 1:
                raise _Reject("chained comparison")
            left, lk = self._expr(node.left)
            right, rk = self._expr(node.comparators[0])
            if type(node.ops[0]) not in (ast.Lt, ast.LtE, ast.Gt, ast.GtE,
                                         ast.Eq, ast.NotEq):
                raise _Reject("unsupported comparison")
            kind = VEC if VEC in (lk, rk) else SCALAR
            return ast.Compare(left=left, ops=list(node.ops),
                               comparators=[right]), kind
        if isinstance(node, ast.BoolOp):
            parts = [self._expr(value) for value in node.values]
            kind = VEC if any(k is VEC for _e, k in parts) else SCALAR
            helper = ("logical_and" if isinstance(node.op, ast.And)
                      else "logical_or")
            result = parts[0][0]
            for expr, _k in parts[1:]:
                result = _k_call(helper, [result, expr])
            return result, kind
        if isinstance(node, ast.IfExp):
            test, tk = self._expr(node.test)
            then, bk = self._expr(node.body)
            other, ok = self._expr(node.orelse)
            kind = VEC if VEC in (tk, bk, ok) else SCALAR
            return _k_call("np.where", [test, then, other]), kind
        if isinstance(node, ast.Call):
            return self._call(node)
        if isinstance(node, ast.Subscript):
            return self._load(node)
        raise _Reject(f"unsupported expression {type(node).__name__}")

    def _name(self, node: ast.Name) -> tuple[ast.expr, str]:
        name = node.id
        if name == self.loop_var:
            return ast.Name(id=self.vector_name, ctx=ast.Load()), VEC
        if name in self.temps:
            mangled, kind = self.temps[name]
            return ast.Name(id=mangled, ctx=ast.Load()), kind
        if name in self.body_assigned:
            # Read of a name assigned later in the body: the sequential
            # loop would see the previous iteration's value.
            raise _Reject(f"loop-carried read of {name!r}")
        if self.env.get(name) in _SCALAR_TYPES:
            return ast.Name(id=name, ctx=ast.Load()), SCALAR
        raise _Reject(f"untyped scalar {name!r}")

    def _call(self, node: ast.Call) -> tuple[ast.expr, str]:
        if node.keywords:
            raise _Reject("keyword arguments in kernel call")
        func = node.func
        args = [self._expr(a) for a in node.args]
        kind = VEC if any(k is VEC for _e, k in args) else SCALAR
        exprs = [e for e, _k in args]
        if isinstance(func, ast.Attribute) and isinstance(
                func.value, ast.Name) and func.value.id == "math":
            ufunc = _MATH_UFUNCS.get(func.attr)
            if ufunc is None:
                raise _Reject(f"math.{func.attr} has no ufunc mapping")
            return _k_call(f"np.{ufunc}", exprs), kind
        if isinstance(func, ast.Name):
            if func.id == "abs" and len(exprs) == 1:
                return _k_call("np.abs", exprs), kind
            if func.id in ("min", "max") and len(exprs) == 2:
                ufunc = "minimum" if func.id == "min" else "maximum"
                return _k_call(f"np.{ufunc}", exprs), kind
            if func.id == "int" and len(exprs) == 1:
                return _k_call("cast_int", exprs), kind
            if func.id == "float" and len(exprs) == 1:
                return _k_call("cast_float", exprs), kind
            ufunc = _MATH_UFUNCS.get(func.id)
            if ufunc is not None:
                return _k_call(f"np.{ufunc}", exprs), kind
        raise _Reject("call target is not a recognised numeric function")

    def _load(self, node: ast.Subscript) -> tuple[ast.expr, str]:
        base = node.value
        self._require_invariant(base, "load base")
        if ast.dump(base) in self.stored_arrays:
            raise _Reject("array is both stored and loaded in the body")
        if isinstance(node.slice, ast.Tuple):
            parts = [self._expr(e) for e in node.slice.elts]
            kind = VEC if any(k is VEC for _e, k in parts) else SCALAR
            index: ast.expr = ast.Tuple(elts=[e for e, _k in parts],
                                        ctx=ast.Load())
        else:
            index, kind = self._expr(node.slice)
        if kind is SCALAR:
            return ast.Subscript(value=base, slice=index,
                                 ctx=ast.Load()), SCALAR
        base_key = ast.dump(base)
        self.load_indices.setdefault(base_key, set()).add(
            ast.dump(node.slice))
        alias = self.bases.get(base_key)
        if alias is None:
            alias = self.ctx.symbols.fresh("arr")
            self.bases[base_key] = alias
            self.preamble.append(ast.Assign(
                targets=[ast.Name(id=alias, ctx=ast.Store())],
                value=_k_call("asarray", [base])))
        return ast.Subscript(value=ast.Name(id=alias, ctx=ast.Load()),
                             slice=index, ctx=ast.Load()), VEC

    # -- invariance --------------------------------------------------------

    def _is_invariant(self, node: ast.expr) -> bool:
        for child in ast.walk(node):
            if isinstance(child, ast.Name):
                if child.id == self.loop_var or child.id in self.temps:
                    return False
        return True

    def _require_invariant(self, node: ast.expr, what: str) -> None:
        if not self._is_invariant(node):
            raise _Reject(f"{what} depends on the loop variable")
