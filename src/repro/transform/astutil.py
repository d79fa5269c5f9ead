"""AST node builders, renaming, and structural checks for the rewriter."""

from __future__ import annotations

import ast

from repro.errors import OmpSyntaxError


def marker_call(node: ast.expr) -> ast.Call | None:
    """``node`` if it calls something spelled ``omp`` or ``openmp``."""
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    if isinstance(func, ast.Name):
        spelled = func.id
    elif isinstance(func, ast.Attribute):
        spelled = func.attr
    else:
        return None
    return node if spelled in ("omp", "openmp") else None


def directive_text(node: ast.expr) -> str | None:
    """The directive string if ``node`` is a well-formed marker call:
    ``omp`` (OMP4Py) or ``openmp`` (PyOMP), bare or as an attribute,
    with exactly one argument, a string literal.

    The one place a marker is recognised, and it never raises: the
    transformer makes a malformed marker an error
    (``rewriter.extract_directive_call``), the linter a finding.
    """
    call = marker_call(node)
    if call is None or len(call.args) != 1 or call.keywords:
        return None
    argument = call.args[0]
    if isinstance(argument, ast.Constant) and isinstance(
            argument.value, str):
        return argument.value
    return None


def with_directive(node: ast.With) -> str | None:
    """The directive string of a single-item ``with omp("..."):``."""
    if len(node.items) != 1 or node.items[0].optional_vars is not None:
        return None
    return directive_text(node.items[0].context_expr)


def name_load(name: str) -> ast.Name:
    return ast.Name(id=name, ctx=ast.Load())


def name_store(name: str) -> ast.Name:
    return ast.Name(id=name, ctx=ast.Store())


def constant(value) -> ast.Constant:
    return ast.Constant(value=value)


def rt_attr(rt_name: str, method: str) -> ast.Attribute:
    """``__omp__.method`` reference."""
    return ast.Attribute(value=name_load(rt_name), attr=method,
                         ctx=ast.Load())


def rt_call(rt_name: str, method: str, args=(), keywords=()) -> ast.Call:
    """``__omp__.method(args..., kw=...)`` expression."""
    return ast.Call(func=rt_attr(rt_name, method), args=list(args),
                    keywords=[ast.keyword(arg=key, value=value)
                              for key, value in keywords])


def rt_call_stmt(rt_name: str, method: str, args=(), keywords=()) -> ast.Expr:
    return ast.Expr(value=rt_call(rt_name, method, args, keywords))


def assign(target_name: str, value: ast.expr) -> ast.Assign:
    return ast.Assign(targets=[name_store(target_name)], value=value)


def parse_expression(text: str, directive: str) -> ast.expr:
    """Parse a clause's raw expression text into an AST expression."""
    try:
        return ast.parse(text, mode="eval").body
    except SyntaxError as error:
        raise OmpSyntaxError(
            f"invalid Python expression {text!r}: {error.msg}",
            directive=directive) from None


def try_finally(body: list[ast.stmt], final: list[ast.stmt]) -> ast.Try:
    return ast.Try(body=body, handlers=[], orelse=[], finalbody=final)


class Renamer(ast.NodeTransformer):
    """Renames identifiers throughout a subtree.

    Applies to ``Name`` nodes (any context), ``global``/``nonlocal``
    declarations, and exception-handler names.  Function parameters are
    deliberately left alone: generated inner functions use parameters
    only for ``firstprivate`` captures, which keep their original names.
    A nested scope whose parameter shadows a renamed name is rare enough
    in directive bodies that the conservative whole-subtree rename is the
    right trade-off (the same is true of the paper's implementation,
    which renames by suffixing to avoid collisions).
    """

    def __init__(self, mapping: dict[str, str]):
        self.mapping = mapping

    def visit_Name(self, node: ast.Name) -> ast.Name:
        new = self.mapping.get(node.id)
        if new is not None:
            return ast.copy_location(
                ast.Name(id=new, ctx=node.ctx), node)
        return node

    def visit_Global(self, node: ast.Global) -> ast.Global:
        node.names = [self.mapping.get(n, n) for n in node.names]
        return node

    def visit_Nonlocal(self, node: ast.Nonlocal) -> ast.Nonlocal:
        node.names = [self.mapping.get(n, n) for n in node.names]
        return node

    def visit_ExceptHandler(self, node: ast.ExceptHandler):
        self.generic_visit(node)
        if node.name is not None:
            node.name = self.mapping.get(node.name, node.name)
        return node


def rename_in(stmts: list[ast.stmt],
              mapping: dict[str, str]) -> list[ast.stmt]:
    if not mapping:
        return stmts
    renamer = Renamer(mapping)
    return [renamer.visit(stmt) for stmt in stmts]


class _EscapeChecker(ast.NodeVisitor):
    """Rejects control flow that escapes a structured block.

    ``return`` anywhere in the block (it would return from the generated
    inner function, not the user's), and ``break``/``continue`` that bind
    to a loop outside the block, are non-conforming.  Nested function
    definitions are opaque.
    """

    def __init__(self, directive: str, in_ws_loop: bool):
        self.directive = directive
        #: True when the checked statements sit directly inside a
        #: worksharing loop (where ``continue`` is legal but ``break``
        #: would abandon unscheduled chunks).
        self.in_ws_loop = in_ws_loop
        self.loop_depth = 0

    def visit_Return(self, node: ast.Return) -> None:
        raise OmpSyntaxError("return is not allowed inside a structured "
                             "block", directive=self.directive)

    def visit_Break(self, node: ast.Break) -> None:
        if self.loop_depth == 0:
            message = ("break out of a worksharing loop" if self.in_ws_loop
                       else "break escaping a structured block")
            raise OmpSyntaxError(message, directive=self.directive)

    def visit_Continue(self, node: ast.Continue) -> None:
        if self.loop_depth == 0 and not self.in_ws_loop:
            raise OmpSyntaxError(
                "continue escaping a structured block",
                directive=self.directive)

    def _visit_loop(self, node) -> None:
        self.loop_depth += 1
        for stmt in node.body:
            self.visit(stmt)
        self.loop_depth -= 1
        for stmt in node.orelse:
            self.visit(stmt)

    visit_For = _visit_loop
    visit_While = _visit_loop

    def visit_FunctionDef(self, node) -> None:
        pass  # opaque scope

    visit_AsyncFunctionDef = visit_FunctionDef
    visit_Lambda = visit_FunctionDef


def check_no_escape(stmts: list[ast.stmt], directive: str) -> None:
    """Check a parallel/task/single/... block body."""
    checker = _EscapeChecker(directive, in_ws_loop=False)
    for stmt in stmts:
        checker.visit(stmt)


def check_loop_body(stmts: list[ast.stmt], directive: str) -> None:
    """Check the body of a worksharing loop: ``continue`` is fine,
    ``break`` of the worksharing loop itself is not."""
    checker = _EscapeChecker(directive, in_ws_loop=True)
    for stmt in stmts:
        checker.visit(stmt)
