"""Directive discovery and dispatch: the transformer's main loop.

``transform_statements`` walks a statement list; every ``with
omp("...")`` block and standalone ``omp("...")`` call is parsed,
validated against the spec, and handed to the construct's lowering
function; all other compound statements are traversed recursively so
directives work at any nesting depth.
"""

from __future__ import annotations

import ast

from repro.directives import parse_directive
from repro.directives.model import Directive
from repro.directives.spec import DIRECTIVES
from repro.errors import OmpSyntaxError
from repro.transform import scope
from repro.transform.api_map import OMP_API_METHODS
from repro.transform.astutil import directive_text, marker_call, rt_attr
from repro.transform.context import TransformContext

#: Attribute used to pass pre-parsed directives on synthesized nodes
#: (combined ``parallel for`` / ``parallel sections`` splitting).
PARSED_ATTR = "_omp_parsed_directive"


def extract_directive_call(node: ast.expr) -> str | None:
    """Return the directive text if ``node`` is an ``omp("...")`` call;
    a malformed marker is an error."""
    text = directive_text(node)
    if text is None and marker_call(node) is not None:
        raise OmpSyntaxError(
            "omp() takes exactly one argument, the directive as a "
            "string literal")
    return text


def _directive_of_with(node: ast.With) -> Directive | None:
    parsed = getattr(node, PARSED_ATTR, None)
    if parsed is not None:
        return parsed
    if len(node.items) != 1:
        for item in node.items:
            if extract_directive_call(item.context_expr) is not None:
                raise OmpSyntaxError(
                    "omp() may not share a with statement with other "
                    "context managers")
        return None
    item = node.items[0]
    text = extract_directive_call(item.context_expr)
    if text is None:
        return None
    if item.optional_vars is not None:
        raise OmpSyntaxError("omp() does not support 'as' bindings",
                             directive=text)
    return parse_directive(text)


def transform_statements(stmts: list[ast.stmt],
                         ctx: TransformContext) -> list[ast.stmt]:
    # Imported here to avoid a cycle (construct modules use this
    # function for their recursive descent).
    from repro.transform.constructs import dispatch_standalone, \
        dispatch_structured

    output: list[ast.stmt] = []
    for stmt in stmts:
        if isinstance(stmt, ast.With):
            directive = _directive_of_with(stmt)
            if directive is not None:
                spec = DIRECTIVES[directive.name]
                if spec.standalone:
                    raise OmpSyntaxError(
                        f"{directive.name!r} is a standalone directive; "
                        f"call it as omp({directive.source!r}) without "
                        f"'with'", directive=directive.source)
                output.extend(dispatch_structured(stmt, directive, ctx))
                continue
        elif isinstance(stmt, ast.Expr):
            text = extract_directive_call(stmt.value)
            if text is not None:
                directive = parse_directive(text)
                spec = DIRECTIVES[directive.name]
                if not spec.standalone:
                    raise OmpSyntaxError(
                        f"{directive.name!r} requires a structured block; "
                        f"use 'with omp(...)'", directive=directive.source)
                output.extend(dispatch_standalone(stmt, directive, ctx))
                continue
        output.append(_recurse(stmt, ctx))
    return output


def _recurse(stmt: ast.stmt, ctx: TransformContext) -> ast.stmt:
    """Transform directives inside compound statements."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
        ctx.push_scope(scope.function_params(stmt), stmt.body)
        try:
            stmt.body = transform_statements(stmt.body, ctx)
        finally:
            ctx.pop_scope()
        return stmt
    if isinstance(stmt, ast.ClassDef):
        stmt.body = transform_statements(stmt.body, ctx)
        return stmt
    if isinstance(stmt, (ast.For, ast.AsyncFor, ast.While)):
        stmt.body = transform_statements(stmt.body, ctx)
        stmt.orelse = transform_statements(stmt.orelse, ctx)
        return stmt
    if isinstance(stmt, ast.If):
        stmt.body = transform_statements(stmt.body, ctx)
        stmt.orelse = transform_statements(stmt.orelse, ctx)
        return stmt
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        stmt.body = transform_statements(stmt.body, ctx)
        return stmt
    if isinstance(stmt, ast.Try):
        stmt.body = transform_statements(stmt.body, ctx)
        for handler in stmt.handlers:
            handler.body = transform_statements(handler.body, ctx)
        stmt.orelse = transform_statements(stmt.orelse, ctx)
        stmt.finalbody = transform_statements(stmt.finalbody, ctx)
        return stmt
    return stmt


class ApiRewriter(ast.NodeTransformer):
    """Rebinds ``omp_*`` API references to the ``__omp__`` handle."""

    def __init__(self, rt_name: str):
        self.rt_name = rt_name

    def visit_Name(self, node: ast.Name):
        method = OMP_API_METHODS.get(node.id)
        if method is not None and isinstance(node.ctx, ast.Load):
            return ast.copy_location(rt_attr(self.rt_name, method), node)
        return node


def transform_function_def(funcdef: ast.FunctionDef,
                           ctx: TransformContext) -> ast.FunctionDef:
    """Transform one function definition (decorators already stripped)."""
    ctx.push_scope(scope.function_params(funcdef), funcdef.body)
    try:
        funcdef.body = transform_statements(funcdef.body, ctx)
    finally:
        ctx.pop_scope()
    rewriter = ApiRewriter(ctx.rt_name)
    for index, stmt in enumerate(funcdef.body):
        funcdef.body[index] = rewriter.visit(stmt)
    if ctx.threadprivate:
        from repro.transform.constructs.threadprivate import \
            ThreadprivateRewriter
        tp_rewriter = ThreadprivateRewriter(ctx)
        funcdef.body = [tp_rewriter.visit(stmt) for stmt in funcdef.body]
    # The one location pass: lowering functions only stamp the statements
    # they generate with their directive's location (``copy_location``);
    # here every other generated node inherits from its nearest located
    # ancestor, and no completed subtree is walked twice.
    ast.fix_missing_locations(funcdef)
    return funcdef
