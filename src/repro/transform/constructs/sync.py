"""Lowering of synchronization constructs: ``critical``, ``atomic``,
``barrier``, ``taskwait``, and ``flush``."""

from __future__ import annotations

import ast

from repro.directives.model import Directive
from repro.errors import OmpSyntaxError
from repro.transform import astutil
from repro.transform.context import TransformContext

#: Constructs a barrier may not be (lexically) nested inside.
_NO_BARRIER_INSIDE = ("for", "sections", "single", "master", "critical",
                      "ordered", "task", "atomic")


def handle_critical(node: ast.With, directive: Directive,
                    ctx: TransformContext) -> list[ast.stmt]:
    from repro.transform.rewriter import transform_statements

    name = directive.arguments[0] if directive.arguments else ""
    with ctx.enter_construct("critical"):
        body = transform_statements(node.body, ctx)
    enter = astutil.rt_call_stmt(ctx.rt_name, "critical_enter",
                                 [astutil.constant(name)])
    leave = astutil.rt_call_stmt(ctx.rt_name, "critical_exit",
                                 [astutil.constant(name)])
    result = [enter, astutil.try_finally(body or [ast.Pass()], [leave])]
    for stmt in result:
        ast.copy_location(stmt, node)
    return result


def handle_atomic(node: ast.With, directive: Directive,
                  ctx: TransformContext) -> list[ast.stmt]:
    if len(node.body) != 1 or not _is_atomic_statement(node.body[0]):
        raise OmpSyntaxError(
            "atomic requires exactly one update statement "
            "(x += expr, x[i] op= expr, or x = x op expr)",
            directive=directive.source)
    enter = astutil.rt_call_stmt(ctx.rt_name, "atomic_enter")
    leave = astutil.rt_call_stmt(ctx.rt_name, "atomic_exit")
    result = [enter, astutil.try_finally(list(node.body), [leave])]
    for stmt in result:
        ast.copy_location(stmt, node)
    return result


def _is_atomic_statement(stmt: ast.stmt) -> bool:
    if isinstance(stmt, ast.AugAssign):
        return isinstance(stmt.target,
                          (ast.Name, ast.Subscript, ast.Attribute))
    if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
        target = stmt.targets[0]
        value = stmt.value
        # x = x op expr   /   x = expr op x
        if isinstance(target, ast.Name) and isinstance(value, ast.BinOp):
            for side in (value.left, value.right):
                if isinstance(side, ast.Name) and side.id == target.id:
                    return True
    return False


def handle_barrier(node: ast.Expr, directive: Directive,
                   ctx: TransformContext) -> list[ast.stmt]:
    ctx.require_not_inside(directive.source, _NO_BARRIER_INSIDE)
    stmt = astutil.rt_call_stmt(ctx.rt_name, "barrier")
    ast.copy_location(stmt, node)
    return [stmt]


def handle_taskwait(node: ast.Expr, directive: Directive,
                    ctx: TransformContext) -> list[ast.stmt]:
    stmt = astutil.rt_call_stmt(ctx.rt_name, "task_wait")
    ast.copy_location(stmt, node)
    return [stmt]


def handle_flush(node: ast.Expr, directive: Directive,
                 ctx: TransformContext) -> list[ast.stmt]:
    arguments = [astutil.constant(name) for name in directive.arguments]
    stmt = astutil.rt_call_stmt(ctx.rt_name, "flush", arguments)
    ast.copy_location(stmt, node)
    return [stmt]
