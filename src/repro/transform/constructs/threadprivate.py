"""Lowering of ``threadprivate`` and ``declare reduction``.

``threadprivate(x)`` registers module-level ``x`` as per-thread storage:
within the decorated object, loads of ``x`` become
``__omp__.tp_load(key, 'x', globals())`` and stores become
``__omp__.tp_store(key, value)``; the ``copyin`` clause broadcasts the
master's copy at region entry.  Keys are module-qualified so distinct
modules' variables never collide.

``declare reduction(ident : combiner) initializer(expr)`` registers a
user reduction; the combiner is an expression over ``omp_out``/``omp_in``
and the initializer produces the identity value (required, since Python
has no type-default initial values).
"""

from __future__ import annotations

import ast

from repro.directives.model import Directive
from repro.errors import OmpSyntaxError
from repro.transform import astutil
from repro.transform.context import TransformContext


def handle_threadprivate(node: ast.Expr, directive: Directive,
                         ctx: TransformContext) -> list[ast.stmt]:
    for name in directive.arguments:
        # The name refers to a module-level variable; assignments inside
        # the decorated object are rewritten to per-thread stores, so an
        # in-function assignment does not make it a local.
        if name not in ctx.module_globals:
            raise OmpSyntaxError(
                f"threadprivate variable {name!r} must be a module-level "
                f"variable", directive=directive.source)
        ctx.threadprivate[name] = f"{ctx.module_name}.{name}"
    return []  # registration is purely static


def handle_declare_reduction(node: ast.Expr, directive: Directive,
                             ctx: TransformContext) -> list[ast.stmt]:
    name = directive.arguments[0]
    combiner_clause = directive.clause("combiner")
    initializer_clause = directive.clause("initializer")
    if initializer_clause is None:
        raise OmpSyntaxError(
            "declare reduction requires an initializer(...) clause",
            directive=directive.source)
    combiner_expr = astutil.parse_expression(
        combiner_clause.expr, directive.source)
    initializer_expr = astutil.parse_expression(
        initializer_clause.expr, directive.source)

    lambda_args = ast.arguments(
        posonlyargs=[], args=[ast.arg(arg="omp_out"), ast.arg(arg="omp_in")],
        vararg=None, kwonlyargs=[], kw_defaults=[], kwarg=None, defaults=[])
    combiner = ast.Lambda(args=lambda_args, body=combiner_expr)
    empty_args = ast.arguments(posonlyargs=[], args=[], vararg=None,
                               kwonlyargs=[], kw_defaults=[], kwarg=None,
                               defaults=[])
    initializer = ast.Lambda(args=empty_args, body=initializer_expr)

    stmt = astutil.rt_call_stmt(
        ctx.rt_name, "declare_reduction",
        [astutil.constant(name), combiner, initializer])
    ast.copy_location(stmt, node)
    return [stmt]


class ThreadprivateRewriter(ast.NodeTransformer):
    """Rewrites accesses to threadprivate names after transformation."""

    def __init__(self, ctx: TransformContext):
        self.ctx = ctx

    def _key(self, name: str) -> str:
        return self.ctx.threadprivate[name]

    def _load(self, name: str) -> ast.expr:
        return astutil.rt_call(
            self.ctx.rt_name, "tp_load",
            [astutil.constant(self._key(name)), astutil.constant(name),
             ast.Call(func=astutil.name_load("globals"), args=[],
                      keywords=[])])

    def visit_Name(self, node: ast.Name):
        if node.id in self.ctx.threadprivate and isinstance(
                node.ctx, ast.Load):
            return ast.copy_location(self._load(node.id), node)
        return node

    def visit_Assign(self, node: ast.Assign):
        self.generic_visit(node)
        if len(node.targets) == 1 and isinstance(node.targets[0], ast.Name) \
                and node.targets[0].id in self.ctx.threadprivate:
            name = node.targets[0].id
            return ast.copy_location(astutil.rt_call_stmt(
                self.ctx.rt_name, "tp_store",
                [astutil.constant(self._key(name)), node.value]), node)
        for target in node.targets:
            self._reject_compound(target)
        return node

    def visit_AugAssign(self, node: ast.AugAssign):
        self.generic_visit(node)
        if isinstance(node.target, ast.Name) \
                and node.target.id in self.ctx.threadprivate:
            name = node.target.id
            combined = ast.BinOp(left=self._load(name), op=node.op,
                                 right=node.value)
            return ast.copy_location(astutil.rt_call_stmt(
                self.ctx.rt_name, "tp_store",
                [astutil.constant(self._key(name)), combined]), node)
        return node

    def _reject_compound(self, target: ast.expr) -> None:
        for child in ast.walk(target):
            if isinstance(child, ast.Name) \
                    and child.id in self.ctx.threadprivate \
                    and isinstance(child.ctx, ast.Store):
                raise OmpSyntaxError(
                    f"unsupported compound assignment to threadprivate "
                    f"variable {child.id!r}")
