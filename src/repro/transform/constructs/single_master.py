"""Lowering of ``single`` (with ``copyprivate``) and ``master``.

``single`` is the one-section special case of sections (paper Section
III-D): the first thread to claim the shared counter executes the body.
``copyprivate`` broadcasts the executor's listed values to every other
thread after the implicit barrier.  ``master`` is a thread-0 check with
no barrier.
"""

from __future__ import annotations

import ast

from repro.directives.model import Directive
from repro.transform import astutil
from repro.transform.context import TransformContext
from repro.transform.datasharing import classify
from repro.transform.constructs.loops import _loop_privatization


def handle_single(node: ast.With, directive: Directive,
                  ctx: TransformContext) -> list[ast.stmt]:
    from repro.transform.rewriter import transform_statements

    body = node.body
    astutil.check_no_escape(body, directive.source)
    ds = classify(body, directive, ctx)
    rename_map, pre, _post = _loop_privatization(ds, ctx, directive)
    copyprivate = directive.clause_vars("copyprivate")
    nowait = directive.has_clause("nowait")

    with ctx.enter_construct("single"):
        new_body = transform_statements(body, ctx)
    new_body = astutil.rename_in(new_body, rename_map)

    state_name = ctx.symbols.fresh("single")
    stmts: list[ast.stmt] = list(pre)
    stmts.append(astutil.assign(
        state_name, astutil.rt_call(ctx.rt_name, "single_begin")))

    selected_body = list(new_body)
    if copyprivate:
        # Publish the executor's (possibly renamed) values.
        values = ast.Tuple(
            elts=[astutil.name_load(rename_map.get(name, name))
                  for name in copyprivate],
            ctx=ast.Load())
        selected_body.append(astutil.rt_call_stmt(
            ctx.rt_name, "copyprivate_set",
            [astutil.name_load(state_name), values]))
    if not selected_body:
        selected_body.append(ast.Pass())
    stmts.append(ast.If(
        test=ast.Attribute(value=astutil.name_load(state_name),
                           attr="selected", ctx=ast.Load()),
        body=selected_body, orelse=[]))
    stmts.append(astutil.rt_call_stmt(
        ctx.rt_name, "single_end", [astutil.name_load(state_name)],
        [("nowait", astutil.constant(nowait))]))
    if copyprivate:
        # Every thread (executor included) adopts the broadcast values
        # into the enclosing scope's variables.
        targets = ast.Tuple(
            elts=[astutil.name_store(name) for name in copyprivate],
            ctx=ast.Store())
        stmts.append(ast.Assign(
            targets=[targets],
            value=astutil.rt_call(ctx.rt_name, "copyprivate_get",
                                  [astutil.name_load(state_name)])))
    for stmt in stmts:
        ast.copy_location(stmt, node)
    return stmts


def handle_master(node: ast.With, directive: Directive,
                  ctx: TransformContext) -> list[ast.stmt]:
    from repro.transform.rewriter import transform_statements

    astutil.check_no_escape(node.body, directive.source)
    with ctx.enter_construct("master"):
        body = transform_statements(node.body, ctx)
    stmt = ast.If(test=astutil.rt_call(ctx.rt_name, "master_begin"),
                  body=body or [ast.Pass()], orelse=[])
    ast.copy_location(stmt, node)
    return [stmt]
